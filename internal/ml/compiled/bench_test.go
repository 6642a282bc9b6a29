package compiled_test

import (
	"testing"

	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml/compiled"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
)

// benchModels fits one forest on a service-profile dataset and
// compiles it, returning both plus the feature rows to score. Sized like the serving configuration (cmd/qoeinfer
// defaults to 25 trees; the root benchmarks use 50).
func benchModels(b *testing.B) (*forest.Classifier, *compiled.Forest, [][]float64) {
	b.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 31, Sessions: 200}, has.Svc1())
	if err != nil {
		b.Fatal(err)
	}
	ds, err := c.MLDataset(qoe.MetricCombined)
	if err != nil {
		b.Fatal(err)
	}
	f := forest.New(forest.Config{NumTrees: 50, Seed: 7})
	if err := f.Fit(ds); err != nil {
		b.Fatal(err)
	}
	cf, err := compiled.CompileForest(f)
	if err != nil {
		b.Fatal(err)
	}
	return f, cf, ds.X
}

// BenchmarkForestPredictProbaSeed reconstructs the serving path as it
// stood before this change: the forest's inner loop called each tree's
// allocating PredictProba, one fresh probability slice per tree per
// row. This is the "interpreted" baseline the compiled scorer is
// compared against.
func BenchmarkForestPredictProbaSeed(b *testing.B) {
	f, _, rows := benchModels(b)
	probs := make([]float64, f.NumClasses())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := rows[i%len(rows)]
		for j := range probs {
			probs[j] = 0
		}
		for t := 0; t < f.NumTrees(); t++ {
			for k, p := range f.Tree(t).PredictProba(x) {
				probs[k] += p
			}
		}
		for j := range probs {
			probs[j] /= float64(f.NumTrees())
		}
	}
}

// BenchmarkForestPredictProbaInterpreted is the interpreted ensemble's
// public entry point, allocating only the returned vector per row.
func BenchmarkForestPredictProbaInterpreted(b *testing.B) {
	f, _, rows := benchModels(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.PredictProba(rows[i%len(rows)])
	}
}

// BenchmarkForestPredictProbaIntoInterpreted is the interpreted
// ensemble after the per-tree allocation fix: tree walks via the
// leaf-distribution view, caller-owned output buffer.
func BenchmarkForestPredictProbaIntoInterpreted(b *testing.B) {
	f, _, rows := benchModels(b)
	out := make([]float64, f.NumClasses())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProbaInto(rows[i%len(rows)], out)
	}
}

// BenchmarkForestPredictProbaIntoCompiled is the compiled scorer: one
// flat node pool for all trees, zero allocations.
func BenchmarkForestPredictProbaIntoCompiled(b *testing.B) {
	_, cf, rows := benchModels(b)
	out := make([]float64, cf.NumClasses())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.PredictProbaInto(rows[i%len(rows)], out)
	}
}

// sweepRows is the block size of the multi-row sweep benchmarks,
// shaped like one shard's classify-tick gather at realistic load.
const sweepRows = 512

// benchBlock packs sweepRows dataset rows into one contiguous
// row-major block.
func benchBlock(rows [][]float64) (block []float64, stride int) {
	stride = len(rows[0])
	block = make([]float64, sweepRows*stride)
	for r := 0; r < sweepRows; r++ {
		copy(block[r*stride:(r+1)*stride], rows[r%len(rows)])
	}
	return block, stride
}

// BenchmarkForestSweepRowAtATime is the per-row compiled path over a
// multi-row block: what the classify tick did before the batched
// sweep — one PredictInto call per client row. One op = one full
// 512-row sweep.
func BenchmarkForestSweepRowAtATime(b *testing.B) {
	_, cf, rows := benchModels(b)
	block, stride := benchBlock(rows)
	probs := make([]float64, cf.NumClasses())
	out := make([]int, sweepRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < sweepRows; r++ {
			out[r] = cf.PredictInto(block[r*stride:(r+1)*stride], probs)
		}
	}
}

// BenchmarkForestSweepBatch is the batched per-shard sweep: one
// PredictBatchInto call over the same 512-row block (trees outer,
// four interleaved row walks). One op = one full sweep; compare
// directly against BenchmarkForestSweepRowAtATime.
func BenchmarkForestSweepBatch(b *testing.B) {
	_, cf, rows := benchModels(b)
	block, stride := benchBlock(rows)
	probs := make([]float64, sweepRows*cf.NumClasses())
	out := make([]int, sweepRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.PredictBatchInto(block, stride, probs, out)
	}
}
