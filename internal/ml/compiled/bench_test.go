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
// compiles it, returning both plus the feature rows to score. Sized
// like the root benchmarks (50 trees); cmd/qoeinfer defaults to 100.
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

// BenchmarkForestOneRowBlock is the compiled scorer on a one-row
// block: what a single Classify call pays, zero allocations.
func BenchmarkForestOneRowBlock(b *testing.B) {
	_, cf, rows := benchModels(b)
	stride := len(rows[0])
	out := make([]float64, cf.NumClasses())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.PredictProbaBatchInto(rows[i%len(rows)], stride, out)
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

// BenchmarkForestSweepBatch is the batched per-shard sweep: one
// PredictBatchInto call over a 512-row block (trees outer, eight
// interleaved row walks). One op = one full sweep; divide by sweepRows
// to compare against BenchmarkForestOneRowBlock.
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
