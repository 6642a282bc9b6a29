package compiled_test

import (
	"fmt"
	"testing"

	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml/compiled"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
)

// batchModel fits and compiles one small forest on a corpus drawn from
// the given profile and seed, returning the scorer and the feature
// rows.
func batchModel(t testing.TB, p *has.ServiceProfile, seed int64) (*compiled.Forest, [][]float64) {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: seed, Sessions: 30}, p)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.MLDataset(qoe.MetricCombined)
	if err != nil {
		t.Fatal(err)
	}
	f := forest.New(forest.Config{NumTrees: 6, Seed: seed})
	if err := f.Fit(ds); err != nil {
		t.Fatal(err)
	}
	cf, err := compiled.CompileForest(f)
	if err != nil {
		t.Fatal(err)
	}
	return cf, ds.X
}

// packBlock copies n rows (cycling through src) into one contiguous
// row-major block of the given stride.
func packBlock(src [][]float64, n, stride int) []float64 {
	block := make([]float64, n*stride)
	for r := 0; r < n; r++ {
		copy(block[r*stride:(r+1)*stride], src[r%len(src)])
	}
	return block
}

// TestBatchEquivalence is the randomized bit-identity suite for the
// batch sweeps: 20 seeds across all three service profiles, block
// sizes chosen to hit every lane shape (empty, below one lane group,
// lane-aligned, ragged remainder), forest probabilities and classes
// compared with == against the row-at-a-time compiled scorer.
func TestBatchEquivalence(t *testing.T) {
	profiles := has.Profiles()
	for seed := int64(1); seed <= 20; seed++ {
		p := profiles[int(seed)%len(profiles)]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, p.Name), func(t *testing.T) {
			cf, rows := batchModel(t, p, seed)
			stride := len(rows[0])
			nc := cf.NumClasses()
			// 0 and 1 exercise the degenerate blocks, 3 the remainder-only
			// path, 4 one exact lane group, 11 groups plus a ragged tail.
			for _, n := range []int{0, 1, 3, 4, 11, 30} {
				block := packBlock(rows, n, stride)

				probs := make([]float64, n*nc)
				classes := make([]int, n)
				cf.PredictBatchInto(block, stride, probs, classes)
				rowProbs := make([]float64, nc)
				for r := 0; r < n; r++ {
					want := cf.PredictInto(block[r*stride:(r+1)*stride], rowProbs)
					if classes[r] != want {
						t.Fatalf("n=%d row %d: forest batch class %d, row-at-a-time %d", n, r, classes[r], want)
					}
					for k := 0; k < nc; k++ {
						if probs[r*nc+k] != rowProbs[k] {
							t.Fatalf("n=%d row %d class %d: forest batch prob %v, row-at-a-time %v",
								n, r, k, probs[r*nc+k], rowProbs[k])
						}
					}
				}

			}
		})
	}
}

// TestBatchZeroAllocs pins the batch sweeps at zero allocations per
// call with caller-owned buffers — the contract the per-shard classify
// sweep in cmd/qoeproxy depends on.
func TestBatchZeroAllocs(t *testing.T) {
	cf, rows := batchModel(t, has.Svc1(), 3)
	stride := len(rows[0])
	nc := cf.NumClasses()
	const n = 17
	block := packBlock(rows, n, stride)
	probs := make([]float64, n*nc)
	classes := make([]int, n)

	if got := testing.AllocsPerRun(50, func() {
		cf.PredictProbaBatchInto(block, stride, probs)
	}); got != 0 {
		t.Errorf("Forest.PredictProbaBatchInto allocates %v per run, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		cf.PredictBatchInto(block, stride, probs, classes)
	}); got != 0 {
		t.Errorf("Forest.PredictBatchInto allocates %v per run, want 0", got)
	}
}
