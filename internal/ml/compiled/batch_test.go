package compiled_test

import (
	"fmt"
	"math"
	"testing"

	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml/compiled"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
)

// batchModel fits one small forest on a corpus drawn from the given
// profile and seed, returning the interpreted oracle, its compiled
// scorer and the feature rows.
func batchModel(t testing.TB, p *has.ServiceProfile, seed int64) (*forest.Classifier, *compiled.Forest, [][]float64) {
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
	return f, cf, ds.X
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

// checkBlock scores a row-major block through both batch entry points
// and compares every row, probability for probability with ==, against
// the interpreted forest's PredictProba and Predict.
func checkBlock(t *testing.T, f *forest.Classifier, cf *compiled.Forest, block []float64, stride int) {
	t.Helper()
	n, nc := len(block)/stride, cf.NumClasses()
	probs := make([]float64, n*nc)
	cf.PredictProbaBatchInto(block, stride, probs)
	classes := make([]int, n)
	cf.PredictBatchInto(block, stride, make([]float64, n*nc), classes)
	for r := 0; r < n; r++ {
		row := block[r*stride : (r+1)*stride]
		want := f.PredictProba(row)
		for k := range want {
			if probs[r*nc+k] != want[k] {
				t.Fatalf("n=%d row %d class %d: compiled prob %v, interpreted %v", n, r, k, probs[r*nc+k], want[k])
			}
		}
		if want := f.Predict(row); classes[r] != want {
			t.Fatalf("n=%d row %d: compiled class %d, interpreted %d", n, r, classes[r], want)
		}
	}
}

// TestBatchEquivalence is the randomized bit-identity suite for the
// block sweeps: 20 seeds across all three service profiles, block
// sizes chosen to hit every lane shape (empty, below one lane group,
// lane-aligned, ragged remainder), compiled probabilities and classes
// compared with == against the interpreted forest.
func TestBatchEquivalence(t *testing.T) {
	profiles := has.Profiles()
	for seed := int64(1); seed <= 20; seed++ {
		p := profiles[int(seed)%len(profiles)]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, p.Name), func(t *testing.T) {
			f, cf, rows := batchModel(t, p, seed)
			stride := len(rows[0])
			// 0 and 1 exercise the degenerate blocks, 3 the remainder-only
			// path, 4 one lane group, 8 one eight-lane step, 11 groups plus a
			// ragged tail, 70 more than one row tile.
			for _, n := range []int{0, 1, 3, 4, 8, 11, 30, 70} {
				checkBlock(t, f, cf, packBlock(rows, n, stride), stride)
			}
		})
	}
}

// TestNonFiniteRowsStayInRange feeds rows of NaN and ±Inf through every
// lane shape: the scores are unspecified for such rows, but every walk
// must stay inside its tree and return a valid class.
func TestNonFiniteRowsStayInRange(t *testing.T) {
	_, cf, rows := batchModel(t, has.Svc1(), 2)
	stride, nc := len(rows[0]), cf.NumClasses()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, n := range []int{1, 4, 9} {
			block := make([]float64, n*stride)
			for i := range block {
				block[i] = v
			}
			classes := make([]int, n)
			cf.PredictBatchInto(block, stride, make([]float64, n*nc), classes)
			for r, c := range classes {
				if c < 0 || c >= nc {
					t.Fatalf("value %v n=%d row %d: class %d out of range", v, n, r, c)
				}
			}
		}
	}
}

// TestBatchZeroAllocs pins the batch sweeps at zero allocations per
// call with caller-owned buffers — the contract the per-shard classify
// sweep in cmd/qoeproxy depends on.
func TestBatchZeroAllocs(t *testing.T) {
	_, cf, rows := batchModel(t, has.Svc1(), 3)
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
