package compiled_test

import (
	"math/rand"
	"testing"

	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml"
	"droppackets/internal/ml/compiled"
	"droppackets/internal/ml/forest"
	"droppackets/internal/ml/mltest"
	"droppackets/internal/qoe"
)

// profileDataset builds a small labeled corpus for one service profile.
func profileDataset(t testing.TB, p *has.ServiceProfile, seed int64) *ml.Dataset {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: seed, Sessions: 40}, p)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.MLDataset(qoe.MetricCombined)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestForestGoldenEquivalence fits a forest on each of the three
// service profiles and checks the compiled scorer is bit-identical to
// the interpreted ensemble on every training row, scored as one block:
// same argmax, same probability vector, float for float.
func TestForestGoldenEquivalence(t *testing.T) {
	for _, p := range has.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			ds := profileDataset(t, p, 60)
			f := forest.New(forest.Config{NumTrees: 15, MinLeaf: 2, Seed: 7})
			if err := f.Fit(ds); err != nil {
				t.Fatal(err)
			}
			c, err := compiled.CompileForest(f)
			if err != nil {
				t.Fatal(err)
			}
			if c.NumTrees() != f.NumTrees() || c.NumClasses() != f.NumClasses() {
				t.Fatalf("shape mismatch: compiled %d/%d vs %d/%d",
					c.NumTrees(), c.NumClasses(), f.NumTrees(), f.NumClasses())
			}
			stride := len(ds.X[0])
			checkBlock(t, f, c, packBlock(ds.X, len(ds.X), stride), stride)
		})
	}
}

// TestCompileErrors covers the malformed/empty-model paths: nil and
// unfitted ensembles must fail to compile instead of producing a scorer
// that panics at serve time.
func TestCompileErrors(t *testing.T) {
	if _, err := compiled.CompileForest(nil); err == nil {
		t.Error("CompileForest(nil) succeeded")
	}
	if _, err := compiled.CompileForest(forest.New(forest.Config{})); err == nil {
		t.Error("CompileForest(unfitted) succeeded")
	}
}

// TestPredictProbaIntoAllocs pins the zero-allocation contract of the
// compiled single-row hot path: one row scored as a one-row block, the
// way Estimator.Classify and the final verdicts in cmd/qoeproxy score it.
func TestPredictProbaIntoAllocs(t *testing.T) {
	ds := mltest.Blobs(30, 3, 0.4, 5)
	f := forest.New(forest.Config{NumTrees: 10, Seed: 5})
	if err := f.Fit(ds); err != nil {
		t.Fatal(err)
	}
	c, err := compiled.CompileForest(f)
	if err != nil {
		t.Fatal(err)
	}
	row := ds.X[0]
	probs := make([]float64, c.NumClasses())
	class := make([]int, 1)
	if n := testing.AllocsPerRun(100, func() { c.PredictProbaBatchInto(row, len(row), probs) }); n != 0 {
		t.Errorf("compiled one-row PredictProbaBatchInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.PredictBatchInto(row, len(row), probs, class) }); n != 0 {
		t.Errorf("compiled one-row PredictBatchInto allocates %v per run", n)
	}
}

// TestRandomizedRoundTrip is the fuzz-style sweep: random datasets,
// random forest shapes, fit → compile → compare on both the training
// rows and fresh random probes (including values outside the training
// range, exercising every leaf path), scored as one block.
func TestRandomizedRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numClasses := 2 + rng.Intn(3)
		ds := mltest.Blobs(15+rng.Intn(25), numClasses, 0.3+0.5*rng.Float64(), seed)
		probes := make([][]float64, 50)
		for i := range probes {
			probes[i] = []float64{6 * (rng.Float64() - 0.5) * 2, 6 * (rng.Float64() - 0.5) * 2}
		}

		f := forest.New(forest.Config{
			NumTrees: 1 + rng.Intn(10),
			MaxDepth: rng.Intn(6), // 0 = unlimited
			MinLeaf:  1 + rng.Intn(3),
			Seed:     seed * 31,
		})
		if err := f.Fit(ds); err != nil {
			t.Fatalf("seed %d: forest fit: %v", seed, err)
		}
		cf, err := compiled.CompileForest(f)
		if err != nil {
			t.Fatalf("seed %d: compile forest: %v", seed, err)
		}
		rows := append(append([][]float64(nil), ds.X...), probes...)
		checkBlock(t, f, cf, packBlock(rows, len(rows), 2), 2)
	}
}
