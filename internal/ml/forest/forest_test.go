package forest

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"droppackets/internal/ml"
	"droppackets/internal/ml/mltest"
	"droppackets/internal/ml/tree"
)

func TestForestSolvesXOR(t *testing.T) {
	ds := mltest.XOR(60, 0.2, 1)
	acc, err := mltest.HoldoutAccuracy(New(Config{NumTrees: 30, Seed: 1}), ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("forest holdout accuracy %.3f on XOR", acc)
	}
}

func TestForestBeatsSingleTreeOnNoisyBlobs(t *testing.T) {
	ds := mltest.Blobs(120, 3, 0.45, 2)
	single, err := mltest.HoldoutAccuracy(&tree.Classifier{Seed: 3}, ds)
	if err != nil {
		t.Fatal(err)
	}
	ensemble, err := mltest.HoldoutAccuracy(New(Config{NumTrees: 60, Seed: 3}), ds)
	if err != nil {
		t.Fatal(err)
	}
	if ensemble+0.02 < single {
		t.Errorf("forest %.3f clearly worse than single tree %.3f", ensemble, single)
	}
}

func TestForestDeterministic(t *testing.T) {
	ds := mltest.Blobs(60, 3, 0.4, 4)
	a := New(Config{NumTrees: 20, Seed: 9})
	b := New(Config{NumTrees: 20, Seed: 9})
	if err := a.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for _, row := range ds.X {
		pa, pb := a.PredictProba(row), b.PredictProba(row)
		for c := range pa {
			if pa[c] != pb[c] {
				t.Fatal("same-seed forests disagree (parallel training broke determinism)")
			}
		}
	}
	c := New(Config{NumTrees: 20, Seed: 10})
	if err := c.Fit(ds); err != nil {
		t.Fatal(err)
	}
	diff := false
	for _, row := range ds.X {
		pa, pc := a.PredictProba(row), c.PredictProba(row)
		for k := range pa {
			if pa[k] != pc[k] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical forests (suspicious)")
	}
}

func TestForestImportances(t *testing.T) {
	base := mltest.Blobs(100, 2, 0.05, 5)
	ds := mltest.WithNoiseFeature(base, 6)
	f := New(Config{NumTrees: 40, Seed: 5})
	if err := f.Fit(ds); err != nil {
		t.Fatal(err)
	}
	imp := f.Importances()
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatal("negative importance")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %g, want 1", sum)
	}
	if imp[0] <= imp[2] {
		t.Errorf("signal feature %g not above noise %g", imp[0], imp[2])
	}
	top := f.TopImportances(ds.FeatureNames, 2)
	if len(top) != 2 {
		t.Fatalf("TopImportances(2) returned %d", len(top))
	}
	if top[0].Importance < top[1].Importance {
		t.Error("TopImportances not descending")
	}
	// Both blob coordinates carry signal; the noise column must not win.
	if top[0].Feature == "noise" {
		t.Error("noise feature ranked first")
	}
}

func TestForestProbaSumsToOne(t *testing.T) {
	ds := mltest.Blobs(50, 3, 0.4, 7)
	f := New(Config{NumTrees: 15, Seed: 7})
	if err := f.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for _, row := range ds.X {
		var sum float64
		for _, p := range f.PredictProba(row) {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %g", sum)
		}
	}
}

func TestForestDefaults(t *testing.T) {
	cfg := Config{}.withDefaults(38)
	if cfg.NumTrees != 100 || cfg.MinLeaf != 2 {
		t.Errorf("defaults: %+v", cfg)
	}
	if cfg.MaxFeatures != 6 { // round(sqrt(38)) = 6
		t.Errorf("MaxFeatures default %d, want 6", cfg.MaxFeatures)
	}
}

func TestForestEmptyDataset(t *testing.T) {
	if err := New(Config{}).Fit(&ml.Dataset{NumClasses: 2}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestForestName(t *testing.T) {
	if New(Config{}).Name() != "random-forest" {
		t.Error("unexpected name")
	}
}

func TestForestSaveLoadRoundTrip(t *testing.T) {
	ds := mltest.Blobs(50, 3, 0.3, 11)
	f := New(Config{NumTrees: 12, Seed: 11})
	if err := f.Fit(ds); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range ds.X {
		pa, pb := f.PredictProba(row), g.PredictProba(row)
		for c := range pa {
			if math.Abs(pa[c]-pb[c]) > 1e-12 {
				t.Fatal("loaded forest predicts differently")
			}
		}
	}
	ia, ib := f.Importances(), g.Importances()
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatal("importances not preserved")
		}
	}
}

func TestForestSaveBeforeFit(t *testing.T) {
	if err := New(Config{}).Save(&bytes.Buffer{}); err == nil {
		t.Error("unfitted forest saved")
	}
}

func TestForestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"version":99,"num_classes":3,"trees":[[]]}`,
		`{"version":1,"num_classes":1,"trees":[[{"f":-1}]]}`,
		`{"version":1,"num_classes":3,"trees":[]}`,
		`{"version":1,"num_classes":3,"trees":[[{"f":0,"l":5,"r":6}]]}`,
		`{"version":1,"num_classes":3,"trees":[[{"f":0,"l":0,"r":0}]]}`,
		// Over maxClasses: each leaf without a distribution would cost
		// num_classes floats.
		`{"version":1,"num_classes":1048576,"trees":[[{"f":-1}]]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage model loaded", i)
		}
	}
}
