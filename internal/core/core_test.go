package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"droppackets/internal/dataset"
	"droppackets/internal/features"
	"droppackets/internal/has"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/stats"
)

// trainingData builds a small labeled corpus once per test binary.
func trainingData(t testing.TB, n int) []TrainingSession {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 50, Sessions: n}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]TrainingSession, len(c.Records))
	for i, r := range c.Records {
		out[i] = TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE}
	}
	return out
}

func newEstimator() *Estimator {
	return NewEstimator(Config{
		Metric: qoe.MetricCombined,
		Forest: forest.Config{NumTrees: 25, MinLeaf: 2, Seed: 1},
	})
}

func TestEstimatorTrainAndClassify(t *testing.T) {
	sessions := trainingData(t, 150)
	est := newEstimator()
	if _, err := est.Classify(sessions[0].TLS); err == nil {
		t.Error("untrained estimator classified")
	}
	if err := est.Train(sessions); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range sessions {
		class, err := est.Classify(s.TLS)
		if err != nil {
			t.Fatal(err)
		}
		if class == s.QoE.Label(qoe.MetricCombined) {
			correct++
		}
		// The one-row block scores bit-identically to the interpreted
		// forest the estimator keeps for Save.
		x := est.featuresFor(s.TLS)
		if want := est.model.Predict(x); class != want {
			t.Fatalf("Classify = %d, interpreted forest = %d", class, want)
		}
		probs, err := est.ClassifyProba(s.TLS)
		if err != nil {
			t.Fatal(err)
		}
		if want := est.model.PredictProba(x); !slices.Equal(probs, want) {
			t.Fatalf("ClassifyProba = %v, interpreted forest = %v", probs, want)
		}
	}
	if frac := float64(correct) / float64(len(sessions)); frac < 0.8 {
		t.Errorf("training-set accuracy %.2f, implausibly low", frac)
	}
	probs, err := est.ClassifyProba(sessions[0].TLS)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("probabilities sum to %g", sum)
	}
}

func TestEstimatorSubsetConfig(t *testing.T) {
	sessions := trainingData(t, 80)
	est := NewEstimator(Config{
		Metric: qoe.MetricCombined,
		Subset: features.SessionLevelOnly,
		Forest: forest.Config{NumTrees: 10, Seed: 2},
	})
	if err := est.Train(sessions); err != nil {
		t.Fatal(err)
	}
	imps, err := est.Importances(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 4 {
		t.Errorf("SL subset should expose 4 features, got %d", len(imps))
	}
	for _, imp := range imps {
		switch imp.Feature {
		case "SDR_DL", "SDR_UL", "SES_DUR", "TRANS_PER_SEC":
		default:
			t.Errorf("unexpected feature %q in SL subset", imp.Feature)
		}
	}
}

func TestEstimatorCrossValidate(t *testing.T) {
	sessions := trainingData(t, 150)
	est := newEstimator()
	res, err := est.CrossValidate(sessions, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion.Total() != len(sessions) {
		t.Errorf("CV pooled %d predictions", res.Confusion.Total())
	}
	if m := res.Metrics(); m.Accuracy < 0.5 {
		t.Errorf("CV accuracy %.2f", m.Accuracy)
	}
}

func TestEstimatorErrors(t *testing.T) {
	est := newEstimator()
	if err := est.Train(nil); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := est.Importances(3); err == nil {
		t.Error("untrained importances returned")
	}
	if _, err := est.ClassifyProba(nil); err == nil {
		t.Error("untrained proba returned")
	}
	if est.Metric() != qoe.MetricCombined {
		t.Error("metric accessor wrong")
	}
}

func TestClassNames(t *testing.T) {
	if got := ClassNames(qoe.MetricRebuffer); got[0] != "high" || got[2] != "zero" {
		t.Errorf("rebuffer names %v", got)
	}
	if got := ClassNames(qoe.MetricCombined); got[0] != "low" || got[2] != "high" {
		t.Errorf("combined names %v", got)
	}
}

func TestPacketEstimator(t *testing.T) {
	c, err := dataset.Build(dataset.Config{Seed: 51, Sessions: 60, KeepPacketDetail: true}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var sessions []PacketTrainingSession
	for i, r := range c.Records {
		pkts, err := r.Capture.Packetize(stats.SplitRNG(1, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, PacketTrainingSession{Packets: pkts, QoE: r.QoE})
	}
	pe := &PacketEstimator{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 15, Seed: 4}}
	if _, err := pe.Classify(sessions[0].Packets); err == nil {
		t.Error("untrained packet estimator classified")
	}
	if err := pe.Train(sessions); err != nil {
		t.Fatal(err)
	}
	class, err := pe.Classify(sessions[0].Packets)
	if err != nil {
		t.Fatal(err)
	}
	if class < 0 || class >= qoe.NumCategories {
		t.Errorf("class %d out of range", class)
	}
	if err := pe.Train(nil); err == nil {
		t.Error("empty packet training set accepted")
	}
}

func TestEstimatorSaveLoad(t *testing.T) {
	sessions := trainingData(t, 100)
	est := newEstimator()
	if err := est.Save(&bytes.Buffer{}); err == nil {
		t.Error("untrained estimator saved")
	}
	if err := est.Train(sessions); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Metric() != est.Metric() {
		t.Error("metric not preserved")
	}
	for _, s := range sessions[:20] {
		a, err := est.Classify(s.TLS)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Classify(s.TLS)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatal("loaded estimator predicts differently")
		}
	}
}

// garbageEstimators are model files LoadEstimator must reject; they
// also seed FuzzLoadEstimator.
var garbageEstimators = []string{
	"",
	"nope",
	`{"version":9,"metric":2,"subset":3,"model":{}}`,
	`{"version":1,"metric":7,"subset":3,"model":{}}`,
	`{"version":1,"metric":2,"subset":9,"model":{}}`,
	`{"version":1,"metric":2,"subset":3,"model":{"version":1,"num_classes":3,"trees":[]}}`,
}

func TestLoadEstimatorRejectsGarbage(t *testing.T) {
	for i, c := range garbageEstimators {
		if _, err := LoadEstimator(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage estimator loaded", i)
		}
	}
}

// TestLoadEstimatorRejectsUnservableModels pins two corrupt shapes
// FuzzLoadEstimator found loading and then panicking in
// ClassifyBlockInto or Classify: a forest whose class count is not the
// QoE category count, and a split on a feature the subset's rows do
// not have. The same one-split tree over feature 0 is the control.
func TestLoadEstimatorRejectsUnservableModels(t *testing.T) {
	envelope := func(classes, feature int) string {
		leaf := strings.TrimSuffix(strings.Repeat("0.5,", classes), ",")
		return fmt.Sprintf(`{"version":2,"metric":2,"subset":3,"model":{"version":1,"num_classes":%d,`+
			`"trees":[[{"f":%d,"t":1,"l":1,"r":2},{"f":-1,"d":[%s]},{"f":-1,"d":[%s]}]]}}`,
			classes, feature, leaf, leaf)
	}
	if _, err := LoadEstimator(strings.NewReader(envelope(qoe.NumCategories, 0))); err != nil {
		t.Fatalf("control model rejected: %v", err)
	}
	for name, doc := range map[string]string{
		"seven classes":        envelope(7, 0),
		"feature out of range": envelope(qoe.NumCategories, 99),
	} {
		if _, err := LoadEstimator(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}

func TestLoadEstimatorTruncated(t *testing.T) {
	est := newEstimator()
	if err := est.Train(trainingData(t, 60)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadEstimator(bytes.NewReader(cut)); err == nil {
		t.Error("truncated estimator file loaded")
	}
}

func TestEstimatorBaselineRoundTrip(t *testing.T) {
	est := newEstimator()
	if m, s := est.Baseline(); m != nil || s != nil {
		t.Error("untrained estimator reports a baseline")
	}
	if err := est.Train(trainingData(t, 80)); err != nil {
		t.Fatal(err)
	}
	means, stds := est.Baseline()
	names := est.FeatureNames()
	if len(means) != est.NumFeatures() || len(stds) != est.NumFeatures() || len(names) != est.NumFeatures() {
		t.Fatalf("baseline sizes %d/%d/%d, want %d", len(means), len(stds), len(names), est.NumFeatures())
	}
	nonzero := false
	for i := range means {
		if means[i] != 0 || stds[i] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("baseline is all zeros")
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lm, ls := loaded.Baseline()
	for i := range means {
		if lm[i] != means[i] || ls[i] != stds[i] {
			t.Fatalf("feature %d baseline changed across save/load: %g/%g vs %g/%g",
				i, lm[i], ls[i], means[i], stds[i])
		}
	}
	if loaded.Subset() != est.Subset() {
		t.Error("subset not preserved")
	}
}

// TestLoadEstimatorVersion1Compat proves pre-baseline model files still
// load: strip the baseline block from a freshly saved envelope and mark
// it version 1, the layout every earlier release wrote.
func TestLoadEstimatorVersion1Compat(t *testing.T) {
	est := newEstimator()
	if err := est.Train(trainingData(t, 60)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	delete(env, "baseline")
	env["version"] = json.RawMessage("1")
	v1, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("version-1 file rejected: %v", err)
	}
	if m, s := loaded.Baseline(); m != nil || s != nil {
		t.Error("version-1 file produced a baseline")
	}
	// A baseline block whose length disagrees with the subset is corrupt.
	env["version"] = json.RawMessage("2")
	env["baseline"] = json.RawMessage(`{"means":[1,2],"stds":[1,2]}`)
	bad, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEstimator(bytes.NewReader(bad)); err == nil {
		t.Error("mis-sized baseline block loaded")
	}
}
