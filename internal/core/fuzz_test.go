package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"droppackets/internal/capture"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
)

// FuzzLoadEstimator holds LoadEstimator to its promise: a model file it
// accepts never panics in Classify or ClassifyBlockInto, and every class
// it predicts is a QoE category. A structurally corrupt file must fail
// at load time, not inside a serving loop.
func FuzzLoadEstimator(f *testing.F) {
	sessions := trainingData(f, 40)
	est := NewEstimator(Config{
		Metric: qoe.MetricCombined,
		Forest: forest.Config{NumTrees: 2, MaxDepth: 3, Seed: 1},
	})
	if err := est.Train(sessions); err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := est.Save(&v2); err != nil {
		f.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(v2.Bytes(), &env); err != nil {
		f.Fatal(err)
	}
	delete(env, "baseline")
	env["version"] = json.RawMessage("1")
	v1, err := json.Marshal(env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1)
	for _, g := range garbageEstimators {
		f.Add([]byte(g))
	}

	probes := [][]capture.TLSTransaction{nil}
	for _, s := range sessions[:4] {
		probes = append(probes, s.TLS)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := LoadEstimator(bytes.NewReader(raw))
		if err != nil {
			return
		}
		stride, nc := e.NumFeatures(), e.NumClasses()
		block := make([]float64, 0, len(probes)*stride)
		for _, txns := range probes {
			c, err := e.Classify(txns)
			if err != nil {
				t.Fatalf("Classify on a loaded model: %v", err)
			}
			if c < 0 || c >= qoe.NumCategories {
				t.Fatalf("Classify = %d, not a QoE category", c)
			}
			block = append(block, e.FeatureRow(txns, nil)...)
		}
		out := make([]int, len(probes))
		if err := e.ClassifyBlockInto(block, len(probes), make([]float64, len(probes)*nc), out); err != nil {
			t.Fatalf("ClassifyBlockInto on a loaded model: %v", err)
		}
		for i, c := range out {
			if c < 0 || c >= qoe.NumCategories {
				t.Fatalf("ClassifyBlockInto[%d] = %d, not a QoE category", i, c)
			}
		}
	})
}
