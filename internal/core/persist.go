package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"droppackets/internal/features"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
)

// savedEstimator is the on-disk estimator layout. Version 2 added the
// optional training-corpus feature baseline; version-1 files (no
// baseline) still load.
type savedEstimator struct {
	Version  int             `json:"version"`
	Metric   int             `json:"metric"`
	Subset   int             `json:"subset"`
	Model    json.RawMessage `json:"model"`
	Baseline *savedBaseline  `json:"baseline,omitempty"`
}

// savedBaseline is the per-feature training-distribution block: the
// population mean and standard deviation of each subset-space feature
// column of the training corpus, index-aligned with the subset's
// feature names. Serving processes compare live traffic against it to
// expose drift z-scores.
type savedBaseline struct {
	Means []float64 `json:"means"`
	Stds  []float64 `json:"stds"`
}

const estimatorVersion = 2

// Save serialises the trained estimator (metric, feature subset and
// forest) as JSON, so a model trained once can classify in later
// processes without retraining.
func (e *Estimator) Save(w io.Writer) error {
	if !e.trained {
		return fmt.Errorf("core: save before Train")
	}
	var buf bytes.Buffer
	if err := e.model.Save(&buf); err != nil {
		return err
	}
	out := savedEstimator{
		Version: estimatorVersion,
		Metric:  int(e.cfg.Metric),
		Subset:  int(e.cfg.Subset),
		Model:   json.RawMessage(buf.Bytes()),
	}
	if len(e.baseMean) > 0 {
		out.Baseline = &savedBaseline{Means: e.baseMean, Stds: e.baseStd}
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("core: encoding estimator: %w", err)
	}
	return nil
}

// LoadEstimator reads an estimator saved by Save. Version-1 files
// (written before the baseline block existed) load with no baseline;
// anything newer than the current version is rejected.
func LoadEstimator(r io.Reader) (*Estimator, error) {
	var in savedEstimator
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding estimator: %w", err)
	}
	if in.Version < 1 || in.Version > estimatorVersion {
		return nil, fmt.Errorf("core: estimator version %d, want 1..%d", in.Version, estimatorVersion)
	}
	subset := features.Subset(in.Subset)
	switch subset {
	case features.SessionLevelOnly, features.WithTransactionStats, features.AllFeatures:
	default:
		return nil, fmt.Errorf("core: invalid feature subset %d", in.Subset)
	}
	metric := qoe.MetricKind(in.Metric)
	if metric < qoe.MetricRebuffer || metric > qoe.MetricCombined {
		return nil, fmt.Errorf("core: invalid metric %d", in.Metric)
	}
	model, err := forest.Load(bytes.NewReader(in.Model))
	if err != nil {
		return nil, err
	}
	if nc := model.NumClasses(); nc != qoe.NumCategories {
		return nil, fmt.Errorf("core: model has %d classes, want %d", nc, qoe.NumCategories)
	}
	e := NewEstimator(Config{Metric: metric, Subset: subset})
	e.model = model
	for ti := 0; ti < model.NumTrees(); ti++ {
		for node, f := range model.Tree(ti).FlatView().Feature {
			if int(f) >= len(e.cols) {
				return nil, fmt.Errorf("core: tree %d node %d splits on feature %d, subset has %d", ti, node, f, len(e.cols))
			}
		}
	}
	if b := in.Baseline; b != nil {
		if len(b.Means) != len(e.cols) || len(b.Stds) != len(e.cols) {
			return nil, fmt.Errorf("core: baseline has %d/%d features, subset has %d",
				len(b.Means), len(b.Stds), len(e.cols))
		}
		e.baseMean, e.baseStd = b.Means, b.Stds
	}
	// Compile for serving: a structurally corrupt model file fails here
	// or above, at load time, instead of panicking inside the classify
	// loop.
	if err := e.compile(); err != nil {
		return nil, err
	}
	e.trained = true
	return e, nil
}
