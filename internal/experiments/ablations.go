package experiments

import (
	"fmt"
	"strings"

	"droppackets/internal/dataset"
	"droppackets/internal/features"
	"droppackets/internal/has"
	"droppackets/internal/ml"
	"droppackets/internal/ml/eval"
	"droppackets/internal/ml/forest"
	"droppackets/internal/ml/gbdt"
	"droppackets/internal/ml/knn"
	"droppackets/internal/ml/mlp"
	"droppackets/internal/ml/svm"
	"droppackets/internal/qoe"
	"droppackets/internal/sessionid"
)

// TemporalGridRow is one grid candidate's outcome in the temporal-
// interval ablation (the paper explored alternative grids and kept
// {30..1200}, §3).
type TemporalGridRow struct {
	Label     string
	Intervals []float64
	Metrics   eval.Metrics
}

// AblationTemporalGrid sweeps temporal-interval grids on Svc1 combined
// QoE.
func (s *Suite) AblationTemporalGrid() ([]TemporalGridRow, error) {
	c, err := s.Corpus("Svc1")
	if err != nil {
		return nil, err
	}
	grids := []TemporalGridRow{
		{Label: "none", Intervals: nil},
		{Label: "coarse-2", Intervals: []float64{60, 600}},
		{Label: "uniform-4", Intervals: []float64{300, 600, 900, 1200}},
		{Label: "paper-8", Intervals: features.TemporalIntervals},
		{Label: "dense-12", Intervals: []float64{15, 30, 45, 60, 90, 120, 240, 360, 480, 720, 960, 1200}},
	}
	scratch := features.NewScratch()
	for i := range grids {
		g := &grids[i]
		x := make([][]float64, len(c.Records))
		y := make([]int, len(c.Records))
		for j, rec := range c.Records {
			x[j] = scratch.FromTLSWithIntervals(rec.Capture.TLS, g.Intervals)
			y[j] = rec.QoE.Label(qoe.MetricCombined)
		}
		ds, err := newMLDataset(x, y, nil)
		if err != nil {
			return nil, err
		}
		res, err := s.crossValidate(ds)
		if err != nil {
			return nil, fmt.Errorf("experiments: temporal grid %s: %w", g.Label, err)
		}
		g.Metrics = res.Metrics()
	}
	return grids, nil
}

// FormatTemporalGrid renders the sweep.
func FormatTemporalGrid(rows []TemporalGridRow) string {
	var b strings.Builder
	b.WriteString("Ablation: temporal-interval grid (Svc1, combined QoE)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s (%2d intervals)  A=%3.0f%% R=%3.0f%% P=%3.0f%%\n",
			r.Label, len(r.Intervals), r.Metrics.Accuracy*100, r.Metrics.Recall*100, r.Metrics.Precision*100)
	}
	return b.String()
}

// ForestSizeRow is one ensemble-size candidate.
type ForestSizeRow struct {
	Trees    int
	MaxDepth int
	Metrics  eval.Metrics
}

// AblationForestSize sweeps ensemble size and depth on Svc1 combined
// QoE.
func (s *Suite) AblationForestSize() ([]ForestSizeRow, error) {
	c, err := s.Corpus("Svc1")
	if err != nil {
		return nil, err
	}
	ds, err := c.MLDataset(qoe.MetricCombined)
	if err != nil {
		return nil, err
	}
	var rows []ForestSizeRow
	for _, cand := range []ForestSizeRow{
		{Trees: 5}, {Trees: 25}, {Trees: 100}, {Trees: 200},
		{Trees: 100, MaxDepth: 4}, {Trees: 100, MaxDepth: 8},
	} {
		cfg := forest.Config{NumTrees: cand.Trees, MaxDepth: cand.MaxDepth, MinLeaf: 2, Seed: s.cfg.Seed + 1}
		res, err := eval.CrossValidate(func() ml.Classifier { return forest.New(cfg) }, ds, s.cfg.Folds, s.cfg.Seed+2)
		if err != nil {
			return nil, err
		}
		cand.Metrics = res.Metrics()
		rows = append(rows, cand)
	}
	return rows, nil
}

// FormatForestSize renders the sweep.
func FormatForestSize(rows []ForestSizeRow) string {
	var b strings.Builder
	b.WriteString("Ablation: random-forest size/depth (Svc1, combined QoE)\n")
	for _, r := range rows {
		depth := "inf"
		if r.MaxDepth > 0 {
			depth = fmt.Sprintf("%d", r.MaxDepth)
		}
		fmt.Fprintf(&b, "  trees=%-4d depth=%-4s A=%3.0f%% R=%3.0f%% P=%3.0f%%\n",
			r.Trees, depth, r.Metrics.Accuracy*100, r.Metrics.Recall*100, r.Metrics.Precision*100)
	}
	return b.String()
}

// ModelFamilyRow is one model family's outcome — the paper's "we tested
// SVM, k-NN, XGBoost, Random Forest and MLP; Random Forest won" sweep
// (§4.2).
type ModelFamilyRow struct {
	Model   string
	Metrics eval.Metrics
}

// AblationModelFamily evaluates all five families on Svc1 combined QoE.
func (s *Suite) AblationModelFamily() ([]ModelFamilyRow, error) {
	c, err := s.Corpus("Svc1")
	if err != nil {
		return nil, err
	}
	ds, err := c.MLDataset(qoe.MetricCombined)
	if err != nil {
		return nil, err
	}
	seed := s.cfg.Seed + 1
	factories := []struct {
		name string
		make func() ml.Classifier
	}{
		{"random-forest", func() ml.Classifier { return forest.New(forest.Config{NumTrees: s.cfg.Trees, MinLeaf: 2, Seed: seed}) }},
		{"gbdt", func() ml.Classifier { return gbdt.New(gbdt.Config{Rounds: 40, Seed: seed}) }},
		{"knn", func() ml.Classifier { return knn.New(7) }},
		{"linear-svm", func() ml.Classifier { return svm.New(svm.Config{Seed: seed}) }},
		{"mlp", func() ml.Classifier { return mlp.New(mlp.Config{Seed: seed}) }},
	}
	var rows []ModelFamilyRow
	for _, f := range factories {
		res, err := eval.CrossValidate(f.make, ds, s.cfg.Folds, s.cfg.Seed+2)
		if err != nil {
			return nil, fmt.Errorf("experiments: model %s: %w", f.name, err)
		}
		rows = append(rows, ModelFamilyRow{Model: f.name, Metrics: res.Metrics()})
	}
	return rows, nil
}

// FormatModelFamily renders the sweep.
func FormatModelFamily(rows []ModelFamilyRow) string {
	var b strings.Builder
	b.WriteString("Ablation: model family (Svc1, combined QoE)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s A=%3.0f%% R=%3.0f%% P=%3.0f%%\n",
			r.Model, r.Metrics.Accuracy*100, r.Metrics.Recall*100, r.Metrics.Precision*100)
	}
	return b.String()
}

// SessionIDRow is one threshold combination's session-recovery rate.
type SessionIDRow struct {
	Params          sessionid.Params
	RecoveredFrac   float64
	FalseNewPerSess float64 // spurious new-session flags per true session
}

// AblationSessionIDThresholds sweeps the heuristic's W/Nmin/dmin on
// Svc1 back-to-back chains.
func (s *Suite) AblationSessionIDThresholds() ([]SessionIDRow, error) {
	c, err := s.Corpus("Svc1")
	if err != nil {
		return nil, err
	}
	const perChain = 8
	var rows []SessionIDRow
	for _, w := range []float64{1, 3, 5} {
		for _, nmin := range []int{1, 2, 3} {
			for _, dmin := range []float64{0.3, 0.5, 0.7} {
				p := sessionid.Params{WindowSec: w, MinCount: nmin, MinNewFrac: dmin}
				var correct, total, falseNew int
				for start := 0; start+perChain <= len(c.Records); start += perChain {
					stream, _ := sessionid.Concat(dataset.Chain(c.Records[start : start+perChain]))
					cr, tt := sessionid.SessionsRecovered(stream, p)
					correct += cr
					total += tt
					pred := sessionid.Detect(stream, p)
					for i, t := range stream {
						if pred[i] && !t.First {
							falseNew++
						}
					}
				}
				if total == 0 {
					continue
				}
				rows = append(rows, SessionIDRow{
					Params:          p,
					RecoveredFrac:   float64(correct) / float64(total),
					FalseNewPerSess: float64(falseNew) / float64(total),
				})
			}
		}
	}
	return rows, nil
}

// FormatSessionID renders the sweep.
func FormatSessionID(rows []SessionIDRow) string {
	var b strings.Builder
	b.WriteString("Ablation: session-identification thresholds (Svc1, chains of 8)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  W=%gs Nmin=%d dmin=%.1f  recovered=%5.1f%% falseNew/session=%.2f\n",
			r.Params.WindowSec, r.Params.MinCount, r.Params.MinNewFrac,
			r.RecoveredFrac*100, r.FalseNewPerSess)
	}
	return b.String()
}

// ConnReuseRow is one idle-timeout candidate in the connection-reuse
// ablation: the timeout controls how many HTTP transactions collapse
// into each TLS transaction, i.e. how coarse the proxy data is.
type ConnReuseRow struct {
	IdleTimeoutSec float64
	HTTPPerTLS     float64
	TLSPerSession  float64
	Metrics        eval.Metrics
}

// AblationConnReuse rebuilds a small Svc1 corpus under different CDN
// idle timeouts and measures both the coarseness factor and the
// resulting classification quality.
func (s *Suite) AblationConnReuse() ([]ConnReuseRow, error) {
	sessions := s.cfg.Sessions
	if sessions <= 0 || sessions > 600 {
		sessions = 600
	}
	var rows []ConnReuseRow
	for _, timeout := range []float64{4, 10, 18, 40, 90} {
		p := has.Svc1()
		p.ConnIdleTimeoutSec = timeout
		c, err := dataset.Build(dataset.Config{Seed: s.cfg.Seed, Sessions: sessions}, p)
		if err != nil {
			return nil, fmt.Errorf("experiments: conn-reuse timeout %g: %w", timeout, err)
		}
		ds, err := c.MLDataset(qoe.MetricCombined)
		if err != nil {
			return nil, err
		}
		res, err := s.crossValidate(ds)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ConnReuseRow{
			IdleTimeoutSec: timeout,
			HTTPPerTLS:     c.MeanHTTPPerTLS(),
			TLSPerSession:  c.MeanTLSPerSession(),
			Metrics:        res.Metrics(),
		})
	}
	return rows, nil
}

// FormatConnReuse renders the sweep.
func FormatConnReuse(rows []ConnReuseRow) string {
	var b strings.Builder
	b.WriteString("Ablation: CDN idle timeout vs coarseness and accuracy (Svc1, combined QoE)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  idle=%3.0fs  HTTP/TLS=%5.1f TLS/session=%5.1f  A=%3.0f%% R=%3.0f%%\n",
			r.IdleTimeoutSec, r.HTTPPerTLS, r.TLSPerSession,
			r.Metrics.Accuracy*100, r.Metrics.Recall*100)
	}
	return b.String()
}

// ABRDesignRow is one ABR algorithm's outcome when substituted into
// the Svc1 profile: the ground-truth QoE mix it produces and how well
// the TLS features classify it.
type ABRDesignRow struct {
	ABR string
	// CombinedShares is the low/med/high combined-QoE split.
	CombinedShares []float64
	Metrics        eval.Metrics
}

// AblationABRDesign swaps Svc1's adaptation algorithm across the four
// implemented designs (the paper's §4.3 point that inference quality
// depends on streaming-application design, made concrete): each ABR
// reshapes both the QoE distribution and the classifier's accuracy.
func (s *Suite) AblationABRDesign() ([]ABRDesignRow, error) {
	sessions := s.cfg.Sessions
	if sessions <= 0 || sessions > 600 {
		sessions = 600
	}
	abrs := []has.ABR{
		&has.BufferFillerABR{Safety: 0.9, FillTargetSec: 20, FillSafety: 0.7},
		&has.QualityKeeperABR{Optimism: 1.0, PanicBufferSec: 8, UpBufferSec: 10},
		&has.HybridABR{Safety: 0.9, LowBufferSec: 10, HighBufferSec: 20},
		&has.BBAABR{ReservoirSec: 20, CushionSec: 100},
		&has.MPCABR{},
	}
	var rows []ABRDesignRow
	for _, abr := range abrs {
		p := has.Svc1()
		p.ABR = abr
		c, err := dataset.Build(dataset.Config{Seed: s.cfg.Seed, Sessions: sessions}, p)
		if err != nil {
			return nil, fmt.Errorf("experiments: abr %s: %w", abr.Name(), err)
		}
		ds, err := c.MLDataset(qoe.MetricCombined)
		if err != nil {
			return nil, err
		}
		res, err := s.crossValidate(ds)
		if err != nil {
			return nil, err
		}
		counts := c.LabelDistribution(qoe.MetricCombined)
		shares := make([]float64, len(counts))
		for i, n := range counts {
			shares[i] = float64(n) / float64(len(c.Records))
		}
		rows = append(rows, ABRDesignRow{ABR: abr.Name(), CombinedShares: shares, Metrics: res.Metrics()})
	}
	return rows, nil
}

// FormatABRDesign renders the sweep.
func FormatABRDesign(rows []ABRDesignRow) string {
	var b strings.Builder
	b.WriteString("Ablation: ABR design under the Svc1 profile (combined QoE)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s low=%4.1f%% med=%4.1f%% high=%4.1f%%  A=%3.0f%% R=%3.0f%%\n",
			r.ABR, r.CombinedShares[0]*100, r.CombinedShares[1]*100, r.CombinedShares[2]*100,
			r.Metrics.Accuracy*100, r.Metrics.Recall*100)
	}
	return b.String()
}
