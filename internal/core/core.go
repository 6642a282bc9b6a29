// Package core is the paper's primary contribution as a library: QoE
// estimation from coarse-grained TLS-transaction data (§3). An
// Estimator trains a Random Forest over the 38 TLS features and
// classifies sessions into low/medium/high QoE; and a PacketEstimator
// is the fine-grained ML16 baseline (§4.2) it is compared against.
package core

import (
	"fmt"

	"droppackets/internal/capture"
	"droppackets/internal/features"
	"droppackets/internal/ml"
	"droppackets/internal/ml/compiled"
	"droppackets/internal/ml/eval"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/sessionid"
	"droppackets/internal/stats"
)

// ClassNames returns the display names of the three classes of a
// metric, index-aligned with labels (class 0 is always the problem
// class).
func ClassNames(m qoe.MetricKind) []string {
	if m == qoe.MetricRebuffer {
		return []string{"high", "mild", "zero"}
	}
	return []string{"low", "med", "high"}
}

// Config parameterises an Estimator.
type Config struct {
	// Metric is the QoE target (default: combined QoE, the paper's
	// headline metric).
	Metric qoe.MetricKind
	// Subset selects the Table 3 feature set (default: all 38).
	Subset features.Subset
	// Forest configures the Random Forest.
	Forest forest.Config
}

func (c Config) withDefaults() Config {
	if c.Subset == 0 {
		c.Subset = features.AllFeatures
	}
	return c
}

// TrainingSession pairs one session's TLS transactions with its
// ground-truth QoE (labels from the player, §4.1).
type TrainingSession struct {
	TLS []capture.TLSTransaction
	QoE qoe.Session
}

// Estimator classifies per-session QoE from TLS transactions.
type Estimator struct {
	cfg     Config
	cols    []int
	model   *forest.Classifier
	trained bool

	// scorer is the model compiled into one branch-free batch layout
	// (internal/ml/compiled): every classify path scores a row-major
	// block through it — Classify and ClassifyProba a one-row block —
	// bit-identical to the interpreted forest on finite rows. Rebuilt by
	// Train and LoadEstimator; the interpreted model is kept for Save,
	// Importances and as the tests' oracle.
	scorer *compiled.Forest

	// rb serves FeatureRow calls on the estimator itself; concurrent
	// callers create their own builder via NewRowBuilder (tracked.go).
	rb *RowBuilder

	// baseMean/baseStd are the training corpus's per-feature population
	// mean and standard deviation in subset space, captured by Train and
	// carried in the saved envelope (version 2) so a serving process can
	// compare live traffic against the distribution the model was fitted
	// on without access to the corpus. Empty on models loaded from a
	// version-1 file.
	baseMean, baseStd []float64
}

// NewEstimator returns an untrained estimator.
func NewEstimator(cfg Config) *Estimator {
	cfg = cfg.withDefaults()
	return &Estimator{cfg: cfg, cols: features.SubsetIndices(cfg.Subset)}
}

// featuresFor extracts and projects the configured feature subset.
func (e *Estimator) featuresFor(txns []capture.TLSTransaction) []float64 {
	full := features.FromTLS(txns)
	out := make([]float64, len(e.cols))
	for i, c := range e.cols {
		out[i] = full[c]
	}
	return out
}

// dataset assembles the ml.Dataset for the configured metric/subset.
func (e *Estimator) dataset(sessions []TrainingSession) (*ml.Dataset, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("core: no training sessions")
	}
	x := make([][]float64, len(sessions))
	y := make([]int, len(sessions))
	for i, s := range sessions {
		x[i] = e.featuresFor(s.TLS)
		y[i] = s.QoE.Label(e.cfg.Metric)
	}
	names := make([]string, len(e.cols))
	for i, c := range e.cols {
		names[i] = features.TLSNames[c]
	}
	return ml.NewDataset(x, y, qoe.NumCategories, names)
}

// Train fits the estimator on labeled sessions and compiles the fitted
// forest for serving.
func (e *Estimator) Train(sessions []TrainingSession) error {
	ds, err := e.dataset(sessions)
	if err != nil {
		return err
	}
	e.model = forest.New(e.cfg.Forest)
	if err := e.model.Fit(ds); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := e.compile(); err != nil {
		return err
	}
	e.baseMean, e.baseStd = columnStats(ds.X, len(e.cols))
	e.trained = true
	return nil
}

// columnStats computes the per-column population mean and standard
// deviation of a feature matrix.
func columnStats(x [][]float64, cols int) (means, stds []float64) {
	accs := make([]stats.Running, cols)
	for _, row := range x {
		for j := range row {
			accs[j].Observe(row[j])
		}
	}
	means = make([]float64, cols)
	stds = make([]float64, cols)
	for j := range accs {
		means[j] = accs[j].Mean()
		stds[j] = accs[j].StdDev()
	}
	return means, stds
}

// Baseline returns copies of the training corpus's per-feature mean and
// standard deviation in subset space (index-aligned with FeatureNames),
// or nil slices when the estimator carries no baseline — untrained, or
// loaded from a pre-baseline (version 1) file.
func (e *Estimator) Baseline() (means, stds []float64) {
	if len(e.baseMean) == 0 {
		return nil, nil
	}
	means = append([]float64(nil), e.baseMean...)
	stds = append([]float64(nil), e.baseStd...)
	return means, stds
}

// FeatureNames returns the display names of the estimator's feature
// subset, index-aligned with classify rows and with Baseline.
func (e *Estimator) FeatureNames() []string {
	names := make([]string, len(e.cols))
	for i, c := range e.cols {
		names[i] = features.TLSNames[c]
	}
	return names
}

// Subset returns the estimator's configured feature subset.
func (e *Estimator) Subset() features.Subset { return e.cfg.Subset }

// compile flattens the fitted forest into the serving scorer.
func (e *Estimator) compile() error {
	scorer, err := compiled.CompileForest(e.model)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	e.scorer = scorer
	return nil
}

// Classify predicts the QoE class (0 = problem class) of a session from
// its TLS transactions.
func (e *Estimator) Classify(txns []capture.TLSTransaction) (int, error) {
	probs, err := e.ClassifyProba(txns)
	if err != nil {
		return 0, err
	}
	return ml.Argmax(probs), nil
}

// ClassifyProba returns per-class probabilities for a session, scored
// as a one-row block through the compiled scorer.
func (e *Estimator) ClassifyProba(txns []capture.TLSTransaction) ([]float64, error) {
	if !e.trained {
		return nil, fmt.Errorf("core: estimator not trained")
	}
	probs := make([]float64, e.scorer.NumClasses())
	e.scorer.PredictProbaBatchInto(e.featuresFor(txns), len(e.cols), probs)
	return probs, nil
}

// Verdict is one session's predicted class (0 = problem class) and its
// per-class probabilities.
type Verdict struct {
	Class int
	Probs []float64
}

// ClassifySessions scores sessions (sessionid.Split's, or known ones):
// one feature row per session's Txns, all rows in one ClassifyBlockInto
// call. Verdicts are in session order, bit-identical to ClassifyProba.
func (e *Estimator) ClassifySessions(sessions []sessionid.Session) ([]Verdict, error) {
	n, stride, nc := len(sessions), e.NumFeatures(), e.NumClasses()
	block := make([]float64, n*stride)
	rb := e.NewRowBuilder()
	for i, s := range sessions {
		rb.FeatureRow(s.Txns, block[i*stride:(i+1)*stride])
	}
	probs := make([]float64, n*nc)
	classes := make([]int, n)
	if err := e.ClassifyBlockInto(block, n, probs, classes); err != nil {
		return nil, err
	}
	out := make([]Verdict, n)
	for i := range out {
		out[i] = Verdict{Class: classes[i], Probs: probs[i*nc : (i+1)*nc : (i+1)*nc]}
	}
	return out, nil
}

// Importances returns the trained model's feature importances paired
// with feature names (Figure 6).
func (e *Estimator) Importances(topK int) ([]forest.Importance, error) {
	if !e.trained {
		return nil, fmt.Errorf("core: estimator not trained")
	}
	names := make([]string, len(e.cols))
	for i, c := range e.cols {
		names[i] = features.TLSNames[c]
	}
	return e.model.TopImportances(names, topK), nil
}

// CrossValidate runs the paper's 5-fold stratified protocol on the
// sessions and returns pooled results (Figure 5, Tables 2–3).
func (e *Estimator) CrossValidate(sessions []TrainingSession, folds int, seed int64) (*eval.CVResult, error) {
	ds, err := e.dataset(sessions)
	if err != nil {
		return nil, err
	}
	cfg := e.cfg.Forest
	return eval.CrossValidate(func() ml.Classifier { return forest.New(cfg) }, ds, folds, seed)
}

// Metric returns the estimator's target metric.
func (e *Estimator) Metric() qoe.MetricKind { return e.cfg.Metric }

// PacketEstimator is the ML16 baseline: the same protocol over
// fine-grained packet-trace features.
type PacketEstimator struct {
	Metric qoe.MetricKind
	Forest forest.Config

	model   *forest.Classifier
	trained bool
}

// PacketTrainingSession pairs a packet trace with ground truth.
type PacketTrainingSession struct {
	Packets []capture.Packet
	QoE     qoe.Session
}

func (p *PacketEstimator) dataset(sessions []PacketTrainingSession) (*ml.Dataset, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("core: no training sessions")
	}
	x := make([][]float64, len(sessions))
	y := make([]int, len(sessions))
	for i, s := range sessions {
		x[i] = features.FromPackets(s.Packets)
		y[i] = s.QoE.Label(p.Metric)
	}
	return ml.NewDataset(x, y, qoe.NumCategories, features.ML16Names)
}

// Train fits the baseline.
func (p *PacketEstimator) Train(sessions []PacketTrainingSession) error {
	ds, err := p.dataset(sessions)
	if err != nil {
		return err
	}
	p.model = forest.New(p.Forest)
	if err := p.model.Fit(ds); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	p.trained = true
	return nil
}

// Classify predicts the QoE class from a packet trace.
func (p *PacketEstimator) Classify(pkts []capture.Packet) (int, error) {
	if !p.trained {
		return 0, fmt.Errorf("core: packet estimator not trained")
	}
	return p.model.Predict(features.FromPackets(pkts)), nil
}
