// Package experiments regenerates every table and figure of the
// paper's evaluation (§4) from simulated corpora: Figures 2–7 and
// Tables 2–5, plus ablation studies over the design choices DESIGN.md
// calls out. It is the engine behind cmd/qoebench and the benchmark
// harness in bench_test.go.
package experiments

import (
	"sync"

	"droppackets/internal/capture"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml"
	"droppackets/internal/ml/eval"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
)

// Config scopes a suite run.
type Config struct {
	// Seed drives all corpus generation and model training.
	Seed int64
	// Sessions overrides the per-service corpus size (0 = the paper's
	// 2111/2216/1440).
	Sessions int
	// Folds is the cross-validation fold count (default 5, as in §4.2).
	Folds int
	// Trees is the Random Forest size (default 100).
	Trees int
}

func (c Config) withDefaults() Config {
	if c.Folds <= 0 {
		c.Folds = 5
	}
	if c.Trees <= 0 {
		c.Trees = 100
	}
	return c
}

// Suite lazily builds and caches per-service corpora and exposes one
// method per experiment.
type Suite struct {
	cfg Config

	mu      sync.Mutex
	corpora map[string]*dataset.Corpus // keyed by service name
}

// NewSuite creates a suite for the given configuration.
func NewSuite(cfg Config) *Suite {
	return &Suite{cfg: cfg.withDefaults(), corpora: map[string]*dataset.Corpus{}}
}

// Config returns the effective (defaulted) configuration.
func (s *Suite) Config() Config { return s.cfg }

// Corpus returns the (cached) corpus of one service, building it with
// packet detail retained so every experiment — including Table 4 — can
// run from the same data.
func (s *Suite) Corpus(svc string) (*dataset.Corpus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.corpora[svc]; ok {
		return c, nil
	}
	p, err := has.Profile(svc)
	if err != nil {
		return nil, err
	}
	c, err := dataset.Build(dataset.Config{
		Seed:             s.cfg.Seed,
		Sessions:         s.cfg.Sessions,
		KeepPacketDetail: true,
	}, p)
	if err != nil {
		return nil, err
	}
	s.corpora[svc] = c
	return c, nil
}

// Services lists the evaluated services in paper order.
func Services() []string { return []string{"Svc1", "Svc2", "Svc3"} }

// forestConfig is the forest used everywhere, seeded from the suite.
func (s *Suite) forestConfig() forest.Config {
	return forest.Config{NumTrees: s.cfg.Trees, MinLeaf: 2, Seed: s.cfg.Seed + 1}
}

// crossValidate runs the paper's CV protocol on a dataset with the
// suite's forest.
func (s *Suite) crossValidate(ds *ml.Dataset) (*eval.CVResult, error) {
	cfg := s.forestConfig()
	return eval.CrossValidate(func() ml.Classifier { return forest.New(cfg) }, ds, s.cfg.Folds, s.cfg.Seed+2)
}

// newForestClassifier builds one forest with the given config (helper
// for non-CV evaluations).
func newForestClassifier(cfg forest.Config) *forest.Classifier { return forest.New(cfg) }

// tlsSessions extracts the raw TLS transaction lists of a corpus.
func tlsSessions(c *dataset.Corpus) [][]capture.TLSTransaction {
	out := make([][]capture.TLSTransaction, len(c.Records))
	for i, r := range c.Records {
		out[i] = r.Capture.TLS
	}
	return out
}

// metricList is the Figure 5 metric order.
var metricList = []qoe.MetricKind{qoe.MetricRebuffer, qoe.MetricQuality, qoe.MetricCombined}
