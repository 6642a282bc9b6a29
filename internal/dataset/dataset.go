// Package dataset is the stand-in for the paper's data-collection
// framework (§4.1): where the authors streamed real sessions in an
// automated browser under emulated network conditions, this package
// drives the full simulation pipeline — bandwidth trace → link → HAS
// player → proxy capture — to produce labeled corpora for the three
// services, with the paper's session counts by default (Svc1: 2111,
// Svc2: 2216, Svc3: 1440).
//
// Sessions with the same index share the same bandwidth trace across
// services, mirroring the paper's "sessions streamed under similar
// network conditions" comparison (Figure 4).
package dataset

import (
	"fmt"
	"runtime"
	"sync"

	"droppackets/internal/capture"
	"droppackets/internal/features"
	"droppackets/internal/has"
	"droppackets/internal/ml"
	"droppackets/internal/netem"
	"droppackets/internal/qoe"
	"droppackets/internal/stats"
	"droppackets/internal/trace"
)

// PaperSessionCounts are the per-service corpus sizes from §4.1.
var PaperSessionCounts = map[string]int{"Svc1": 2111, "Svc2": 2216, "Svc3": 1440}

// MaxPaperSessions returns the largest per-service corpus size, which
// is also the number of distinct bandwidth traces the corpora draw on
// (sessions with equal indices share traces across services).
func MaxPaperSessions() int {
	max := 0
	for _, n := range PaperSessionCounts {
		if n > max {
			max = n
		}
	}
	return max
}

// Config controls corpus generation.
type Config struct {
	// Seed makes the corpus deterministic. Trace generation derives from
	// Seed alone (shared across services); per-session player and
	// capture randomness additionally mixes in the service name.
	Seed int64
	// Sessions overrides the per-service session count when > 0.
	Sessions int
	// KeepPacketDetail retains per-transfer detail so packet traces can
	// be synthesised later (needed for the Table 4 comparison; costs
	// memory).
	KeepPacketDetail bool
	// Workers bounds generation parallelism; <= 0 uses GOMAXPROCS.
	Workers int
	// Interactions, when non-nil, adds simulated user behaviour
	// (pauses, seeks) to every session — the §4.3 future-work scenario.
	Interactions *has.Interactions
}

// Record is one labeled session.
type Record struct {
	Capture     *capture.SessionCapture
	TLSFeatures []float64
	QoE         qoe.Session
	TraceClass  trace.Class
	AvgLinkKbps float64
	DurationSec float64
}

// Corpus is a labeled per-service dataset.
type Corpus struct {
	Service string
	Profile *has.ServiceProfile
	Records []Record
}

// Chain returns the records' TLS transactions and durations: the
// arguments sessionid.Concat splices into the stream of one viewer who
// watches the records back to back.
func Chain(records []Record) (lists [][]capture.TLSTransaction, durations []float64) {
	lists = make([][]capture.TLSTransaction, len(records))
	durations = make([]float64, len(records))
	for i, r := range records {
		lists[i], durations[i] = r.Capture.TLS, r.DurationSec
	}
	return lists, durations
}

// serviceStream gives each service a disjoint deterministic RNG stream
// space for player/capture randomness while traces stay shared.
func serviceStream(svc string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range svc {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h
}

// GenerateSession runs the full pipeline for one session index and
// returns its record. It is deterministic in (cfg.Seed, profile, idx).
func GenerateSession(cfg Config, p *has.ServiceProfile, idx int) (Record, error) {
	// Trace: shared across services for the same index.
	traceRNG := stats.SplitRNG(cfg.Seed, int64(idx))
	class := sampleClass(traceRNG)
	duration := trace.SampleDuration(traceRNG, trace.PaperDurationMix)
	tr := trace.Generate(trace.GenConfig{Seed: cfg.Seed}, class, duration, idx)

	// Per-service randomness for link jitter, player and capture.
	rng := stats.SplitRNG(cfg.Seed^serviceStream(p.Name), int64(idx))
	link := netem.NewLink(tr, rng)
	res, err := has.SimulateWithInteractions(p, link, duration, rng, cfg.Interactions)
	if err != nil {
		return Record{}, fmt.Errorf("dataset: session %d: %w", idx, err)
	}
	sc := capture.Build(p.Name, idx, p, res, rng)
	rec := Record{
		Capture: sc,
		// FromTLS extracts through the features package's scratch pool,
		// so Build's goroutine-per-session fan-out shares buffers
		// instead of allocating per record.
		TLSFeatures: features.FromTLS(sc.TLS),
		QoE:         res.QoE,
		TraceClass:  class,
		AvgLinkKbps: tr.AverageKbps(),
		DurationSec: duration,
	}
	if !cfg.KeepPacketDetail {
		sc.DropPacketDetail()
	}
	return rec, nil
}

func sampleClass(rng interface{ Float64() float64 }) trace.Class {
	mix := trace.DefaultClassMix
	u := rng.Float64() * (mix.Broadband + mix.ThreeG + mix.LTE)
	switch {
	case u < mix.Broadband:
		return trace.Broadband
	case u < mix.Broadband+mix.ThreeG:
		return trace.ThreeG
	default:
		return trace.LTE
	}
}

// Build generates the corpus for one service profile.
func Build(cfg Config, p *has.ServiceProfile) (*Corpus, error) {
	n := cfg.Sessions
	if n <= 0 {
		n = PaperSessionCounts[p.Name]
		if n <= 0 {
			n = 500
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	records := make([]Record, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(idx int) {
			defer wg.Done()
			defer func() { <-sem }()
			records[idx], errs[idx] = GenerateSession(cfg, p, idx)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Corpus{Service: p.Name, Profile: p, Records: records}, nil
}

// BuildAll generates all three paper corpora.
func BuildAll(cfg Config) ([]*Corpus, error) {
	var out []*Corpus
	for _, p := range has.Profiles() {
		c, err := Build(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("dataset: %s: %w", p.Name, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// MLDataset assembles the TLS-feature design matrix labeled with the
// chosen QoE metric.
func (c *Corpus) MLDataset(metric qoe.MetricKind) (*ml.Dataset, error) {
	x := make([][]float64, len(c.Records))
	y := make([]int, len(c.Records))
	for i, r := range c.Records {
		x[i] = r.TLSFeatures
		y[i] = r.QoE.Label(metric)
	}
	return ml.NewDataset(x, y, qoe.NumCategories, features.TLSNames)
}

// PacketMLDataset assembles the ML16 packet-feature design matrix.
// Packet traces are synthesised per session and discarded immediately,
// so memory stays bounded; the corpus must have been built with
// KeepPacketDetail.
func (c *Corpus) PacketMLDataset(metric qoe.MetricKind, seed int64) (*ml.Dataset, error) {
	x := make([][]float64, len(c.Records))
	y := make([]int, len(c.Records))
	for i, r := range c.Records {
		pkts, err := r.Capture.Packetize(stats.SplitRNG(seed, int64(i)))
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		x[i] = features.FromPackets(pkts)
		y[i] = r.QoE.Label(metric)
	}
	return ml.NewDataset(x, y, qoe.NumCategories, features.ML16Names)
}

// LabelDistribution tallies the corpus ground truth for one metric
// (Figure 4): counts[class] over the corpus.
func (c *Corpus) LabelDistribution(metric qoe.MetricKind) []int {
	counts := make([]int, qoe.NumCategories)
	for _, r := range c.Records {
		counts[r.QoE.Label(metric)]++
	}
	return counts
}

// MeanTLSPerSession returns the average number of TLS transactions per
// session, and MeanHTTPPerTLS the corpus-wide coarse-graining factor
// (Figure 2's 12.1 on Svc1; Table 4's 19.5 TLS transactions).
func (c *Corpus) MeanTLSPerSession() float64 {
	if len(c.Records) == 0 {
		return 0
	}
	total := 0
	for _, r := range c.Records {
		total += len(r.Capture.TLS)
	}
	return float64(total) / float64(len(c.Records))
}

// MeanHTTPPerTLS returns the corpus-wide mean of HTTP transactions per
// TLS transaction.
func (c *Corpus) MeanHTTPPerTLS() float64 {
	var http, tls int
	for _, r := range c.Records {
		http += len(r.Capture.HTTP)
		tls += len(r.Capture.TLS)
	}
	if tls == 0 {
		return 0
	}
	return float64(http) / float64(tls)
}

// MeanPacketsPerSession returns the average synthetic packet count per
// session (Table 4's 27,689 on Svc1). Requires packet detail.
func (c *Corpus) MeanPacketsPerSession() float64 {
	if len(c.Records) == 0 {
		return 0
	}
	total := 0
	for _, r := range c.Records {
		total += r.Capture.PacketCount()
	}
	return float64(total) / float64(len(c.Records))
}
