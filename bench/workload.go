package main

import (
	"bufio"
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

const (
	// poolSessions is the per-profile size of the session pool every
	// workload deals from; the model trains on all 3 x poolSessions.
	poolSessions = 120
	// modelTrees is qoeinfer's default forest size, so ml/compiled does
	// the work a deployed model would.
	modelTrees = 100
	// paceCompress is how many event seconds squid_tail_paced plays per
	// wall second: 1 wall s = 6 event min, so the daemon's 5 m reorder
	// horizon is 0.83 s of wall time, its 1 h client TTL 10 s, and a
	// 500 ms tick spans 180 event seconds — inside the 4 m window.
	paceCompress = 360.0
	// paceRate is the offered load of squid_tail_paced at -scale 1.
	paceRate = 50000.0
	// paceSlice is the generator's write granularity.
	paceSlice = 5 * time.Millisecond
	// traceRecords caps how much of a workload the traced run replays.
	traceRecords = 1_000_000
)

// record is one connection of a generated workload, times in event
// seconds from the workload's start.
type record = tlsproxy.ReplayRecord

// workload describes one benchmark workload: what it feeds the daemon,
// with which flags, and why it exists.
type workload struct {
	name string
	why  string
	// source is the daemon's -source; flags are the per-workload flags
	// added to the common set. Nothing else about the daemon varies.
	source string
	flags  []string
	// paced marks the open-loop live-tail workload; the others hand the
	// daemon a complete file.
	paced bool
	// windowed marks workloads that leave -window at its default, so the
	// daemon builds rows with features.Scratch instead of the
	// incremental accumulator.
	windowed bool
	// tickRecords is how many records the seed-commit daemon ingests
	// between two classify ticks on this workload; the traced run, which
	// has no wall clock, ticks on this count instead.
	tickRecords int
	generate    func(p *pool, rng *rand.Rand, seconds int, scale float64) []record
}

// workloads is the benchmark, in the order BENCHMARK.json lists it.
var workloads = []*workload{
	{
		name:   "squid_backlog",
		why:    "few long-lived clients, many sessions each: parse, intern hits, reorder heap, sessionizer and accumulator updates dominate; about 0.03 classifications per record",
		source: "squid",
		flags:  []string{"-follow=false", "-ingest-epoch", "0", "-classify-every", "1s", "-window", "0"},
		// 4,000 clients playing back-to-back sessions for the whole run.
		tickRecords: 140_000,
		generate: func(p *pool, rng *rand.Rand, seconds int, scale float64) []record {
			return backToBack(p, rng, scaled(4000, scale), p.sessionsFor(35*seconds), 30)
		},
	},
	{
		name:   "replay_resident",
		why:    "parse-free replay CSV with every client resident throughout: row build, batched forest inference and per-client log lines dominate; a parser change must not move it",
		source: "replay",
		flags:  []string{"-classify-every", "500ms", "-window", "0"},
		// 40,000 resident clients are re-scored on every tick.
		tickRecords: 45_000,
		generate: func(p *pool, rng *rand.Rand, seconds int, scale float64) []record {
			return backToBack(p, rng, scaled(40000, scale), p.sessionsFor(2*seconds), 180)
		},
	},
	{
		name:   "squid_churn",
		why:    "one-session clients arriving and expiring: the same commit path as squid_backlog used for insert and evict, so intern misses, client-state allocation, the eviction sweep and GC dominate",
		source: "squid",
		flags:  []string{"-follow=false", "-ingest-epoch", "0", "-classify-every", "500ms", "-window", "0"},
		// 10,000 clients arrive per event hour, so with the default 1 h
		// -client-ttl about that many are resident at any time.
		tickRecords: 62_000,
		generate: func(p *pool, rng *rand.Rand, seconds int, scale float64) []record {
			clients := scaled(int(127500*float64(seconds)/p.meanRecords), scale)
			span := 3600 * float64(clients) / (10000 * scale)
			return oneSession(p, rng, clients, span, math.Inf(1))
		},
	},
	{
		name:     "squid_tail_paced",
		why:      "open loop at a fixed rate into a live-tailed log with every default left on: tail poll, reorder horizon and the windowed row builder, under a schedule that does not slow when the daemon does",
		source:   "squid",
		flags:    []string{"-ingest-epoch", "0", "-classify-every", "500ms"},
		paced:    true,
		windowed: true,
		// 50,000 records/s x 500 ms.
		tickRecords: 25_000,
		generate: func(p *pool, rng *rand.Rand, seconds int, scale float64) []record {
			span := float64(seconds) * paceCompress
			clients := int(paceRate * scale * float64(seconds) / p.meanRecords)
			if clients < 1 {
				clients = 1
			}
			return oneSession(p, rng, clients, span, span)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled applies -scale to a client count, keeping at least one.
func scaled(n int, scale float64) int {
	if m := int(math.Round(float64(n) * scale)); m > 1 {
		return m
	}
	return 1
}

// pool is the simulated-session corpus behind every workload and the
// model's training set.
type pool struct {
	corpora []*dataset.Corpus
	// meanRecords is the mean TLS transactions per pooled session.
	meanRecords float64
}

// buildPool simulates poolSessions sessions per service profile.
func buildPool(seed int64) (*pool, error) {
	p := &pool{}
	var sessions, records int
	for _, prof := range []*has.ServiceProfile{has.Svc1(), has.Svc2(), has.Svc3()} {
		c, err := dataset.Build(dataset.Config{Seed: seed, Sessions: poolSessions}, prof)
		if err != nil {
			return nil, fmt.Errorf("building %s pool: %w", prof.Name, err)
		}
		for _, r := range c.Records {
			sessions++
			records += len(r.Capture.TLS)
		}
		p.corpora = append(p.corpora, c)
	}
	if records == 0 {
		return nil, fmt.Errorf("session pool is empty")
	}
	p.meanRecords = float64(records) / float64(sessions)
	return p, nil
}

// deal picks the session client i plays next: profiles alternate by
// client, the session within the profile is drawn from rng.
func (p *pool) deal(i int, rng *rand.Rand) dataset.Record {
	c := p.corpora[i%len(p.corpora)]
	return c.Records[rng.Intn(len(c.Records))]
}

// trainModel fits the serving model on the whole pool and saves it.
func trainModel(p *pool, seed int64, path string) (*core.Estimator, error) {
	var training []core.TrainingSession
	for _, c := range p.corpora {
		for _, r := range c.Records {
			training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
		}
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: modelTrees, Seed: seed}})
	if err := est.Train(training); err != nil {
		return nil, fmt.Errorf("training model: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := est.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	return est, f.Close()
}

// clientHost is the address of client i, bare (the daemon keys clients
// by host and accepts addresses without a port). Every workload stays
// below 2^24 clients.
func clientHost(i int) string {
	return fmt.Sprintf("10.%d.%d.%d", (i>>16)&255, (i>>8)&255, i&255)
}

// sessionsFor is how many pooled sessions amount to records records on
// average, at least one. Sizing a workload in records keeps its length
// the same from seed to seed, although the pool's mean session differs
// by a tenth between seeds.
func (p *pool) sessionsFor(records int) float64 {
	return max(1, float64(records)/p.meanRecords)
}

// backToBack gives each of clients clients a run of sessions played
// one after another: the first starts within firstSpread seconds, each
// next one within 30 s of the previous player closing, while the
// previous session's connections linger — the overlap the paper's
// session-identification heuristic exists for. sessions is the mean
// run length: client i plays floor or ceil of it, so that the counts
// add up. Records come out client by client in start order.
func backToBack(p *pool, rng *rand.Rand, clients int, sessions, firstSpread float64) []record {
	recs := make([]record, 0, int(float64(clients)*sessions*p.meanRecords*1.05))
	for i := 0; i < clients; i++ {
		client := clientHost(i)
		first := len(recs)
		at := rng.Float64() * firstSpread
		for k, n := 0, int(float64(i+1)*sessions)-int(float64(i)*sessions); k < n; k++ {
			s := p.deal(i+k, rng)
			recs = appendSession(recs, client, s.Capture.TLS, at, math.Inf(1))
			at += s.DurationSec + rng.Float64()*30
		}
		slices.SortStableFunc(recs[first:], func(a, b record) int { return cmp.Compare(a.Start, b.Start) })
	}
	return recs
}

// oneSession gives each client exactly one session. Arrivals are
// stratified over [0, span): client i starts inside the i-th of clients
// equal slots, so the offered rate is steady at every time scale
// instead of carrying Poisson bursts. Records ending at or after cutoff
// are dropped (the paced workload stops the log at a fixed instant).
func oneSession(p *pool, rng *rand.Rand, clients int, span, cutoff float64) []record {
	recs := make([]record, 0, int(float64(clients)*p.meanRecords*1.05))
	slot := span / float64(clients)
	for i := 0; i < clients; i++ {
		at := slot * (float64(i) + rng.Float64())
		recs = appendSession(recs, clientHost(i), p.deal(i, rng).Capture.TLS, at, cutoff)
	}
	return recs
}

// appendSession shifts one pooled session to start at offset at and
// appends its connections that end before cutoff.
func appendSession(recs []record, client string, txns []capture.TLSTransaction, at, cutoff float64) []record {
	for _, t := range txns {
		if at+t.End >= cutoff {
			continue
		}
		recs = append(recs, record{
			Client: client, SNI: t.SNI,
			Start: at + t.Start, End: at + t.End,
			UpBytes: t.UpBytes, DownBytes: t.DownBytes,
		})
	}
	return recs
}

// sortByEnd puts records in the order a proxy logs them: by completion
// time, ties in generation order. It sorts 16-byte keys and permutes
// once, which is several times faster than moving the records.
func sortByEnd(recs []record) {
	type key struct {
		end float64
		at  int
	}
	keys := make([]key, len(recs))
	for i, r := range recs {
		keys[i] = key{r.End, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.end, b.end); c != 0 {
			return c
		}
		return cmp.Compare(a.at, b.at)
	})
	sorted := make([]record, len(recs))
	for i, k := range keys {
		sorted[i] = recs[k.at]
	}
	copy(recs, sorted)
}

// appendSquidLine renders one record as a Squid access.log line with
// Unix epoch 0, so the log's timestamps are the event offsets.
func appendSquidLine(dst []byte, r record) []byte {
	dst = squidlog.AppendEntry(dst, r.Client, capture.TLSTransaction{
		SNI: r.SNI, Start: r.Start, End: r.End, UpBytes: r.UpBytes, DownBytes: r.DownBytes,
	}, 0)
	return append(dst, '\n')
}

// writeSquidLog renders end-ordered records to path.
func writeSquidLog(path string, recs []record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, r := range recs {
		line = appendSquidLine(line[:0], r)
		if _, err := bw.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReplayCSV renders records as a replay workload CSV.
func writeReplayCSV(path string, recs []record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tlsproxy.WriteWorkload(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildSchedule renders end-ordered records into memory with each
// line due at its end time divided by paceCompress.
func buildSchedule(recs []record) *schedule {
	sch := &schedule{
		buf:  make([]byte, 0, len(recs)*136),
		ends: make([]int, len(recs)),
		due:  make([]time.Duration, len(recs)),
	}
	for i, r := range recs {
		sch.buf = appendSquidLine(sch.buf, r)
		sch.ends[i] = len(sch.buf)
		sch.due[i] = time.Duration(r.End / paceCompress * float64(time.Second))
	}
	return sch
}

// prepared is one workload ready to run: the files the daemon will be
// given and what the harness needs to interpret its output.
type prepared struct {
	w       *workload
	seed    int64
	scale   float64
	est     *core.Estimator
	bin     string // the daemon binary
	model   string
	input   string // squid log or replay CSV handed to -input
	records int
	// clients lists client hosts by index; index inverts it. firstDue is
	// when each client's first line is appended, from the run's start
	// (zero for the backlog workloads, whose input is complete up front).
	clients  []string
	index    map[string]int32
	firstDue []time.Duration
	sched    *schedule // paced workload only
}

// workloadRNG derives the generator's stream from -seed and the
// workload name, so workloads do not share a sequence.
func workloadRNG(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// setup does everything that precedes the daemon's first instruction:
// session pool, model, workload generation, rendering, and building
// cmd/qoeproxy from the checkout at root.
func setup(w *workload, seed int64, seconds int, scale float64, root, dir string) (*prepared, error) {
	pr, err := generateInput(w, seed, seconds, scale, dir)
	if err != nil {
		return nil, err
	}
	pr.bin = filepath.Join(dir, "qoeproxy")
	if err := buildDaemon(root, pr.bin); err != nil {
		return nil, err
	}
	return pr, nil
}

// generateInput produces everything the daemon will be given — the
// model file and the rendered workload — under dir. -seed is its only
// source of randomness: the same arguments give the same bytes.
func generateInput(w *workload, seed int64, seconds int, scale float64, dir string) (*prepared, error) {
	p, err := buildPool(seed)
	if err != nil {
		return nil, err
	}
	pr := &prepared{w: w, seed: seed, scale: scale, model: filepath.Join(dir, "model.json")}
	if pr.est, err = trainModel(p, seed, pr.model); err != nil {
		return nil, err
	}
	recs := w.generate(p, workloadRNG(seed, w.name), seconds, scale)
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: generated no records", w.name)
	}
	pr.records = len(recs)
	switch {
	case w.source == "replay":
		pr.input = filepath.Join(dir, w.name+".csv")
		err = writeReplayCSV(pr.input, recs)
	case w.paced:
		sortByEnd(recs)
		pr.input = filepath.Join(dir, w.name+".access.log")
		pr.sched = buildSchedule(recs)
		// The daemon refuses to start on a missing log; it tails an
		// empty one.
		err = os.WriteFile(pr.input, nil, 0o644)
	default:
		sortByEnd(recs)
		pr.input = filepath.Join(dir, w.name+".access.log")
		err = writeSquidLog(pr.input, recs)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: rendering: %w", w.name, err)
	}
	pr.indexClients(recs)
	return pr, nil
}

// indexClients numbers the clients in order of first appearance and
// notes when each one's first line falls due.
func (pr *prepared) indexClients(recs []record) {
	pr.index = map[string]int32{}
	for i, r := range recs {
		if _, ok := pr.index[r.Client]; ok {
			continue
		}
		pr.index[r.Client] = int32(len(pr.clients))
		pr.clients = append(pr.clients, r.Client)
		var due time.Duration
		if pr.sched != nil {
			due = pr.sched.due[i]
		}
		pr.firstDue = append(pr.firstDue, due)
	}
}
