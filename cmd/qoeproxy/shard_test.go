package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/tlsproxy"
)

// invariantRun captures everything about a replay that must not depend
// on the shard or worker count: the ordered classification and eviction
// emissions, the deterministic metric totals, and the sink bytes.
// Timing histograms, uptime and the contention counter are excluded by
// construction — they measure the concurrency, not the traffic.
// A pass logs a client's first verdict and its changes of class, not
// every client, so stored lists what the log no longer repeats: every
// resident client's class after each pass.
type invariantRun struct {
	classifications []string
	stored          []string
	evictions       []string
	counters        map[string]int64
	sinkCSV         string
}

// replayTrace feeds a fixed multi-client trace through a service built
// with the given shard count and GOMAXPROCS = workers (the classify
// fan-out is min(GOMAXPROCS, shards)), running classification passes
// mid-replay and an eviction sweep at the end, and returns the
// invariant observables. The replay itself is single-goroutine, so the
// sink append order — and therefore the flushed sink bytes — is fully
// determined by the trace. A non-nil shadow rides along as the
// champion/challenger scorer; its disagreement total is recorded under
// the "shadow_disagreement" counter key (absent without a shadow, so
// compareRuns against a shadowless baseline ignores it).
func replayTrace(t *testing.T, est *core.Estimator, traffic *dataset.Corpus, window time.Duration, shards, workers, batch int, shadow *core.Estimator) invariantRun {
	t.Helper()
	const numClients = 6
	const ttl = 120 * time.Second

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	s, logs := newTestService(t, options{
		window:         window,
		clientTTL:      ttl,
		maxSessionTxns: 64,
		shards:         shards,
		classifyBatch:  batch,
	}, est, shadow)
	var csv bytes.Buffer
	s.out = &sink{w: &csv, name: "out"}

	// Interleave the sessions across clients globally by start time so
	// consecutive records hit different shards.
	type event struct {
		client string
		rec    tlsproxy.Record
	}
	var events []event
	var connID uint64
	lastEnd := 0.0
	for i, r := range traffic.Records {
		client := fmt.Sprintf("10.7.0.%d", i%numClients+1)
		for _, txn := range r.Capture.TLS {
			connID++
			events = append(events, event{client: client, rec: tlsproxy.Record{
				ConnID:     connID,
				SNI:        txn.SNI,
				ClientAddr: client + ":40000",
				Start:      s.epoch.Add(time.Duration(txn.Start * float64(time.Second))),
				End:        s.epoch.Add(time.Duration(txn.End * float64(time.Second))),
				UpBytes:    txn.UpBytes,
				DownBytes:  txn.DownBytes,
			}})
			if txn.End > lastEnd {
				lastEnd = txn.End
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].rec.Start.Before(events[j].rec.Start) })

	var stored []string
	pass := func(now float64) {
		s.classifyPass(now)
		stored = append(stored, fmt.Sprint(verdicts(t, s)))
	}
	for i, e := range events {
		s.onConnOpen(e.rec)
		deliver(s, e.rec)
		if i == len(events)/3 || i == 2*len(events)/3 {
			pass(e.rec.End.Sub(s.epoch).Seconds())
		}
	}
	endOfTrace := s.epoch.Add(time.Duration(lastEnd * float64(time.Second)))
	pass(endOfTrace.Sub(s.epoch).Seconds())
	s.evictIdle(endOfTrace.Add(ttl + time.Second).Sub(s.epoch).Seconds())
	s.flushSinks()

	run := invariantRun{counters: map[string]int64{
		"transactions": s.mTxns.Value(),
		"boundaries":   s.mBoundaries.Value(),
		"runs":         s.mRuns.Value(),
		"class_errors": s.mClassErrors.Value(),
		"truncated":    s.mTruncated.Value(),
		"evicted":      s.mEvicted.Value(),
		"clients_left": int64(s.shards.Len()),
	}, sinkCSV: csv.String(), stored: stored}
	for _, n := range s.model.Load().names {
		run.counters["pred_"+n] = s.mPred.Value(n)
	}
	if shadow != nil {
		run.counters["shadow_disagreement"] = s.mShadowDis.Value()
	}
	for _, line := range logs.lines() {
		if line == "" {
			continue
		}
		var e struct {
			Msg          string `json:"msg"`
			Client       string `json:"client"`
			Class        string `json:"class"`
			Transactions int64  `json:"transactions"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		switch e.Msg {
		case "classification":
			run.classifications = append(run.classifications,
				fmt.Sprintf("%s=%s/%d", e.Client, e.Class, e.Transactions))
		case "client evicted":
			run.evictions = append(run.evictions,
				fmt.Sprintf("%s=%s/%d", e.Client, e.Class, e.Transactions))
		}
	}
	return run
}

// TestShardInvariance is the determinism acceptance test for the
// sharded serving path: the same trace replayed at every point of the
// shard × worker matrix, in both row-building modes, must produce
// identical classification sequences, eviction summaries, metric
// totals and sink output. scripts/check.sh runs it under -race, which
// also exercises the classify fan-out.
// invarianceFixtures trains the small estimator and builds the traffic
// corpus the invariance replays share.
func invarianceFixtures(t *testing.T) (*core.Estimator, *dataset.Corpus) {
	t.Helper()
	trainCorpus, err := dataset.Build(dataset.Config{Seed: 5, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range trainCorpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 8, Seed: 5}})
	if err := est.Train(training); err != nil {
		t.Fatal(err)
	}
	traffic, err := dataset.Build(dataset.Config{Seed: 13, Sessions: 18}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	return est, traffic
}

func TestShardInvariance(t *testing.T) {
	est, traffic := invarianceFixtures(t)

	matrix := []struct{ shards, workers int }{
		{1, 1}, {8, 1}, {8, 4}, {1, 4},
	}
	for _, mode := range []struct {
		name   string
		window time.Duration
	}{
		{"whole-session", 0}, // -window 0: no cutoff, the whole session
		{"windowed", time.Hour},
	} {
		t.Run(mode.name, func(t *testing.T) {
			base := replayTrace(t, est, traffic, mode.window, matrix[0].shards, matrix[0].workers, 0, nil)
			if len(base.classifications) == 0 {
				t.Fatal("baseline replay produced no classifications")
			}
			if base.counters["evicted"] == 0 {
				t.Fatal("baseline replay evicted no clients")
			}
			if len(base.sinkCSV) == 0 {
				t.Fatal("baseline replay wrote no sink output")
			}
			for _, m := range matrix[1:] {
				got := replayTrace(t, est, traffic, mode.window, m.shards, m.workers, 0, nil)
				compareRuns(t, fmt.Sprintf("shards=%d workers=%d", m.shards, m.workers), got, base)
			}
		})
	}
}

// compareRuns requires two replays to agree on every invariant
// observable: emission sequences, counters, sink bytes.
func compareRuns(t *testing.T, name string, got, base invariantRun) {
	t.Helper()
	if fmt.Sprint(got.classifications) != fmt.Sprint(base.classifications) {
		t.Errorf("%s: classification sequence diverged\n got %v\nwant %v",
			name, got.classifications, base.classifications)
	}
	if fmt.Sprint(got.stored) != fmt.Sprint(base.stored) {
		t.Errorf("%s: stored classes diverged\n got %v\nwant %v", name, got.stored, base.stored)
	}
	if fmt.Sprint(got.evictions) != fmt.Sprint(base.evictions) {
		t.Errorf("%s: eviction sequence diverged\n got %v\nwant %v",
			name, got.evictions, base.evictions)
	}
	for k, want := range base.counters {
		if got.counters[k] != want {
			t.Errorf("%s: counter %s = %d, want %d", name, k, got.counters[k], want)
		}
	}
	if got.sinkCSV != base.sinkCSV {
		t.Errorf("%s: sink output diverged (%d bytes vs %d)", name, len(got.sinkCSV), len(base.sinkCSV))
	}
}

// TestBatchInvariance is the acceptance test for the batched per-shard
// inference sweep: the same trace replayed one row per inference call
// (classifyBatch 1 on one shard, one worker) is the baseline, and
// every (shards, workers, batch) configuration — batch sizes that
// split a shard's rows mid-block included — must reproduce its
// classification sequence, eviction summaries, metric totals and sink
// bytes exactly. scripts/check.sh runs it under -race, which also
// exercises the gather-under-lock/sweep-outside-lock handoff.
func TestBatchInvariance(t *testing.T) {
	est, traffic := invarianceFixtures(t)

	matrix := []struct{ shards, workers, batch int }{
		{1, 1, 1}, {8, 1, 1}, {8, 4, 1}, {8, 4, 64}, {1, 4, 7}, {4, 2, 256},
	}
	for _, mode := range []struct {
		name   string
		window time.Duration
	}{
		{"whole-session", 0}, // -window 0: no cutoff, the whole session
		{"windowed", time.Hour},
	} {
		t.Run(mode.name, func(t *testing.T) {
			base := replayTrace(t, est, traffic, mode.window, 1, 1, 1, nil)
			if len(base.classifications) == 0 {
				t.Fatal("row-at-a-time baseline produced no classifications")
			}
			for _, m := range matrix {
				got := replayTrace(t, est, traffic, mode.window, m.shards, m.workers, m.batch, nil)
				compareRuns(t, fmt.Sprintf("shards=%d workers=%d batch=%d", m.shards, m.workers, m.batch), got, base)
			}
		})
	}
}

// TestShadowInvariance pins the champion/challenger guarantee: a
// -shadow-model sweeping the same gathered rows must not change a byte
// of the primary's output — classification sequences, eviction
// summaries, metric totals and sink bytes all match a shadowless run
// exactly, in both row-building modes, one row per inference call and
// blocked.
// The challenger is trained on deliberately scrambled labels (each
// session's TLS paired with another session's QoE) so the two models
// actually disagree (asserted via the disagreement counter): the
// invariance holds because shadow results go nowhere but counters,
// not because the models happen to agree.
func TestShadowInvariance(t *testing.T) {
	est, traffic := invarianceFixtures(t)
	trainCorpus, err := dataset.Build(dataset.Config{Seed: 5, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range trainCorpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	scrambled := make([]core.TrainingSession, len(training))
	for i, ts := range training {
		scrambled[i] = core.TrainingSession{TLS: ts.TLS, QoE: training[len(training)-1-i].QoE}
	}
	challenger := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 4, Seed: 99}})
	if err := challenger.Train(scrambled); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		name   string
		window time.Duration
	}{
		{"whole-session", 0}, // -window 0: no cutoff, the whole session
		{"windowed", time.Hour},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for _, batch := range []int{1, 8} {
				base := replayTrace(t, est, traffic, mode.window, 4, 2, batch, nil)
				if len(base.classifications) == 0 {
					t.Fatal("shadowless baseline produced no classifications")
				}
				got := replayTrace(t, est, traffic, mode.window, 4, 2, batch, challenger)
				compareRuns(t, fmt.Sprintf("batch=%d shadowed-vs-plain", batch), got, base)
				if got.counters["shadow_disagreement"] == 0 {
					t.Errorf("batch=%d: challenger never disagreed; the invariance check is vacuous", batch)
				}
			}
		})
	}
}

// benchmarkIngest measures concurrent ingest throughput: GOMAXPROCS
// goroutines, each a distinct client, pushing completed transactions
// through the full onConnOpen/onTransactionBatch path (sessionizer,
// ring, reorder buffer), one record per batch as the live proxy delivers, with the given shard count. No estimator and no
// sinks: this isolates the state-mutation path the locks guard.
func benchmarkIngest(b *testing.B, shards int) {
	s := newService(options{
		window:         time.Hour,
		maxSessionTxns: 256,
		shards:         shards,
	}, slog.New(slog.NewJSONHandler(io.Discard, nil)))
	defer s.stopSinkWriter()
	s.registerMetrics()

	var connID atomic.Uint64
	var clientSeq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := clientSeq.Add(1)
		client := fmt.Sprintf("10.50.%d.%d:40000", c/200, c%200+1)
		// One transaction per second: the streamer's 3s look-ahead then
		// holds a handful of pending entries, as in real traffic, so the
		// per-op cost is flat rather than dominated by look-ahead churn.
		i := 0
		for pb.Next() {
			id := connID.Add(1)
			start := s.epoch.Add(time.Duration(i) * time.Second)
			s.onConnOpen(tlsproxy.Record{ConnID: id, SNI: "cdn-01.svc1.example", ClientAddr: client, Start: start})
			deliver(s, tlsproxy.Record{
				ConnID:     id,
				SNI:        "cdn-01.svc1.example",
				ClientAddr: client,
				Start:      start,
				End:        start.Add(5 * time.Millisecond),
				UpBytes:    412,
				DownBytes:  180_000,
			})
			i++
		}
	})
	b.StopTimer()
	// Contended acquisitions per op: with one shard every overlapping
	// ingest queues on the same mutex; with a shard per core they only
	// collide when clients hash together.
	b.ReportMetric(float64(s.shards.Contention())/float64(b.N), "contended/op")
}

// BenchmarkConcurrentIngest compares the single-mutex baseline
// (shards=1) against one shard per core. scripts/check.sh runs it as a
// smoke; the ledger's qoeproxy.ingest_contention_total is the number
// to quote.
func BenchmarkConcurrentIngest(b *testing.B) {
	b.Run("shards=1", func(b *testing.B) { benchmarkIngest(b, 1) })
	b.Run(fmt.Sprintf("shards=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		benchmarkIngest(b, runtime.GOMAXPROCS(0))
	})
}

// BenchmarkCommitPath measures the per-record glue between a source and
// the sessionizer over already-resident clients: onConnOpen plus a
// 256-record onTransactionBatch with an -out sink — host parsing, the
// watermark, shard locks, open-connection bookkeeping, line formatting,
// chunked sink egress, the summary ring and the capped reorder buffer.
// One op is one batch. Every client keeps one long-lived connection
// open, which pins its watermark so transactions queue in the (capped)
// reorder buffer and never reach the sessionizer, whose steady state
// BenchmarkStreamerPushInto gates on its own; this benchmark is the
// scripts/check.sh gate that everything around it allocates nothing.
func BenchmarkCommitPath(b *testing.B) {
	const clients, batchLen, maxTxns = 512, 256, 64
	s := newService(options{
		window:         time.Hour,
		maxSessionTxns: maxTxns,
		shards:         4,
	}, slog.New(slog.NewJSONHandler(io.Discard, nil)))
	defer s.stopSinkWriter()
	s.registerMetrics()
	s.out = &sink{w: io.Discard, name: "out"}

	const sni = "cdn-01.svc1.example"
	names := make([]string, clients)
	for c := range names {
		names[c] = fmt.Sprintf("10.60.%d.%d", c/250, c%250+1)
		s.onConnOpen(tlsproxy.Record{ConnID: uint64(c + 1), SNI: sni, ClientAddr: names[c], Start: s.epoch})
	}
	batch := make([]tlsproxy.Record, 0, batchLen)
	connID := uint64(clients)
	step := func(i int) {
		batch = batch[:0]
		for j := 0; j < batchLen; j++ {
			n := i*batchLen + j
			connID++
			start := s.epoch.Add(time.Duration(n) * time.Millisecond)
			r := tlsproxy.Record{
				ConnID: connID, SNI: sni, ClientAddr: names[n%clients],
				Start: start, End: start.Add(5 * time.Millisecond),
				UpBytes: 412, DownBytes: 180_000,
			}
			s.onConnOpen(r)
			batch = append(batch, r)
		}
		s.onTransactionBatch(batch)
	}
	// Warm up until every ring is full and every reorder buffer has been
	// through a truncation cycle, so capacities have stopped growing.
	warm := clients * maxTxns * 2 / batchLen
	for i := 0; i < warm; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLen), "ns/record")
	if got, want := s.mTxns.Value(), int64((warm+b.N)*batchLen); got != want {
		b.Fatalf("committed %d records, delivered %d", got, want)
	}
}
