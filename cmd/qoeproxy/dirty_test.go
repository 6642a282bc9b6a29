package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/tlsproxy"
)

// dirtyAll marks every resident client dirty, as if nothing had ever
// been scored for it: it re-serves the current bundle under a fresh
// stamp, so the next pass re-gathers and re-scores all of them, which
// is what every pass did before dirty tracking. Stored classes stay, so
// class-change logging is unaffected.
func (s *service) dirtyAll() {
	m := *s.model.Load()
	m.stamp = s.bundles.Add(1)
	s.model.Store(&m)
}

// rowsScored sums qoeproxy_qoe_predictions_total over its classes.
func rowsScored(s *service) int64 {
	var n int64
	for _, name := range s.model.Load().names {
		n += s.mPred.Value(name)
	}
	return n
}

// verdicts returns every resident client's stored class ("-" for
// none) and checks qoeproxy_sessions_by_class against it: the gauge is
// kept by increments, this is the walk it must equal.
func verdicts(t *testing.T, s *service) map[string]string {
	t.Helper()
	out := map[string]string{}
	var byClass [len(s.byClass)]int64
	for _, cs := range s.snapshotState().Clients {
		out[cs.Client] = "-"
		if cs.HasClass {
			byClass[cs.LastClass]++
			out[cs.Client] = fmt.Sprint(cs.LastClass)
		}
	}
	for c := range byClass {
		if got := s.byClass[c].Load(); got != byClass[c] {
			t.Errorf("sessions_by_class[%d] = %d, %d resident clients hold that verdict", c, got, byClass[c])
		}
	}
	return out
}

// classLog is one parsed "classification" log line.
type classLog struct {
	Client       string `json:"client"`
	Class        string `json:"class"`
	Previous     string `json:"previous"`
	Transactions int    `json:"transactions"`
}

// classLogs returns the "classification" lines logged so far, in order.
func classLogs(t *testing.T, logs *logBuffer) []classLog {
	t.Helper()
	var out []classLog
	for _, line := range logs.lines() {
		if line == "" {
			continue
		}
		var e struct {
			Msg string `json:"msg"`
			classLog
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		if e.Msg == "classification" {
			out = append(out, e.classLog)
		}
	}
	return out
}

// staggeredEvents plays the corpus's sessions on numClients clients,
// client c starting gap seconds after client c-1 and each client's
// sessions back to back with gap between them, so that at most times
// most clients are idle. Records come back in start order with the
// event time each was due.
func staggeredEvents(t *testing.T, seed int64, sessions, numClients int, gap float64) []tlsproxy.Record {
	t.Helper()
	traffic, err := dataset.Build(dataset.Config{Seed: seed, Sessions: sessions}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Unix(1_700_000_000, 0)
	at := func(sec float64) time.Time { return epoch.Add(time.Duration(sec * float64(time.Second))) }
	next := make([]float64, numClients)
	for c := range next {
		next[c] = float64(c) * gap
	}
	var events []tlsproxy.Record
	var connID uint64
	for i, r := range traffic.Records {
		c := i % numClients
		base, end := next[c], next[c]
		for _, txn := range r.Capture.TLS {
			connID++
			events = append(events, tlsproxy.Record{
				ConnID: connID, SNI: txn.SNI, ClientAddr: fmt.Sprintf("10.11.0.%d:40000", c+1),
				Start: at(base + txn.Start), End: at(base + txn.End),
				UpBytes: txn.UpBytes, DownBytes: txn.DownBytes,
			})
			if e := base + txn.End; e > end {
				end = e
			}
		}
		next[c] = end + gap
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start.Before(events[j].Start) })
	return events
}

// TestDirtySkipEquivalence is the acceptance test for dirty tracking:
// one record stream through two services that differ only in that the
// reference has every client forced dirty before each pass, so it
// re-scores all residents as every pass once did. After every pass the
// two must hold the same class for every client; at the end they must
// have logged the same classification and eviction lines — and the
// tracked service must have scored strictly fewer rows.
func TestDirtySkipEquivalence(t *testing.T) {
	est := snapTestEstimator(t)
	events := staggeredEvents(t, 17, 24, 8, 45)
	epoch := time.Unix(1_700_000_000, 0)
	const ttl = 10 * time.Minute
	for _, mode := range []struct {
		name   string
		window time.Duration
	}{{"whole-session", 0}, {"windowed", 90 * time.Second}} {
		t.Run(mode.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			opts := options{window: mode.window, clientTTL: ttl, maxSessionTxns: 64, shards: 4}
			tracked, trackedLogs := newTestService(t, opts, est)
			forced, forcedLogs := newTestService(t, opts, est)
			pass := func(now float64) {
				t.Helper()
				tracked.classifyPass(now)
				forced.dirtyAll()
				forced.classifyPass(now)
				got, want := verdicts(t, tracked), verdicts(t, forced)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("pass at %gs: stored classes diverge\n tracked %v\n  forced %v", now, got, want)
				}
			}
			const every = 30.0
			nextPass, now := every, 0.0
			for _, e := range events {
				now = e.Start.Sub(epoch).Seconds()
				for ; nextPass <= now; nextPass += every {
					pass(nextPass)
				}
				for _, s := range []*service{tracked, forced} {
					s.onConnOpen(e)
					deliver(s, e)
				}
			}
			// Past the last record the population only idles: window edges
			// and all-clean passes.
			for end := now + 4*60; nextPass <= end; nextPass += every {
				pass(nextPass)
			}
			tScored, fScored := rowsScored(tracked), rowsScored(forced)
			if tScored == 0 || tScored >= fScored {
				t.Errorf("tracked service scored %d rows, the force-dirtied one %d: want strictly fewer, not none", tScored, fScored)
			}
			if tr, fr := tracked.mRuns.Value(), forced.mRuns.Value(); tr != fr {
				t.Errorf("classification_runs_total = %d tracked, %d forced: a pass that scores nothing still counts", tr, fr)
			}
			for _, s := range []*service{tracked, forced} {
				s.evictIdle(nextPass + ttl.Seconds())
				if left := verdicts(t, s); len(left) != 0 {
					t.Errorf("%d clients survived the eviction sweep", len(left))
				}
			}
			got, want := classificationLines(t, trackedLogs), classificationLines(t, forcedLogs)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("classification/eviction lines diverge\n tracked %v\n  forced %v", got, want)
			}
		})
	}
}

// TestWindowEdgeRedirties pins the one way a row changes without a
// commit: a windowed client that receives nothing more is left alone
// while its window still holds every transaction of its last row, is
// re-scored by the first pass whose cutoff has passed the oldest of
// them, and — the verdict having changed — is logged with the smaller
// transaction count and the class it left.
func TestWindowEdgeRedirties(t *testing.T) {
	est := snapTestEstimator(t)
	names := core.ClassNames(est.Metric())
	corpus, err := dataset.Build(dataset.Config{Seed: 5, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}

	// Find a session whose verdict flips when its earliest-ending
	// transactions age out, so the re-score has something to log. The
	// search sees each transaction as the daemon will hold it: through a
	// Record and back, in start order.
	const client = "10.12.0.1"
	const w = 3600.0
	s, logs := newTestService(t, options{window: w * time.Second}, est)
	var session []tlsproxy.Record
	var minEnd, dropEnd, keepEnd float64 // dropEnd: last End aged out; keepEnd: first kept
	var full, tail, tailLen int
search:
	for _, r := range corpus.Records {
		recs := make([]tlsproxy.Record, len(r.Capture.TLS))
		for i, tx := range r.Capture.TLS {
			recs[i] = s.record(uint64(i+1), client+":40000", tx.SNI, tx.Start, tx.End, tx.UpBytes, tx.DownBytes)
		}
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
		txns := make([]capture.TLSTransaction, len(recs))
		ends := make([]float64, len(recs))
		for i, rec := range recs {
			txns[i] = tlsproxy.ToCaptureTransaction(rec, s.epoch)
			ends[i] = txns[i].End
		}
		sort.Float64s(ends)
		whole, err := est.Classify(txns)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < len(ends)-1; k++ {
			if ends[k] == ends[k-1] {
				continue
			}
			var kept []capture.TLSTransaction
			for _, tx := range txns {
				if tx.End >= ends[k] {
					kept = append(kept, tx)
				}
			}
			got, err := est.Classify(kept)
			if err != nil {
				t.Fatal(err)
			}
			if got != whole {
				session, full, tail, tailLen = recs, whole, got, len(kept)
				minEnd, dropEnd, keepEnd = ends[0], ends[k-1], ends[k]
				break search
			}
		}
	}
	if session == nil {
		t.Fatal("no session in the corpus changes class as its window slides; pick another seed")
	}
	feed(s, session)

	passes := []struct {
		cutoff float64
		scored int64 // rows scored in all once the pass is done
		why    string
	}{
		{-9, 1, "the first pass scores the whole session"},
		{minEnd / 2, 1, "every transaction of the last row is still in the window"},
		{minEnd, 1, "a cutoff equal to the oldest End still includes it"},
		{(dropEnd + keepEnd) / 2, 2, "the oldest transactions have aged out"},
		{(dropEnd + keepEnd) / 2, 2, "a second pass at the same cutoff has nothing new"},
	}
	for i, p := range passes {
		s.classifyPass(p.cutoff + w)
		if got := rowsScored(s); got != p.scored {
			t.Fatalf("pass %d (%s): %d rows scored in all, want %d", i, p.why, got, p.scored)
		}
	}
	if got, want := s.mRuns.Value(), int64(len(passes)); got != want {
		t.Errorf("classification_runs_total = %d after %d passes, 3 of them all-clean", got, want)
	}
	lines := classLogs(t, logs)
	want := []classLog{
		{Client: client, Class: names[full], Transactions: len(session)},
		{Client: client, Class: names[tail], Previous: names[full], Transactions: tailLen},
	}
	if fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Errorf("classification lines = %+v\nwant %+v", lines, want)
	}
	verdicts(t, s)
}

// TestBundleChangeRescoresOnce covers the three events that make every
// resident client dirty at once — a model reload, a shadow challenger
// attached by a reload, a snapshot restored into a fresh daemon: the
// next pass scores every client exactly once, logs only the clients
// whose class changed, and the pass after that scores nothing.
func TestBundleChangeRescoresOnce(t *testing.T) {
	estA := trainSmallEstimator(t, 5, 8)
	estB := trainSmallEstimator(t, 11, 2)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	shadowPath := filepath.Join(dir, "shadow.json")
	snapPath := filepath.Join(dir, "snap.json")
	for path, est := range map[string]*core.Estimator{modelPath: estA, shadowPath: estB} {
		if err := os.WriteFile(path, modelBytes(t, est), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	opts := options{window: 0, shards: 4, modelPath: modelPath}
	s, logs := newTestService(t, opts, estA)
	events := staggeredEvents(t, 19, 24, 12, 5)
	feed(s, events)
	clients := int64(s.shards.Len())
	const now = 1e6

	// step runs one pass and checks how many rows it scored and which
	// clients it logged against the stored classes before and after.
	step := func(s *service, logs *logBuffer, what string, wantRows int64) {
		t.Helper()
		before, logged, scored := verdicts(t, s), len(classLogs(t, logs)), rowsScored(s)
		runs := s.mRuns.Value()
		s.classifyPass(now)
		if got := rowsScored(s) - scored; got != wantRows {
			t.Errorf("%s: pass scored %d rows, want %d", what, got, wantRows)
		}
		if got := s.mRuns.Value() - runs; got != 1 {
			t.Errorf("%s: classification_runs_total moved by %d, want 1", what, got)
		}
		after := verdicts(t, s)
		var changed, got []string
		for client, class := range after {
			if class != before[client] {
				changed = append(changed, client)
			}
		}
		sort.Strings(changed)
		for _, l := range classLogs(t, logs)[logged:] {
			got = append(got, l.Client)
			if first := before[l.Client] == "-"; first != (l.Previous == "") {
				t.Errorf("%s: line for %s has previous=%q, first verdict=%v", what, l.Client, l.Previous, first)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(changed) {
			t.Errorf("%s: logged %v, classes changed for %v", what, got, changed)
		}
	}

	step(s, logs, "first pass", clients)
	step(s, logs, "idle pass", 0)

	if res, err := s.reloadModel(); res != "ok" {
		t.Fatalf("reload: %s, %v", res, err)
	}
	step(s, logs, "after reloading the same model", clients)
	if n := len(classLogs(t, logs)); int64(n) != clients {
		t.Errorf("%d classification lines after an identical model re-scored everyone, want the %d first verdicts alone", n, clients)
	}
	step(s, logs, "idle pass after reload", 0)

	s.opts.shadowPath = shadowPath
	if res, err := s.reloadModel(); res != "ok" {
		t.Fatalf("reload with shadow: %s, %v", res, err)
	}
	step(s, logs, "after attaching a shadow", clients)
	step(s, logs, "idle pass with shadow", 0)

	if err := os.WriteFile(modelPath, modelBytes(t, estB), 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := s.reloadModel(); res != "ok" {
		t.Fatalf("reload to model B: %s, %v", res, err)
	}
	step(s, logs, "after reloading another model", clients)
	if n := len(classLogs(t, logs)); int64(n) == clients {
		t.Error("model B changed no client's class; the changed-only logging check is vacuous")
	}
	step(s, logs, "idle pass on model B", 0)

	if _, err := s.writeSnapshotFile(snapPath); err != nil {
		t.Fatal(err)
	}
	r, rlogs := newTestService(t, opts, estB)
	r.restoreFromFile(snapPath)
	if got, want := verdicts(t, r), verdicts(t, s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restored classes %v, snapshotted %v", got, want)
	}
	step(r, rlogs, "after a snapshot restore", clients)
	if n := len(classLogs(t, rlogs)); n != 0 {
		t.Errorf("restored daemon logged %d classification lines for unchanged classes", n)
	}
	step(r, rlogs, "idle pass after restore", 0)
}

// TestFailedPassLeavesClientsDirty extends the mismatch-model case of
// TestClassificationErrorsMetric: a pass that fails stores nothing, so
// the next pass gathers the same clients again (and fails again) instead
// of finding them clean and counting a run.
func TestFailedPassLeavesClientsDirty(t *testing.T) {
	est := trainSmallEstimator(t, 5, 8)
	s, _ := newTestService(t, options{window: time.Hour}, est)
	feedRecords(s, "10.13.0.1:7000", 1, 4)
	s.classifyPass(10)
	if rowsScored(s) != 1 || !s.client("10.13.0.1").HasClass {
		t.Fatal("a good pass did not classify the client")
	}
	good := s.model.Load()
	bad := s.buildModel(core.NewEstimator(core.Config{Metric: est.Metric()}), nil) // never trained
	s.model.Store(bad)
	for pass := int64(1); pass <= 2; pass++ {
		s.classifyPass(10)
		if got := s.mClassErrors.Value(); got != pass {
			t.Fatalf("classification_errors_total = %d after %d failed passes: the client was not gathered again", got, pass)
		}
	}
	if got := s.mRuns.Value(); got != 1 {
		t.Errorf("classification_runs_total = %d, want only the one good pass", got)
	}
	if cs := s.client("10.13.0.1"); cs.ScoredBy != good.stamp {
		t.Error("a failed pass stamped the client as scored by the failing bundle")
	}
	verdicts(t, s)
}

// residentService returns a -window 0 service with one classify worker
// (the pass runs inline, as on a 1-CPU host) holding clients resident
// clients, every one scored once by a warm-up pass at sweep clock 1e6.
// feed plays client number c's transactions.
func residentService(b *testing.B, clients int, feed func(s *service, client string, c int)) *service {
	est := trainSmallEstimator(b, 5, 8)
	prev := runtime.GOMAXPROCS(1)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	s := newService(options{shards: 4, maxSessionTxns: 4096},
		slog.New(slog.NewJSONHandler(io.Discard, nil)))
	b.Cleanup(s.stopSinkWriter)
	s.registerMetrics()
	s.model.Store(s.buildModel(est, nil))
	for c := 0; c < clients; c++ {
		feed(s, residentClient(c), c)
	}
	s.classifyPass(1e6)
	if got := rowsScored(s); got != int64(clients) {
		b.Fatalf("warm-up pass scored %d rows, want %d", got, clients)
	}
	return s
}

// residentClient names residentService's client number c.
func residentClient(c int) string { return fmt.Sprintf("10.61.%d.%d", c/250, c%250+1) }

// feedShort plays four identical transactions a second apart.
func feedShort(s *service, client string, c int) { feedRecords(s, client, c*4+1, 4) }

// feedLongSession plays txns transactions starting a second apart —
// one ongoing session — with byte counts and durations drawn per
// transaction, so the row's order statistics run over varied values.
func feedLongSession(txns int) func(s *service, client string, c int) {
	return func(s *service, client string, c int) {
		rng := rand.New(rand.NewSource(int64(c)))
		for i := 0; i < txns; i++ {
			id := c*txns + i + 1
			at := float64(id)
			r := s.record(uint64(id), client, "cdn-01.svc1.example", at, at+0.1+3*rng.Float64(),
				200+rng.Int63n(2_000), 10_000+rng.Int63n(2_000_000))
			s.onConnOpen(r)
			deliver(s, r)
		}
	}
}

// BenchmarkClassifyPassClean is the steady state of a resident
// population: one op is a pass over 4,096 clients that all hold a class
// and have had no commit since. The pass must skip every one of them —
// the benchmark fails if a single row is scored — and scripts/check.sh
// fails unless it allocates nothing.
func BenchmarkClassifyPassClean(b *testing.B) {
	const clients = 4096
	s := residentService(b, clients, feedShort)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.classifyPass(1e6)
	}
	b.StopTimer()
	if got := rowsScored(s); got != clients {
		b.Fatalf("%d rows reached the scorer during clean passes", got-clients)
	}
	if got, want := s.mRuns.Value(), int64(b.N+1); got != want {
		b.Fatalf("classification_runs_total = %d after %d passes", got, want)
	}
}

// BenchmarkClassifyPassDirty is the opposite end: one op is a pass over
// 4,096 resident clients that have all changed since their last
// verdict (re-serving the bundle under a fresh stamp outside the timer
// dirties them all, as a commit to each would), so the pass rebuilds
// and scores every row from the client's transaction runs. The
// benchmark fails unless every client is scored on every pass, and
// scripts/check.sh fails unless it allocates nothing.
func BenchmarkClassifyPassDirty(b *testing.B) {
	benchmarkDirtyPasses(b, residentService(b, 4096, feedShort), 4096)
}

// BenchmarkClassifyPassDirtyLong is the dirty pass at the other end of
// session length: 16 clients each holding a 4,096-transaction session
// (-max-session-txns' default) at -window 0, so every row summarizes
// the whole retained session. It is the row cost a long-lived client
// puts under its shard lock; scripts/check.sh fails unless it
// allocates nothing.
func BenchmarkClassifyPassDirtyLong(b *testing.B) {
	const clients, txns = 16, 4096
	s := residentService(b, clients, feedLongSession(txns))
	for c := 0; c < clients; c++ {
		st := s.client(residentClient(c))
		if n := len(st.Current) + len(st.InFlight) + len(st.Buffer); n != txns || st.Boundaries > 1 {
			b.Fatalf("client %d holds %d transactions after %d boundaries, want one %d-transaction session", c, n, st.Boundaries, txns)
		}
	}
	benchmarkDirtyPasses(b, s, clients)
}

// benchmarkDirtyPasses times classification passes over s after
// dirtying every one of its clients, and fails unless each pass scored
// all of them.
func benchmarkDirtyPasses(b *testing.B, s *service, clients int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.dirtyAll()
		b.StartTimer()
		s.classifyPass(1e6)
	}
	b.StopTimer()
	if got, want := rowsScored(s), int64(clients*(b.N+1)); got != want {
		b.Fatalf("%d rows scored after %d dirty passes over %d clients, want %d", got, b.N, clients, want)
	}
}
