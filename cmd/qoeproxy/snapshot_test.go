package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"droppackets/internal/cluster"
	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ingest"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/tlsproxy"
)

// restoreFromFile is -restore in one step: readSnapshot, then
// restoreSnapshot when the file was usable.
func (s *service) restoreFromFile(path string) {
	if snap := s.readSnapshot(path); snap != nil {
		s.restoreSnapshot(path, snap)
	}
}

// snapTestEstimator trains a small real model so snapshot tests emit
// real classifications.
func snapTestEstimator(t *testing.T) *core.Estimator {
	t.Helper()
	corpus, err := dataset.Build(dataset.Config{Seed: 5, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 8, Seed: 5}})
	if err := est.Train(training); err != nil {
		t.Fatal(err)
	}
	return est
}

// profileEvents interleaves a corpus's sessions across clients into
// one start-ordered record stream against the test epoch
// (newTestService pins every service to the same epoch, and restore
// adopts the snapshot's, so streams built once replay into any of
// them).
func profileEvents(t *testing.T, profile *has.ServiceProfile, seed int64, sessions, numClients int) []tlsproxy.Record {
	t.Helper()
	traffic, err := dataset.Build(dataset.Config{Seed: seed, Sessions: sessions}, profile)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Unix(1_700_000_000, 0)
	var events []tlsproxy.Record
	var connID uint64
	for i, r := range traffic.Records {
		client := fmt.Sprintf("10.8.%d.%d", seed%200, i%numClients+1)
		for _, txn := range r.Capture.TLS {
			connID++
			events = append(events, tlsproxy.Record{
				ConnID:     connID,
				SNI:        txn.SNI,
				ClientAddr: client + ":40000",
				Start:      epoch.Add(time.Duration(txn.Start * float64(time.Second))),
				End:        epoch.Add(time.Duration(txn.End * float64(time.Second))),
				UpBytes:    txn.UpBytes,
				DownBytes:  txn.DownBytes,
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start.Before(events[j].Start) })
	return events
}

func feed(s *service, events []tlsproxy.Record) {
	for _, e := range events {
		s.onConnOpen(e)
		deliver(s, e)
	}
}

// classificationLines extracts the ordered classification log lines.
func classificationLines(t *testing.T, logs *logBuffer) []string {
	t.Helper()
	var out []string
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
		case "classification", "client evicted":
			out = append(out, fmt.Sprintf("%s:%s=%s/%d", e.Msg, e.Client, e.Class, e.Transactions))
		}
	}
	return out
}

// TestSnapshotRoundTripProfiles is the randomized round-trip property:
// across all three service profiles and both classify modes
// (-window 0 and windowed), cutting a stream at several points,
// snapshotting to disk, restoring into a fresh service and feeding the
// remainder must classify bit-identically — same classes, same
// transaction counts, same feature rows float for float — as a service
// that never snapshotted.
func TestSnapshotRoundTripProfiles(t *testing.T) {
	est := snapTestEstimator(t)
	profiles := []struct {
		name    string
		profile *has.ServiceProfile
		seed    int64
	}{
		{"svc1", has.Svc1(), 21},
		{"svc2", has.Svc2(), 22},
		{"svc3", has.Svc3(), 23},
	}
	for _, mode := range []struct {
		name   string
		window time.Duration
	}{{"whole-session", 0}, {"windowed", time.Hour}} {
		for _, p := range profiles {
			t.Run(mode.name+"/"+p.name, func(t *testing.T) {
				events := profileEvents(t, p.profile, p.seed, 12, 4)
				endSec := 0.0
				for _, e := range events {
					if s := e.End.Sub(time.Unix(1_700_000_000, 0)).Seconds(); s > endSec {
						endSec = s
					}
				}
				opts := options{window: mode.window, maxSessionTxns: 24}

				baseline, blogs := newTestService(t, opts, est)
				feed(baseline, events)
				baseline.classifyPass(endSec)
				want := classificationLines(t, blogs)
				if len(want) == 0 {
					t.Fatal("baseline produced no classifications")
				}

				for _, frac := range []int{4, 2, 1} { // cuts at 1/4, 1/2, all-but-nothing=full prefix
					cut := len(events) / frac
					a, _ := newTestService(t, opts, est)
					feed(a, events[:cut])
					path := filepath.Join(t.TempDir(), "snap.json")
					if _, err := a.writeSnapshotFile(path); err != nil {
						t.Fatal(err)
					}

					b, logsB := newTestService(t, opts, est)
					b.restoreFromFile(path)
					feed(b, events[cut:])
					b.classifyPass(endSec)
					got := classificationLines(t, logsB)
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Fatalf("cut %d/%d: classifications diverge\n got: %v\nwant: %v",
							cut, len(events), got, want)
					}

					// Bit-level check under the classifications: every
					// client's feature row in the restored service must equal
					// the baseline's float for float.
					// Row returns copies, so the two stay valid side by side.
					rb := baseline.model.Load().Primary().NewRowBuilder()
					for _, bcs := range baseline.snapshotState().Clients {
						client := bcs.Client
						if b.client(client) == nil {
							t.Fatalf("cut %d: client %s missing after restore", cut, client)
						}
						cutoff := baseline.cutoff(endSec) // the last pass's
						wantRow := baseline.shards.Row(rb, client, cutoff)
						gotRow := b.shards.Row(rb, client, cutoff)
						if len(gotRow) != len(wantRow) {
							t.Fatalf("cut %d %s: row widths %d vs %d", cut, client, len(gotRow), len(wantRow))
						}
						for j := range wantRow {
							if gotRow[j] != wantRow[j] {
								t.Fatalf("cut %d %s: feature %d = %v, baseline %v (must be bit-identical)",
									cut, client, j, gotRow[j], wantRow[j])
							}
						}
					}
				}
			})
		}
	}
}

// TestKillMidSessionHandoffEquivalence is the fleet acceptance test:
// instance A is killed mid-session (drain-to-snapshot), its snapshot
// restored into instance B, and B finishes the workload. B's
// subsequent classifications, the A+B counter sums, the concatenated
// sink bytes and the final evictions must all match an undisturbed
// single-instance baseline. Runs under -race in check.sh's gate.
func TestKillMidSessionHandoffEquivalence(t *testing.T) {
	const ttl = 120 * time.Second
	est := snapTestEstimator(t)
	events := profileEvents(t, has.Svc1(), 11, 18, 6)
	epoch := time.Unix(1_700_000_000, 0)
	cut := len(events) / 2
	marks := []int{len(events) / 4, 3 * len(events) / 4}
	endSec := 0.0
	for _, e := range events {
		if s := e.End.Sub(epoch).Seconds(); s > endSec {
			endSec = s
		}
	}
	passAt := func(s *service, i int) {
		for _, m := range marks {
			if i == m {
				s.classifyPass(events[i].End.Sub(epoch).Seconds())
			}
		}
	}
	finish := func(s *service) {
		s.classifyPass(endSec)
		s.evictIdle(endSec + ttl.Seconds() + 1)
		s.flushSinks()
	}
	counters := func(s *service) map[string]int64 {
		c := map[string]int64{
			"transactions": s.mTxns.Value(),
			"boundaries":   s.mBoundaries.Value(),
			"truncated":    s.mTruncated.Value(),
			"evicted":      s.mEvicted.Value(),
		}
		for _, n := range s.model.Load().names {
			c["pred_"+n] = s.mPred.Value(n)
		}
		return c
	}
	opts := options{window: 0, clientTTL: ttl, maxSessionTxns: 32}

	// The undisturbed baseline.
	baseline, baseLogs := newTestService(t, opts, est)
	var baseCSV bytes.Buffer
	baseline.out = &sink{w: &baseCSV, name: "out"}
	for i, e := range events {
		baseline.onConnOpen(e)
		deliver(baseline, e)
		passAt(baseline, i)
	}
	finish(baseline)
	wantLines := classificationLines(t, baseLogs)
	wantCounters := counters(baseline)

	// Instance A: first half of the workload, then a SIGTERM-style
	// drain-to-snapshot (shutdownState with -snapshot set).
	snapPath := filepath.Join(t.TempDir(), "handoff.json")
	optsA := opts
	optsA.snapshotPath = snapPath
	a, aLogs := newTestService(t, optsA, est)
	var aCSV bytes.Buffer
	a.out = &sink{w: &aCSV, name: "out"}
	for i, e := range events[:cut] {
		a.onConnOpen(e)
		deliver(a, e)
		passAt(a, i)
	}
	a.shutdownState()
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("shutdownState left no snapshot: %v", err)
	}
	if n := aLogs.countLogMsg(t, "state snapshot written"); n != 1 {
		t.Fatalf("snapshot log lines = %d, want 1", n)
	}

	// Instance B: restore, then the second half.
	b, bLogs := newTestService(t, opts, est)
	var bCSV bytes.Buffer
	b.out = &sink{w: &bCSV, name: "out"}
	b.restoreFromFile(snapPath)
	if n := bLogs.countLogMsg(t, "snapshot restored"); n != 1 {
		t.Fatal("restore did not log success")
	}
	for i, e := range events[cut:] {
		b.onConnOpen(e)
		deliver(b, e)
		passAt(b, cut+i)
	}
	finish(b)

	// B's epoch must be A's (adopted from the snapshot), or none of the
	// offsets below would be comparable.
	if !b.epoch.Equal(epoch) {
		t.Fatalf("restored epoch %v, want %v", b.epoch, epoch)
	}

	// Classifications and evictions: A's pre-kill passes followed by
	// B's post-restore passes must reproduce the baseline's sequence.
	gotLines := append(classificationLines(t, aLogs), classificationLines(t, bLogs)...)
	if strings.Join(gotLines, "\n") != strings.Join(wantLines, "\n") {
		t.Errorf("classification/eviction sequence diverges\n got: %v\nwant: %v", gotLines, wantLines)
	}

	// Counters: the fleet sums must equal the baseline's — every
	// transaction counted exactly once across the handoff.
	gotCounters := counters(a)
	for k, v := range counters(b) {
		gotCounters[k] += v
	}
	// A restore leaves every client dirty, so B's first pass also scores
	// the clients the baseline found unchanged since A's last pass: the
	// prediction counters (rows scored) may exceed the baseline's by at
	// most one row per restored client; everything else is exact.
	var extraRows int64
	for k, want := range wantCounters {
		if strings.HasPrefix(k, "pred_") {
			extraRows += gotCounters[k] - want
			continue
		}
		if gotCounters[k] != want {
			t.Errorf("counter %s: A+B = %d, baseline %d", k, gotCounters[k], want)
		}
	}
	if restored := int64(len(a.snapshotState().Clients)); extraRows < 0 || extraRows > restored {
		t.Errorf("A+B scored %d rows more than the baseline, want 0..%d (the restored clients, once)", extraRows, restored)
	}

	// Sink bytes: A's lines then B's lines are the baseline's bytes.
	if got := aCSV.String() + bCSV.String(); got != baseCSV.String() {
		t.Errorf("sink bytes diverge: A+B %d bytes, baseline %d bytes", len(got), baseCSV.Len())
	}
}

// TestSnapshotCorruptRejectedColdStart pins the failure contract:
// corrupt, truncated, future-versioned or missing snapshots are
// rejected with a log line and the daemon starts cold and fully
// usable — never crashes, never half-restores.
func TestSnapshotCorruptRejectedColdStart(t *testing.T) {
	est := snapTestEstimator(t)
	seedSvc, _ := newTestService(t, options{window: 0}, est)
	feed(seedSvc, profileEvents(t, has.Svc1(), 31, 6, 3))
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if _, err := seedSvc.writeSnapshotFile(good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var futureVersion map[string]any
	if err := json.Unmarshal(raw, &futureVersion); err != nil {
		t.Fatal(err)
	}
	futureVersion["version"] = 99
	futureRaw, _ := json.Marshal(futureVersion)

	cases := map[string]string{
		"truncated": write("truncated.json", raw[:len(raw)/2]),
		"garbage":   write("garbage.json", []byte("{not json at all")),
		"future":    write("future.json", futureRaw),
		"empty":     write("empty.json", nil),
		"missing":   filepath.Join(dir, "does-not-exist.json"),
	}
	for name, path := range cases {
		t.Run(name, func(t *testing.T) {
			s, logs := newTestService(t, options{window: 0}, est)
			s.restoreFromFile(path)
			if n := logs.countLogMsg(t, "snapshot restore failed; starting cold"); n != 1 {
				t.Fatalf("cold-start log lines = %d, want 1", n)
			}
			if got := s.shards.Len(); got != 0 {
				t.Fatalf("%d clients restored from a bad snapshot", got)
			}
			// Cold but alive: the daemon must serve normally afterwards.
			rec := s.record(1, "10.0.0.1:4000", "cdn.example", 1, 2, 100, 200)
			s.onConnOpen(rec)
			deliver(s, rec)
			s.classifyPass(3)
			if s.shards.Len() != 1 {
				t.Fatal("service not usable after failed restore")
			}
		})
	}
}

// TestRestoreFiltersByRingOwnership pins the handoff-shrink case: when
// the ring no longer assigns a snapshot's client to this instance, the
// client is dropped on restore (its partition lives elsewhere now) and
// nothing about it — including its interned strings — is resurrected
// here.
func TestRestoreFiltersByRingOwnership(t *testing.T) {
	est := snapTestEstimator(t)
	donor, _ := newTestService(t, options{window: 0}, est)
	events := profileEvents(t, has.Svc1(), 41, 16, 12)
	feed(donor, events)
	total := donor.shards.Len()
	if total < 4 {
		t.Fatalf("donor has only %d clients; test needs a spread", total)
	}
	path := filepath.Join(t.TempDir(), "donor.json")
	if _, err := donor.writeSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	ring, err := cluster.New(&cluster.Config{Version: 1, Instances: []cluster.Instance{{ID: "a"}, {ID: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	s, logs := newTestService(t, options{window: 0}, est)
	s.ring, s.instanceID = ring, "b"
	// A real interning source stands in for the squid tailer: restore
	// must not push a single string through it.
	src := &ingest.SquidSource{}
	s.src = src

	snap, err := loadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, skipped := s.restoreState(snap)
	if restored+skipped != total {
		t.Fatalf("restored %d + skipped %d != %d clients in snapshot", restored, skipped, total)
	}
	if restored == 0 || skipped == 0 {
		t.Fatalf("degenerate split restored=%d skipped=%d; pick a different seed", restored, skipped)
	}
	for _, cs := range s.snapshotState().Clients {
		if !ring.Owns("b", cs.Client) {
			t.Errorf("restored client %s is owned by %s, not this instance", cs.Client, ring.Owner(cs.Client))
		}
	}
	if s.shards.Len() != restored {
		t.Errorf("%d clients resident, %d restored", s.shards.Len(), restored)
	}
	if got := src.InternedStrings(); got != 0 {
		t.Errorf("restore interned %d strings; restoring must not touch the source's tables", got)
	}
	_ = logs
}

// TestClusterFilterExactlyOnce drives the identical stream through two
// ring members and checks fleet coverage: every client owned by
// exactly one member, every record either committed or counted
// skipped on each member, and the owned/skipped totals complementary.
func TestClusterFilterExactlyOnce(t *testing.T) {
	ring, err := cluster.New(&cluster.Config{Version: 1, Instances: []cluster.Instance{{ID: "a"}, {ID: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	events := profileEvents(t, has.Svc1(), 51, 16, 10)
	members := map[string]*service{}
	for _, id := range ring.Instances() {
		s, _ := newTestService(t, options{window: time.Hour}, nil)
		s.ring, s.instanceID = ring, id
		members[id] = s
		feed(s, events)
	}
	var txns, skipped int64
	clientsSeen := map[string]int{}
	for id, s := range members {
		txns += s.mTxns.Value()
		skipped += s.mSkipped.Value()
		for _, cs := range s.snapshotState().Clients {
			clientsSeen[cs.Client]++
			if !ring.Owns(id, cs.Client) {
				t.Errorf("instance %s holds state for %s, owned by %s", id, cs.Client, ring.Owner(cs.Client))
			}
		}
	}
	n := int64(len(events))
	if txns != n {
		t.Errorf("fleet committed %d transactions, stream has %d (no gaps, no overlap)", txns, n)
	}
	if skipped != n {
		t.Errorf("fleet skipped %d records, want %d (each record skipped by exactly one of two members)", skipped, n)
	}
	for client, owners := range clientsSeen {
		if owners != 1 {
			t.Errorf("client %s held by %d members", client, owners)
		}
	}
	// Both members saw the whole stream's clock, owned or not.
	for id, s := range members {
		if wm := s.sweepNow(time.Now()); wm <= 0 {
			t.Errorf("instance %s watermark %v; skipped records must still advance it", id, wm)
		}
	}
	partitions := 0
	for _, id := range ring.Instances() {
		partitions += ring.Partitions(id)
	}
	if partitions != ring.TotalPartitions() {
		t.Errorf("partitions sum %d != ring total %d", partitions, ring.TotalPartitions())
	}
}

// TestAdminSnapshotEndpoint checks the operator path: POST
// /admin/snapshot from loopback writes the configured path while the
// daemon keeps serving; non-loopback callers are refused; without
// -snapshot the request is rejected cleanly.
func TestAdminSnapshotEndpoint(t *testing.T) {
	est := snapTestEstimator(t)
	path := filepath.Join(t.TempDir(), "admin.json")
	s, _ := newTestService(t, options{window: 0, snapshotPath: path}, est)
	feed(s, profileEvents(t, has.Svc1(), 61, 4, 2))
	h := s.httpHandler()

	req := httptest.NewRequest("POST", "/admin/snapshot", nil)
	req.RemoteAddr = "127.0.0.1:55555"
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("loopback snapshot: status %d: %s", rec.Code, rec.Body.String())
	}
	snap, err := loadSnapshotFile(path)
	if err != nil {
		t.Fatalf("endpoint wrote an unloadable snapshot: %v", err)
	}
	if len(snap.Clients) != s.shards.Len() {
		t.Errorf("snapshot has %d clients, service %d", len(snap.Clients), s.shards.Len())
	}

	req = httptest.NewRequest("POST", "/admin/snapshot", nil)
	req.RemoteAddr = "203.0.113.9:55555"
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 403 {
		t.Errorf("non-loopback snapshot: status %d, want 403", rec.Code)
	}

	req = httptest.NewRequest("GET", "/admin/snapshot", nil)
	req.RemoteAddr = "127.0.0.1:55555"
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 405 {
		t.Errorf("GET snapshot: status %d, want 405", rec.Code)
	}

	noPath, _ := newTestService(t, options{window: 0}, est)
	req = httptest.NewRequest("POST", "/admin/snapshot", nil)
	req.RemoteAddr = "127.0.0.1:55555"
	rec = httptest.NewRecorder()
	noPath.httpHandler().ServeHTTP(rec, req)
	if rec.Code != 422 {
		t.Errorf("snapshot without -snapshot: status %d, want 422", rec.Code)
	}
}

// TestHealthzFleetFields verifies /healthz reports the instance
// identity and partition count a fleet operator sums for coverage.
func TestHealthzFleetFields(t *testing.T) {
	ring, err := cluster.New(&cluster.Config{Version: 1, Instances: []cluster.Instance{{ID: "a"}, {ID: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestService(t, options{window: time.Hour}, nil)
	s.ring, s.instanceID = ring, "a"
	rec := httptest.NewRecorder()
	s.httpHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var body struct {
		Instance        string `json:"instance"`
		PartitionsOwned int    `json:"partitions_owned"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Instance != "a" {
		t.Errorf("instance = %q, want a", body.Instance)
	}
	if body.PartitionsOwned != ring.Partitions("a") || body.PartitionsOwned == 0 {
		t.Errorf("partitions_owned = %d, want %d", body.PartitionsOwned, ring.Partitions("a"))
	}
}

// TestRestoreDropsUnnameableClass is the hardening case for the restored
// verdict: lastClass indexes the class names and the by-class gauge, so
// a snapshot carrying a class the serving model does not have (written
// under a model with more classes, or damaged) — or any class at all
// when no model is loaded — restores as "not yet classified" instead of
// indexing out of range at the client's next verdict.
func TestRestoreDropsUnnameableClass(t *testing.T) {
	est := snapTestEstimator(t)
	donor, _ := newTestService(t, options{window: 0}, est)
	feed(donor, profileEvents(t, has.Svc1(), 71, 8, 4))
	donor.classifyPass(1e6)
	snap := donor.snapshotState()
	if len(snap.Clients) != 4 {
		t.Fatalf("donor snapshot has %d clients, test wants 4", len(snap.Clients))
	}
	for _, c := range snap.Clients {
		if !c.HasClass {
			t.Fatalf("donor client %s was never classified", c.Client)
		}
	}
	kept := snap.Clients[0].Client
	snap.Clients[1].LastClass = est.NumClasses()
	snap.Clients[2].LastClass = 1 << 40
	snap.Clients[3].LastClass = -1

	s, logs := newTestService(t, options{window: 0}, est)
	if restored, _ := s.restoreState(snap); restored != 4 {
		t.Fatalf("restored %d clients, want 4", restored)
	}
	for _, c := range snap.Clients {
		if got, want := s.client(c.Client).HasClass, c.Client == kept; got != want {
			t.Errorf("client %s (last_class %d): hasClass = %v after restore, want %v", c.Client, c.LastClass, got, want)
		}
	}
	verdicts(t, s)
	s.classifyPass(1e6) // must not index out of range
	for _, l := range classLogs(t, logs) {
		if l.Client == kept || l.Previous != "" {
			t.Errorf("unexpected line after restore: %+v (dropped classes log as first verdicts, the kept one not at all)", l)
		}
	}
	if got := len(classLogs(t, logs)); got != 3 {
		t.Errorf("%d classification lines after restore, want 3 first verdicts", got)
	}
	verdicts(t, s)

	bare, _ := newTestService(t, options{window: time.Hour}, nil)
	bare.restoreState(donor.snapshotState())
	for _, cs := range bare.snapshotState().Clients {
		if cs.HasClass {
			t.Errorf("client %s restored with a class into a daemon with no model", cs.Client)
		}
	}
}
