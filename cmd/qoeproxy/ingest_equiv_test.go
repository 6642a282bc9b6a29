package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
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
	"droppackets/internal/ingest"
	"droppackets/internal/netflow"
	"droppackets/internal/pcap"
	"droppackets/internal/sessionid"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

// canonicalWorkload derives a workload from the invariance traffic
// corpus whose timestamps survive every serialization round-trip
// bit-exactly. Squid logs carry millisecond end times and integer
// millisecond durations, the coarsest of the formats, so each
// transaction is first snapped to that grid using the exact float
// expressions squidlog.ParseLineBytes evaluates on read-back
// (end = endMs/1000, start = end - durMs/1000); the replay CSV and
// flow-file formats print floats losslessly, and the pcap writer's
// microsecond grid is ingest.QuantizeMicros's grid, so all four
// renderings decode to the same offsets. Records are sorted by
// (end, start, ...) — the order Squid logs naturally appear in and
// pcap.ReadTransactions returns — so every source assigns the same
// ConnIDs.
func canonicalWorkload(traffic *dataset.Corpus) []tlsproxy.ReplayRecord {
	const numClients = 6
	var recs []tlsproxy.ReplayRecord
	for i, r := range traffic.Records {
		client := fmt.Sprintf("10.9.0.%d", i%numClients+1)
		for _, txn := range r.Capture.TLS {
			endMs := math.Round(txn.End * 1000)
			durMs := math.Round((txn.End - txn.Start) * 1000)
			if durMs < 0 {
				durMs = 0
			}
			if durMs > endMs {
				durMs = endMs
			}
			end := endMs / 1000
			recs = append(recs, tlsproxy.ReplayRecord{
				Client:    client,
				SNI:       txn.SNI,
				Start:     end - durMs/1000,
				End:       end,
				UpBytes:   txn.UpBytes,
				DownBytes: txn.DownBytes,
			})
		}
	}
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		switch {
		case a.End != b.End:
			return a.End < b.End
		case a.Start != b.Start:
			return a.Start < b.Start
		case a.Client != b.Client:
			return a.Client < b.Client
		case a.SNI != b.SNI:
			return a.SNI < b.SNI
		case a.UpBytes != b.UpBytes:
			return a.UpBytes < b.UpBytes
		default:
			return a.DownBytes < b.DownBytes
		}
	})
	return recs
}

// equivRun extends the shard-invariance observables with the Squid-log
// sink bytes, so the equivalence check also covers the second sink.
type equivRun struct {
	invariantRun
	sinkSquid string
}

// runSource feeds one rendering of the canonical workload through a
// fresh service via the given TransactionSource and returns every
// invariant observable. The classification/eviction schedule is
// computed from the canonical records, identical across sources. The
// source carries its own coalescing size (Batch); 1 is the
// record-at-a-time reference.
func runSource(t *testing.T, est *core.Estimator, recs []tlsproxy.ReplayRecord,
	build func(base time.Time) (ingest.TransactionSource, error)) equivRun {
	t.Helper()
	const ttl = 120 * time.Second
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s, logs := newTestService(t, options{
		clientTTL:      ttl,
		maxSessionTxns: 64,
		shards:         4,
		classifyBatch:  32,
	}, est)
	var csv, sq bytes.Buffer
	s.out = &sink{w: &csv, name: "out"}
	s.squid = &sink{w: &sq, name: "squid-log"}

	src, err := build(s.epoch)
	if err != nil {
		t.Fatal(err)
	}
	h := ingest.Handler{ConnOpen: s.onConnOpen, TransactionBatch: s.onTransactionBatch}
	if err := src.Run(context.Background(), h); err != nil {
		t.Fatalf("%s source: %v", src.Name(), err)
	}
	st := src.Stats()
	if st.Records != int64(len(recs)) {
		t.Fatalf("%s source delivered %d records, want %d", src.Name(), st.Records, len(recs))
	}
	if st.Malformed != 0 {
		t.Fatalf("%s source counted %d malformed entries in a clean rendering", src.Name(), st.Malformed)
	}

	lastEnd := 0.0
	for _, r := range recs {
		if r.End > lastEnd {
			lastEnd = r.End
		}
	}
	endOfTrace := s.epoch.Add(time.Duration((lastEnd + 1) * float64(time.Second)))
	s.classifyPass(endOfTrace.Sub(s.epoch).Seconds())
	s.evictIdle(endOfTrace.Add(ttl + time.Second).Sub(s.epoch).Seconds())
	s.flushSinks()

	run := equivRun{invariantRun: invariantRun{counters: map[string]int64{
		"transactions": s.mTxns.Value(),
		"boundaries":   s.mBoundaries.Value(),
		"runs":         s.mRuns.Value(),
		"class_errors": s.mClassErrors.Value(),
		"truncated":    s.mTruncated.Value(),
		"evicted":      s.mEvicted.Value(),
		"clients_left": int64(s.shards.Len()),
	}, sinkCSV: csv.String()}, sinkSquid: sq.String()}
	for _, n := range s.model.Load().names {
		run.counters["pred_"+n] = s.mPred.Value(n)
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

// TestCrossSourceEquivalence is the acceptance test for the unified
// ingest layer: one canonical workload rendered as a replay CSV, a
// Squid access log, a transaction pcap, and a flow-record file must
// drive the service to byte-identical classification sequences,
// eviction summaries, metric totals and sink output through all four
// TransactionSource adapters. scripts/check.sh runs it under -race.
func TestCrossSourceEquivalence(t *testing.T) {
	est, traffic := invarianceFixtures(t)
	recs := canonicalWorkload(traffic)
	if len(recs) == 0 {
		t.Fatal("canonical workload is empty")
	}
	dir := t.TempDir()

	// Render the same workload in every format the daemon ingests.
	csvPath := filepath.Join(dir, "workload.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlsproxy.WriteWorkload(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	logPath := filepath.Join(dir, "access.log")
	var logBuf bytes.Buffer
	for _, r := range recs {
		logBuf.WriteString(squidlog.FormatEntry(r.Client, capture.TLSTransaction{
			SNI: r.SNI, Start: r.Start, End: r.End, UpBytes: r.UpBytes, DownBytes: r.DownBytes,
		}, 0) + "\n")
	}
	if err := os.WriteFile(logPath, logBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	pcapPath := filepath.Join(dir, "trace.pcap")
	f, err = os.Create(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcap.WriteTransactions(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	flowPath := filepath.Join(dir, "flows.csv")
	flows := make([]netflow.ClientFlow, 0, len(recs)+1)
	for i, r := range recs {
		if i == len(recs)/2 {
			// An unresolved flow mid-file: must be counted, not delivered.
			flows = append(flows, netflow.ClientFlow{Client: r.Client,
				Flow: netflow.Record{Start: r.Start, End: r.End, DownBytes: 10}})
		}
		flows = append(flows, netflow.ClientFlow{Client: r.Client, Flow: netflow.Record{
			Host: r.SNI, Start: r.Start, End: r.End, UpBytes: r.UpBytes, DownBytes: r.DownBytes,
		}})
	}
	f, err = os.Create(flowPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := netflow.WriteFlows(f, flows); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// batched sets a loaded source's coalescing size.
	batched := func(s *ingest.BatchSource, err error, batch int) (ingest.TransactionSource, error) {
		if err != nil {
			return nil, err
		}
		s.Batch = batch
		return s, nil
	}
	base := runSource(t, est, recs, func(b time.Time) (ingest.TransactionSource, error) {
		s, err := ingest.NewReplaySource(csvPath, b, 0, 1)
		return batched(s, err, 1)
	})
	if len(base.classifications) == 0 {
		t.Fatal("replay baseline produced no classifications")
	}
	if base.counters["evicted"] == 0 {
		t.Fatal("replay baseline evicted no clients")
	}
	if len(base.sinkCSV) == 0 || len(base.sinkSquid) == 0 {
		t.Fatal("replay baseline left a sink empty")
	}

	// squidSrc renders a tailer config at one batch size; every size must
	// reproduce the record-at-a-time baseline byte for byte.
	squidSrc := func(batch int) func(b time.Time) (ingest.TransactionSource, error) {
		return func(b time.Time) (ingest.TransactionSource, error) {
			return &ingest.SquidSource{
				Path: logPath, Base: b, EpochUnix: 0,
				Horizon: 1 << 20, // hold everything until the EOF flush: global time order
				Follow:  false,
				Batch:   batch,
			}, nil
		}
	}
	others := []struct {
		name  string
		build func(b time.Time) (ingest.TransactionSource, error)
	}{
		{"squid-batch1", squidSrc(1)},
		{"squid-batch8", squidSrc(8)},
		{"squid-batch32", squidSrc(32)},
		{"pcap-batch1", func(b time.Time) (ingest.TransactionSource, error) {
			s, err := ingest.NewPcapSource(pcapPath, b, 0, 0, 1)
			return batched(s, err, 1)
		}},
		{"pcap-batch32", func(b time.Time) (ingest.TransactionSource, error) {
			s, err := ingest.NewPcapSource(pcapPath, b, 0, 0, 1)
			return batched(s, err, 32)
		}},
		{"netflow-batch1", func(b time.Time) (ingest.TransactionSource, error) {
			s, err := ingest.NewNetflowSource(flowPath, b, 0, 1)
			return batched(s, err, 1)
		}},
		{"replay-batch16", func(b time.Time) (ingest.TransactionSource, error) {
			s, err := ingest.NewReplaySource(csvPath, b, 0, 1)
			return batched(s, err, 16)
		}},
		{"replay-default", func(b time.Time) (ingest.TransactionSource, error) {
			return ingest.NewReplaySource(csvPath, b, 0, 1)
		}},
	}
	for _, o := range others {
		got := runSource(t, est, recs, o.build)
		compareRuns(t, o.name, got.invariantRun, base.invariantRun)
		if got.sinkSquid != base.sinkSquid {
			t.Errorf("%s: squid-log sink diverged (%d bytes vs %d)", o.name, len(got.sinkSquid), len(base.sinkSquid))
		}
	}
}

// TestReplayWorkersKeepHostSessions replays a workload whose hosts each
// connect from several source ports through four ingest workers. The
// daemon keys a client by host, so the source must deliver all of a
// host's connections from one worker, in order: then every client's
// session boundaries equal the offline heuristic's over its
// transactions. Run it with -count=20 to shake the worker
// interleavings.
func TestReplayWorkersKeepHostSessions(t *testing.T) {
	const hosts, ports = 6, 4
	traffic, err := dataset.Build(dataset.Config{Seed: 29, Sessions: 36}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	next := make([]float64, hosts)
	var recs []tlsproxy.ReplayRecord
	for i, r := range traffic.Records {
		h := i % hosts
		base, end := next[h], next[h]
		for j, txn := range r.Capture.TLS {
			recs = append(recs, tlsproxy.ReplayRecord{
				Client: fmt.Sprintf("10.30.0.%d:%d", h+1, 40000+j%ports),
				SNI:    txn.SNI, Start: base + txn.Start, End: base + txn.End,
				UpBytes: txn.UpBytes, DownBytes: txn.DownBytes,
			})
			end = max(end, base+txn.End)
		}
		next[h] = end + 60
	}
	var csv bytes.Buffer
	if err := tlsproxy.WriteWorkload(&csv, recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "workload.csv")
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s, _ := newTestService(t, options{shards: 4}, nil)
	src, err := ingest.NewReplaySource(path, s.epoch, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Run(context.Background(), ingest.Handler{ConnOpen: s.onConnOpen, TransactionBatch: s.onTransactionBatch}); err != nil {
		t.Fatal(err)
	}
	s.drain()

	// The offline side sees each transaction as the daemon holds it:
	// read back from the file and converted through record time.
	loaded, err := tlsproxy.ReadWorkload(bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	at := func(off float64) time.Time { return s.epoch.Add(time.Duration(off * float64(time.Second))) }
	perHost := map[string][]capture.TLSTransaction{}
	for _, r := range loaded {
		txn := tlsproxy.ToCaptureTransaction(tlsproxy.Record{SNI: r.SNI, Start: at(r.Start), End: at(r.End)}, s.epoch)
		host := ingest.ClientHost(r.Client)
		perHost[host] = append(perHost[host], txn)
	}
	if len(perHost) != hosts {
		t.Fatalf("%d hosts in the workload, want %d", len(perHost), hosts)
	}
	for host, all := range perHost {
		sessions := sessionid.Split(all, sessionid.PaperParams)
		want := int64(sessions[len(sessions)-1].Index)
		cs := s.client(host)
		if cs == nil || cs.Txns != int64(len(all)) {
			t.Fatalf("host %s: state %v, want %d transactions", host, cs, len(all))
		}
		if cs.Boundaries != want {
			t.Errorf("host %s: %d session boundaries, the offline heuristic finds %d", host, cs.Boundaries, want)
		}
	}
}

// TestSquidSessionsMatchOffline feeds a Squid log of clients that watch
// one to three videos back to back through the daemon's Squid source,
// then checks every client's drained state against the offline
// pipeline — sessionid.Split and Estimator.ClassifySessions over the
// same log, as qoeinfer -squid runs them: the last session's Index is
// the client's boundary count, the transaction totals agree, and a
// client with exactly one session gets that session's class in the
// shutdown summary. The reorder horizon outlasts the log's longest
// connection, so every entry is released in start order.
func TestSquidSessionsMatchOffline(t *testing.T) {
	est, _ := invarianceFixtures(t)
	traffic, err := dataset.Build(dataset.Config{Seed: 31, Sessions: 24}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		client string
		txn    capture.TLSTransaction
	}
	var entries []entry
	longest, next := 0.0, 0
	for c := 0; c < 12; c++ {
		client := fmt.Sprintf("10.31.0.%d", c+1)
		offset := float64(7 * c)
		for v := 0; v <= c%3; v++ {
			rec := traffic.Records[next]
			next++
			for _, txn := range rec.Capture.TLS {
				txn.Start += offset
				txn.End += offset
				longest = max(longest, txn.End-txn.Start)
				entries = append(entries, entry{client, txn})
			}
			offset += rec.DurationSec
		}
	}
	// A proxy logs a tunnel when it closes.
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].txn.End < entries[j].txn.End })
	var log bytes.Buffer
	for _, e := range entries {
		log.WriteString(squidlog.FormatEntry(e.client, e.txn, 1_700_000_000) + "\n")
	}
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	horizon := time.Duration((longest + 60) * float64(time.Second))
	s, _ := newTestService(t, options{shards: 4, source: "squid", ingestHorizon: horizon}, est)
	src := &ingest.SquidSource{
		Path: path, Base: s.epoch, EpochUnix: 1_700_000_000,
		Horizon: s.opts.ingestHorizon.Seconds(),
	}
	if err := src.Run(context.Background(), ingest.Handler{ConnOpen: s.onConnOpen, TransactionBatch: s.onTransactionBatch}); err != nil {
		t.Fatal(err)
	}
	type final struct {
		class            string
		txns, boundaries int
	}
	summary := map[string]final{}
	for _, line := range strings.Split(strings.TrimSpace(captureStdout(t, s.drain)), "\n") {
		var client string
		var f final
		if _, err := fmt.Sscanf(line, "client %s sessions-qoe=%s (%d transactions, %d boundaries)", &client, &f.class, &f.txns, &f.boundaries); err != nil {
			t.Fatalf("summary line %q: %v", line, err)
		}
		summary[client] = f
	}

	parsed, err := squidlog.Parse(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	names := core.ClassNames(est.Metric())
	single, multi := 0, 0
	for client, txns := range squidlog.GroupByClient(parsed) {
		sessions := sessionid.Split(txns, sessionid.PaperParams)
		verdicts, err := est.ClassifySessions(sessions)
		if err != nil {
			t.Fatal(err)
		}
		last := sessions[len(sessions)-1]
		got, ok := summary[client]
		if !ok {
			t.Errorf("client %s: no shutdown summary", client)
			continue
		}
		if got.boundaries != last.Index {
			t.Errorf("client %s: %d boundaries, the offline split's last session has index %d", client, got.boundaries, last.Index)
		}
		if got.txns != len(txns) {
			t.Errorf("client %s: %d transactions, the log holds %d", client, got.txns, len(txns))
		}
		if len(sessions) > 1 {
			multi++
			continue
		}
		single++
		if got.class != names[verdicts[0].Class] {
			t.Errorf("client %s: summary class %s, the offline session's %s", client, got.class, names[verdicts[0].Class])
		}
	}
	if len(summary) != 12 || single == 0 || multi == 0 {
		t.Errorf("%d clients summarised, %d in one session and %d in several: the fixture tests too little", len(summary), single, multi)
	}
}
