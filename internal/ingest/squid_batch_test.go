package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

// eventCollector records the delivery sequence — opens and transaction
// batches — as one flat event-string slice. Sources
// deliver on a single goroutine and Run's return synchronizes with it,
// so no lock is needed.
type eventCollector struct {
	events    []string
	maxBatch  int
	batchTxns int
}

func (c *eventCollector) handler() Handler {
	return Handler{
		ConnOpen: func(r tlsproxy.Record) {
			c.events = append(c.events, "open:"+r.SNI)
		},
		TransactionBatch: func(recs []tlsproxy.Record) {
			if len(recs) > c.maxBatch {
				c.maxBatch = len(recs)
			}
			c.batchTxns += len(recs)
			for _, r := range recs {
				c.events = append(c.events, txnEvent(r))
			}
		},
	}
}

// serialGuard wraps a Handler to check the source's threading contract:
// every callback runs on one goroutine at a time, and none runs after
// Run has returned. Violations are counted rather than reported from
// the offending goroutine, which may outlive the test.
type serialGuard struct {
	busy, returned       atomic.Bool
	overlapping, lateRun atomic.Int64
}

func (g *serialGuard) wrap(h Handler) Handler {
	enter := func() {
		if g.returned.Load() {
			g.lateRun.Add(1)
		}
		if !g.busy.CompareAndSwap(false, true) {
			g.overlapping.Add(1)
		}
		runtime.Gosched() // widen the window an overlapping call would hit
	}
	return Handler{
		ConnOpen: func(r tlsproxy.Record) {
			enter()
			h.ConnOpen(r)
			g.busy.Store(false)
		},
		TransactionBatch: func(recs []tlsproxy.Record) {
			enter()
			h.TransactionBatch(recs)
			g.busy.Store(false)
		},
	}
}

// run calls src.Run through the guard, then gives a callback that
// outlives Run a few milliseconds to show before checking the counts.
func (g *serialGuard) run(t *testing.T, ctx context.Context, src *SquidSource, h Handler) error {
	t.Helper()
	err := src.Run(ctx, g.wrap(h))
	g.returned.Store(true)
	time.Sleep(5 * time.Millisecond)
	if n := g.overlapping.Load(); n > 0 {
		t.Errorf("%d handler callbacks overlapped another", n)
	}
	if n := g.lateRun.Load(); n > 0 {
		t.Errorf("%d handler callbacks ran after Run returned", n)
	}
	return err
}

func txnEvent(r tlsproxy.Record) string {
	return fmt.Sprintf("txn:%s:%s@%v", r.ClientAddr, r.SNI,
		r.End.Sub(time.Unix(0, 0)).Seconds())
}

// TestSquidCarryOverflow pins the tailer's defense against a
// newline-free stretch longer than the 1 MiB carry cap: the oversized
// pseudo-line costs exactly one malformed count, everything up to its
// terminating newline is discarded, and parsing resynchronizes on the
// next line.
func TestSquidCarryOverflow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	giant := strings.Repeat("x", 2<<20) // 2 MiB, no newline until the end
	content := squidLine("c1", "a.example", 0, 1, 10, 100) +
		giant + "\n" +
		squidLine("c2", "b.example", 1.5, 2, 20, 200)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src := &SquidSource{Path: path, Base: time.Unix(0, 0), EpochUnix: 0, Horizon: 3600, Follow: false}
	var col eventCollector
	if err := src.Run(context.Background(), col.handler()); err != nil {
		t.Fatal(err)
	}
	want := []string{"open:a.example", "txn:c1:a.example@1", "open:b.example", "txn:c2:b.example@2"}
	if fmt.Sprint(col.events) != fmt.Sprint(want) {
		t.Fatalf("delivery\n got %v\nwant %v", col.events, want)
	}
	st := src.Stats()
	if st.Records != 2 || st.Malformed != 1 || st.Clients != 2 {
		t.Fatalf("stats = %+v, want 2 records, 1 malformed, 2 clients", st)
	}
}

// TestSquidBatchDelivery runs the bounded-file scenario at two batch
// sizes: the flattened event sequence at Batch 8 must equal the
// record-at-a-time (Batch 1) order (batches flush before every open),
// while at least one batch actually coalesces multiple transactions.
func TestSquidBatchDelivery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	content := squidLine("c1", "a.example", 5, 6, 1, 2) +
		squidLine("c2", "b.example", 1, 7, 3, 4) +
		squidLine("c1", "c.example", 6.5, 8, 5, 6)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	newSrc := func(batch int) *SquidSource {
		return &SquidSource{Path: path, Base: time.Unix(0, 0), EpochUnix: 0,
			Horizon: 3600, Follow: false, Batch: batch}
	}

	var ref eventCollector
	if err := newSrc(1).Run(context.Background(), ref.handler()); err != nil {
		t.Fatal(err)
	}
	if ref.maxBatch != 1 {
		t.Fatalf("Batch 1 delivered a batch of %d", ref.maxBatch)
	}
	var got eventCollector
	src := newSrc(8)
	if err := src.Run(context.Background(), got.handler()); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.events) != fmt.Sprint(ref.events) {
		t.Fatalf("batched delivery reordered events\n got %v\nwant %v", got.events, ref.events)
	}
	// b@7 and c@8 flush together: no open separates them.
	if got.maxBatch < 2 {
		t.Fatalf("maxBatch = %d, expected coalescing", got.maxBatch)
	}
	if st := src.Stats(); st.Records != 3 || int(st.Records) != got.batchTxns {
		t.Fatalf("stats = %+v vs %d batched txns", st, got.batchTxns)
	}
}

// TestSquidBatchInvariance generates a sizeable log — good CONNECT
// entries with jittered end times, skipped GET lines, malformed garbage,
// several parse blocks long — and asserts that the delivery sequence
// and counters are the same at every Batch setting as record-at-a-time
// (Batch 1), and that this sequence is the global (time, sequence)
// order worked out from the file alone: block boundaries and the
// hand-offs between the reader, ordering and handler goroutines must
// not show. It holds too for a follow-mode tail cancelled while the
// file is still being read. Every run checks that callbacks never
// overlap and that none runs after Run returns.
func TestSquidBatchInvariance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	var sb strings.Builder
	// Deterministic jitter without math/rand: a small LCG.
	state := uint64(1)
	rnd := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	const lines = 3000
	end := 10.0
	for i := 0; i < lines; i++ {
		switch {
		case i%97 == 13: // malformed
			sb.WriteString("garbage line that does not parse\n")
		case i%41 == 7: // well-formed but out of scope
			sb.WriteString(fmt.Sprintf("%.3f 10 10.0.0.5 TCP_MISS/200 100 GET http://x/%d - HIER_DIRECT/1.1.1.1 text/plain\n", end, i))
		default:
			end += float64(rnd(1000)) / 1000 // non-decreasing, sub-second jitter
			start := end - float64(1+rnd(5000))/1000
			if start < 0 {
				start = 0
			}
			client := fmt.Sprintf("10.2.0.%d", rnd(17)+1)
			sni := fmt.Sprintf("svc%d.example", rnd(9))
			sb.WriteString(squidLine(client, sni, start, end, int64(rnd(100000)), int64(rnd(1000000))))
		}
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(batch int) (*eventCollector, Stats) {
		src := &SquidSource{Path: path, Base: time.Unix(0, 0), EpochUnix: 0,
			Horizon: 10, Follow: false, Batch: batch}
		var col eventCollector
		var g serialGuard
		if err := g.run(t, context.Background(), src, col.handler()); err != nil {
			t.Fatal(err)
		}
		return &col, src.Stats()
	}
	ref, refStats := run(1)
	if refStats.Records == 0 || refStats.Malformed == 0 || refStats.Skipped == 0 {
		t.Fatalf("reference stats %+v exercise too little", refStats)
	}
	if refStats.Records <= 2*blockLines {
		t.Fatalf("%d records do not span several blocks of %d", refStats.Records, blockLines)
	}

	// The log is end-ordered and no connection outlasts the horizon, so
	// the contract is the global order: every event by (time, 2i for
	// entry i's open, 2i+1 for its transaction).
	type event struct {
		at   float64
		seq  int
		text string
	}
	var want []event
	for i, line := range strings.Split(sb.String(), "\n") {
		v, ok, err := squidlog.ParseLineBytes([]byte(line))
		if err != nil || !ok {
			continue
		}
		endAt := QuantizeMicros(v.EndUnix)
		want = append(want,
			event{QuantizeMicros(v.EndUnix - v.ElapsedSec), 2 * i, "open:" + string(v.Host)},
			event{endAt, 2*i + 1, fmt.Sprintf("txn:%s:%s@%v", v.Client, v.Host,
				offsetTime(time.Unix(0, 0), endAt).Sub(time.Unix(0, 0)).Seconds())})
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].at != want[b].at {
			return want[a].at < want[b].at
		}
		return want[a].seq < want[b].seq
	})
	if len(ref.events) != len(want) {
		t.Fatalf("%d events delivered, the file holds %d", len(ref.events), len(want))
	}
	for i := range want {
		if ref.events[i] != want[i].text {
			t.Fatalf("event %d = %q, global order has %q", i, ref.events[i], want[i].text)
		}
	}

	check := func(name string, got *eventCollector, st Stats) {
		t.Helper()
		if st != refStats {
			t.Errorf("%s: stats %+v, want %+v", name, st, refStats)
		}
		if len(got.events) != len(ref.events) {
			t.Fatalf("%s: %d events, want %d", name, len(got.events), len(ref.events))
		}
		for i := range got.events {
			if got.events[i] != ref.events[i] {
				t.Fatalf("%s: event %d = %q, want %q", name, i, got.events[i], ref.events[i])
			}
		}
	}
	for _, batch := range []int{8, 0, 32} {
		got, st := run(batch)
		check(fmt.Sprintf("batch=%d", batch), got, st)
	}

	// A follow-mode tail cancelled before Run starts: the cancel lands
	// while the file is read, so blocks are in flight in every stage
	// when the tail stops at EOF and flushes.
	src := &SquidSource{Path: path, Base: time.Unix(0, 0), EpochUnix: 0,
		Horizon: 10, Follow: true, Poll: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var col eventCollector
	var g serialGuard
	if err := g.run(t, ctx, src, col.handler()); err != nil {
		t.Fatal(err)
	}
	check("cancelled tail", &col, src.Stats())
}

// appendLog appends content to the log at path, as Squid would.
func appendLog(t *testing.T, path, content string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(content); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSquidTailPartialBlock pins the latency side of the block reader:
// a followed log that grows by far fewer than blockLines lines must
// not wait for the block to fill. The lines already in the file are
// delivered before the first poll sleep ends — which fails if the tail
// hands its partial block off after sleeping rather than before — and
// appended lines within two poll intervals.
func TestSquidTailPartialBlock(t *testing.T) {
	const poll = time.Second
	path := filepath.Join(t.TempDir(), "access.log")
	initial := squidLine("c1", "a.example", 0, 1, 1, 2) +
		squidLine("c2", "b.example", 0.5, 2, 3, 4) +
		squidLine("c3", "c.example", 1, 3, 5, 6)
	if err := os.WriteFile(path, []byte(initial), 0o644); err != nil {
		t.Fatal(err)
	}
	src := &SquidSource{Path: path, Base: time.Unix(0, 0), EpochUnix: 0,
		Horizon: 0, Follow: true, Poll: poll}
	var col tailCollector
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, col.handler()) }()

	within := func(limit time.Duration, what string, n int) {
		t.Helper()
		start := time.Now()
		for col.count() < n {
			if time.Since(start) > limit {
				t.Fatalf("%s: %d of %d records after %v", what, col.count(), n, limit)
			}
			time.Sleep(time.Millisecond)
		}
	}
	within(poll/2, "lines present at start", 3)
	appendLog(t, path, squidLine("c1", "d.example", 2, 4, 7, 8)+
		squidLine("c2", "e.example", 3, 5, 9, 10))
	within(2*poll, "appended lines", 5)

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v, want nil on cancellation", err)
	}
	if n := col.count(); n != 5 {
		t.Fatalf("%d records delivered, want 5", n)
	}
}

// TestSquidCancelDeliversOnce cancels a follow-mode tail whose reorder
// horizon is holding every entry back: Run must return only after the
// ordering and handler goroutines have delivered each line read exactly
// once, in order, and exited. The tail catches up with the file after
// every append, and the guard fails a callback that overlaps another or
// runs after Run returns. The collector is unsynchronized on purpose,
// so under -race a delivery that outlives Run is a reported data race.
func TestSquidCancelDeliversOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	src := &SquidSource{Path: path, Base: time.Unix(0, 0), EpochUnix: 0,
		Horizon: 3600, Follow: true, Poll: 2 * time.Millisecond}
	var col eventCollector
	var g serialGuard
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.run(t, ctx, src, col.handler()) }()

	// Appends of 1 to 700 lines: partial blocks, full blocks, and blocks
	// that straddle an append. One client per line, so the Clients
	// counter says when the ordering goroutine has seen them all.
	const total = 1500
	var want []string
	for n, burst := 0, 1; n < total; burst *= 3 {
		var sb strings.Builder
		for end := min(n+burst, total); n < end; n++ {
			client, sni := fmt.Sprintf("10.9.%d.%d", n/250, n%250), fmt.Sprintf("s%d.example", n)
			sb.WriteString(squidLine(client, sni, float64(n), float64(n)+0.5, 1, 2))
			want = append(want, "open:"+sni, fmt.Sprintf("txn:%s:%s@%v", client, sni, float64(n)+0.5))
		}
		appendLog(t, path, sb.String())
		time.Sleep(3 * time.Millisecond)
	}
	waitFor(t, "every line read", func() bool { return src.Stats().Clients == total })

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v, want nil on cancellation", err)
	}
	if len(col.events) != len(want) {
		t.Fatalf("%d events delivered, want %d", len(col.events), len(want))
	}
	for i := range want {
		if col.events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, col.events[i], want[i])
		}
	}
	if st := src.Stats(); st.Records != total {
		t.Fatalf("stats = %+v, want %d records", st, total)
	}
	waitFor(t, "the ordering and handler goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestSquidBadTimes feeds lines whose times no offset can hold — NaN
// or infinite timestamps and elapsed values, which the parser rejects,
// and finite times at or beyond tlsproxy.MaxOffset, which the delivery
// rejects — once ahead of and once between good lines. Each must count
// as malformed and leave the good lines' delivery, epoch included,
// exactly as if it were absent.
func TestSquidBadTimes(t *testing.T) {
	bad := []string{
		"nan 5125 10.3.0.1 TCP_TUNNEL/200 100 CONNECT x.example:443 - HIER_DIRECT/1.2.3.4 -",
		"inf 5125 10.3.0.1 TCP_TUNNEL/200 100 CONNECT x.example:443 - HIER_DIRECT/1.2.3.4 -",
		"+Inf 5125 10.3.0.1 TCP_TUNNEL/200 100 CONNECT x.example:443 - HIER_DIRECT/1.2.3.4 -",
		"-inf 5125 10.3.0.1 TCP_TUNNEL/200 100 CONNECT x.example:443 - HIER_DIRECT/1.2.3.4 -",
		"2.5 nan 10.3.0.1 TCP_TUNNEL/200 100 CONNECT x.example:443 - HIER_DIRECT/1.2.3.4 -",
		"9e18 5125 10.3.0.1 TCP_TUNNEL/200 100 CONNECT x.example:443 - HIER_DIRECT/1.2.3.4 -",
		"-9e18 5125 10.3.0.1 TCP_TUNNEL/200 100 CONNECT x.example:443 - HIER_DIRECT/1.2.3.4 -",
		"9223372036.5 0 10.3.0.1 TCP_TUNNEL/200 100 CONNECT x.example:443 - HIER_DIRECT/1.2.3.4 -",
		"2.5 1e20 10.3.0.1 TCP_TUNNEL/200 100 CONNECT x.example:443 - HIER_DIRECT/1.2.3.4 -", // starts 1e17 s back
	}
	good := []string{
		squidLine("c1", "a.example", 1, 2, 10, 100),
		squidLine("c2", "b.example", 1.5, 3, 20, 200),
		squidLine("c3", "c.example", 2, 4, 30, 300),
	}
	want := []string{"open:a.example", "open:b.example", "txn:c1:a.example@1",
		"open:c.example", "txn:c2:b.example@2", "txn:c3:c.example@3"}
	for _, line := range bad {
		path := filepath.Join(t.TempDir(), "access.log")
		content := line + "\n" + good[0] + good[1] + line + "\n" + good[2]
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		// EpochUnix < 0 takes the epoch from the first entry delivered.
		src := &SquidSource{Path: path, Base: time.Unix(0, 0), EpochUnix: -1, Horizon: 30}
		var col eventCollector
		if err := src.Run(context.Background(), col.handler()); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(col.events) != fmt.Sprint(want) {
			t.Errorf("%q: delivery\n got %v\nwant %v", line, col.events, want)
		}
		if st := src.Stats(); st.Records != 3 || st.Malformed != 2 || st.Clients != 3 {
			t.Errorf("%q: stats = %+v, want 3 records, 2 malformed, 3 clients", line, st)
		}
	}

	// Unix times inside the range can still lie too far from the epoch:
	// here the first entry puts it 9e9 s before zero.
	path := filepath.Join(t.TempDir(), "access.log")
	content := squidLine("c1", "a.example", -9e9, -9e9+1, 10, 100) +
		squidLine("c2", "b.example", 9e9, 9e9+1, 20, 200) +
		squidLine("c3", "c.example", -9e9+2, -9e9+3, 30, 300)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src := &SquidSource{Path: path, Base: time.Unix(0, 0), EpochUnix: -1, Horizon: 30}
	var col eventCollector
	if err := src.Run(context.Background(), col.handler()); err != nil {
		t.Fatal(err)
	}
	want = []string{"open:a.example", "txn:c1:a.example@1", "open:c.example", "txn:c3:c.example@3"}
	if fmt.Sprint(col.events) != fmt.Sprint(want) {
		t.Errorf("offset beyond the range: delivery\n got %v\nwant %v", col.events, want)
	}
	if st := src.Stats(); st.Records != 2 || st.Malformed != 1 {
		t.Errorf("offset beyond the range: stats = %+v, want 2 records, 1 malformed", st)
	}
}

// TestSquidTailBadTimesHoldNothing tails a log with a 30 s horizon in
// which a NaN timestamp and a timestamp beyond tlsproxy.MaxOffset sit
// among 51 good entries ending a second apart. While the tail runs,
// exactly the entries ending at least a horizon behind the newest end
// are delivered: the NaN line does not break the reorder order and hold
// some of them back, and the far line does not switch the horizon off
// and release the rest. Cancelling delivers everything.
func TestSquidTailBadTimesHoldNothing(t *testing.T) {
	const (
		horizon = 30
		entries = 51
	)
	var sb strings.Builder
	for i := 0; i < entries; i++ {
		if i == 20 {
			sb.WriteString("nan 500 10.3.0.1 TCP_TUNNEL/200 100 CONNECT x.example:443 - HIER_DIRECT/1.2.3.4 -\n")
		}
		if i == 30 {
			sb.WriteString("9e18 500 10.3.0.1 TCP_TUNNEL/200 100 CONNECT x.example:443 - HIER_DIRECT/1.2.3.4 -\n")
		}
		end := float64(i + 1)
		sb.WriteString(squidLine(fmt.Sprintf("10.8.0.%d", i+1), fmt.Sprintf("s%d.example", i), end-0.5, end, 1, 2))
	}
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	src := &SquidSource{Path: path, Base: time.Unix(0, 0), EpochUnix: 0,
		Horizon: horizon, Follow: true, Poll: 2 * time.Millisecond}
	var col tailCollector
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, col.handler()) }()

	waitFor(t, "every line read", func() bool {
		st := src.Stats()
		return st.Clients == entries && st.Malformed == 2
	})
	// Entries 1..21 end at or before 51-30; everything else waits for the
	// horizon. Give a wrongly released entry a few polls to show.
	time.Sleep(20 * time.Millisecond)
	if n := col.count(); n != entries-horizon {
		t.Errorf("%d records delivered while tailing, want %d", n, entries-horizon)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v, want nil on cancellation", err)
	}
	if n, st := col.count(), src.Stats(); n != entries || st.Records != entries || st.Malformed != 2 {
		t.Fatalf("%d records delivered, stats %+v; want %d records, 2 malformed", n, st, entries)
	}
}
