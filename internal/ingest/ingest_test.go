package ingest

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

// TestQuantizeMicros pins the shared clock grid: microsecond rounding,
// carry into the next second, idempotence on already-quantized values.
func TestQuantizeMicros(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1.5, 1.5},
		{2.0000004, 2},
		{2.0000006, 2.000001},
		{3.9999996, 4}, // rounds up to 1e6 µs: carries into second 4
		{123.456789, 123.456789},
	}
	for _, c := range cases {
		if got := QuantizeMicros(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("QuantizeMicros(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Idempotence: quantizing a sec + micros/1e6 composition returns the
	// same bits — the property the cross-source equivalence rests on.
	for sec := 0; sec < 5; sec++ {
		for _, micros := range []float64{0, 1, 499999, 500000, 999999} {
			v := float64(sec) + micros/1e6
			if got := QuantizeMicros(v); got != v {
				t.Fatalf("QuantizeMicros(%v) = %v, not idempotent", v, got)
			}
		}
	}
}

// squidLine renders one CONNECT entry with offsets from epoch 0.
func squidLine(client, sni string, start, end float64, up, down int64) string {
	return squidlog.FormatEntry(client, capture.TLSTransaction{
		SNI: sni, Start: start, End: end, UpBytes: up, DownBytes: down,
	}, 0) + "\n"
}

// tailCollector accumulates delivered transactions concurrently with a
// running tailer.
type tailCollector struct {
	mu   sync.Mutex
	txns []tlsproxy.Record
}

func (c *tailCollector) handler() Handler {
	return Handler{TransactionBatch: func(recs []tlsproxy.Record) {
		c.mu.Lock()
		c.txns = append(c.txns, recs...)
		c.mu.Unlock()
	}}
}

func (c *tailCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.txns)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSquidTailerRotation drives the follow-mode tailer through a log
// rotation (rename + new file) and a truncation (copytruncate-style),
// asserting every entry before and after each transition is delivered
// and both transitions are counted.
func TestSquidTailerRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	write := func(p, content string) {
		t.Helper()
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write(path,
		squidLine("10.1.0.1", "a.example", 0, 1, 10, 100)+
			squidLine("10.1.0.2", "b.example", 0.5, 2, 20, 200)+
			"this line is garbage\n"+
			squidLine("10.1.0.1", "c.example", 2, 3, 30, 300))

	src := &SquidSource{
		Path:      path,
		Base:      time.Unix(1_700_000_000, 0),
		EpochUnix: 0,
		Horizon:   0, // deliver as read; the rotation test wants promptness
		Follow:    true,
		Poll:      5 * time.Millisecond,
	}
	var col tailCollector
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, col.handler()) }()

	waitFor(t, "initial entries", func() bool { return col.count() == 3 })

	// Classic rotation: rename away, create a fresh file at the path.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	write(path, squidLine("10.1.0.3", "d.example", 3, 4, 40, 400))
	waitFor(t, "post-rotation entry", func() bool { return col.count() == 4 })

	// copytruncate: same inode, size drops below what was consumed.
	// Wait for the tailer to observe the shrink before appending — if the
	// new content grows back past the old read position first, a
	// size-based tail (like this one, or tail -F) cannot tell.
	write(path, "")
	waitFor(t, "truncation detected", func() bool { return src.Stats().Rotations == 2 })
	appendLog(t, path, squidLine("10.1.0.1", "e.example", 4, 5, 50, 500))
	waitFor(t, "post-truncation entry", func() bool { return col.count() == 5 })

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v, want nil on cancellation", err)
	}
	st := src.Stats()
	if st.Records != 5 || st.Rotations != 2 || st.Malformed != 1 {
		t.Fatalf("stats = %+v, want 5 records, 2 rotations, 1 malformed", st)
	}
	if st.Clients != 3 {
		t.Fatalf("clients = %d, want 3", st.Clients)
	}
	// Spot-check the delivered record content and absolute times.
	col.mu.Lock()
	defer col.mu.Unlock()
	last := col.txns[4]
	if last.SNI != "e.example" || last.ClientAddr != "10.1.0.1" {
		t.Fatalf("last record = %+v", last)
	}
	if got := last.End.Sub(src.Base).Seconds(); math.Abs(got-5) > 1e-6 {
		t.Fatalf("last end offset = %v, want 5", got)
	}
}

// TestSquidSourceBoundedFile pins Follow=false semantics: read to EOF,
// flush the reorder buffer in (time, sequence) order, return nil.
func TestSquidSourceBoundedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	// End-ordered log whose starts interleave: with a large horizon all
	// delivery happens at the EOF flush, globally time-sorted.
	content := squidLine("c1", "a.example", 5, 6, 1, 2) +
		squidLine("c2", "b.example", 1, 7, 3, 4) +
		squidLine("c1", "c.example", 6.5, 8, 5, 6)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src := &SquidSource{Path: path, Base: time.Unix(0, 0), EpochUnix: 0, Horizon: 3600, Follow: false}
	var got []string
	h := Handler{
		ConnOpen: func(r tlsproxy.Record) {
			got = append(got, fmt.Sprintf("open:%s@%v", r.SNI, r.Start.Sub(time.Unix(0, 0)).Seconds()))
		},
		TransactionBatch: func(recs []tlsproxy.Record) {
			for _, r := range recs {
				got = append(got, fmt.Sprintf("txn:%s@%v", r.SNI, r.End.Sub(time.Unix(0, 0)).Seconds()))
			}
		},
	}
	if err := src.Run(context.Background(), h); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"open:b.example@1", "open:a.example@5", "txn:a.example@6",
		"open:c.example@6.5", "txn:b.example@7", "txn:c.example@8",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivery order\n got %v\nwant %v", got, want)
	}
	if st := src.Stats(); st.Records != 3 || st.Clients != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCrossSourceSequence renders the same end-ordered, millisecond-grid
// records as a Squid log and as a replay CSV, and requires both sources
// to deliver the identical event sequence — kind, ConnID, client, SNI,
// times and bytes — at Batch 1 and 32. The Squid horizon outlasts every
// connection, so its online reorder must agree with the loaded file's
// one-time sort event for event, opens included.
func TestCrossSourceSequence(t *testing.T) {
	const epochUnix = 1.7e9
	var recs []tlsproxy.ReplayRecord
	var log strings.Builder
	for i := 0; i < 400; i++ {
		// Pairs of records share an end time, durations run 0–4.999 s
		// on the ms grid, and starts collide with other events.
		end := float64(5000+(i/2)*50) / 1000
		start := end - float64((i*7919)%5000)/1000
		r := tlsproxy.ReplayRecord{
			Client:    fmt.Sprintf("10.1.0.%d", i%13),
			SNI:       fmt.Sprintf("cdn%d.example", i%4),
			Start:     start,
			End:       end,
			UpBytes:   int64(100 + i),
			DownBytes: int64(9000 + 31*i),
		}
		recs = append(recs, r)
		log.WriteString(squidlog.FormatEntry(r.Client, capture.TLSTransaction{
			SNI: r.SNI, Start: r.Start, End: r.End, UpBytes: r.UpBytes, DownBytes: r.DownBytes,
		}, epochUnix) + "\n")
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.log")
	if err := os.WriteFile(logPath, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "workload.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlsproxy.WriteWorkload(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	collect := func(src TransactionSource) []string {
		var events []string
		event := func(kind string, r tlsproxy.Record) {
			events = append(events, fmt.Sprintf("%s %d %s %s %d %d %d %d", kind, r.ConnID, r.ClientAddr, r.SNI,
				r.Start.Sub(base), r.End.Sub(base), r.UpBytes, r.DownBytes))
		}
		err := src.Run(context.Background(), Handler{
			ConnOpen: func(r tlsproxy.Record) { event("open", r) },
			TransactionBatch: func(recs []tlsproxy.Record) {
				for _, r := range recs {
					event("txn", r)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	for _, batch := range []int{1, 32} {
		replay, err := NewReplaySource(csvPath, base, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		replay.Batch = batch
		want := collect(replay)
		got := collect(&SquidSource{Path: logPath, Base: base, EpochUnix: epochUnix, Horizon: 10, Batch: batch})
		if len(want) != 2*len(recs) || len(got) != len(want) {
			t.Fatalf("Batch=%d: squid delivered %d events, replay %d, want %d", batch, len(got), len(want), 2*len(recs))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Batch=%d: event %d: squid %q, replay %q", batch, i, got[i], want[i])
			}
		}
	}
}
