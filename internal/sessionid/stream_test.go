package sessionid

import (
	"fmt"
	"math/rand"
	"testing"

	"droppackets/internal/capture"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
)

// replay pushes every transaction through a fresh Streamer and returns
// the per-transaction verdicts in stream order.
func replay(txns []Transaction, p Params) []bool {
	s := NewStreamer(p)
	var decisions []Decision
	for _, t := range txns {
		decisions = append(decisions, s.Push(t)...)
	}
	decisions = append(decisions, s.Flush()...)
	out := make([]bool, len(decisions))
	for i, d := range decisions {
		out[i] = d.NewSession
	}
	return out
}

// assertEquivalent fails unless the streaming replay reproduces the
// batch Detect output decision-for-decision.
func assertEquivalent(t *testing.T, txns []Transaction, p Params, label string) {
	t.Helper()
	want := Detect(txns, p)
	got := replay(txns, p)
	if len(got) != len(want) {
		t.Fatalf("%s: streamer emitted %d decisions for %d transactions", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: decision %d: streaming=%v batch=%v (txn %+v)", label, i, got[i], want[i], txns[i])
		}
	}
}

func TestStreamerMatchesDetectHandCrafted(t *testing.T) {
	stream := []Transaction{
		{Start: 0, End: 40, SNI: "a"},
		{Start: 1, End: 50, SNI: "b"},
		{Start: 30, End: 80, SNI: "a"},
		{Start: 100, End: 140, SNI: "c"},
		{Start: 100.5, End: 130, SNI: "d"},
		{Start: 101, End: 135, SNI: "e"},
		{Start: 160, End: 200, SNI: "c"},
	}
	assertEquivalent(t, stream, PaperParams, "hand-crafted")
}

func TestStreamerDecisionOrderAndPayload(t *testing.T) {
	// Decisions must come out in push order carrying the pushed
	// transactions, so callers can join them back to full records.
	stream := []Transaction{
		{Start: 0, End: 5, SNI: "x"},
		{Start: 0.5, End: 5, SNI: "y"},
		{Start: 10, End: 15, SNI: "z"},
	}
	s := NewStreamer(PaperParams)
	var decisions []Decision
	for _, txn := range stream {
		decisions = append(decisions, s.Push(txn)...)
	}
	decisions = append(decisions, s.Flush()...)
	if len(decisions) != len(stream) {
		t.Fatalf("%d decisions for %d transactions", len(decisions), len(stream))
	}
	for i, d := range decisions {
		if d.Txn != stream[i] {
			t.Errorf("decision %d carries %+v, want %+v", i, d.Txn, stream[i])
		}
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Flush", s.Pending())
	}
}

func TestStreamerDecisionsDelayedUntilWindowCloses(t *testing.T) {
	s := NewStreamer(PaperParams)
	if got := s.Push(Transaction{Start: 0, SNI: "a"}); len(got) != 0 {
		t.Errorf("decision emitted with open window: %+v", got)
	}
	if got := s.Push(Transaction{Start: 2, SNI: "b"}); len(got) != 0 {
		t.Errorf("in-window arrival closed a window: %+v", got)
	}
	// 2 -> 5.5 exceeds WindowSec=3 relative to t=0 AND t=2? 5.5-0 > 3
	// closes the first head; 5.5-2 > 3 closes the second too.
	got := s.Push(Transaction{Start: 5.5, SNI: "c"})
	if len(got) != 2 {
		t.Fatalf("window-closing arrival finalized %d decisions, want 2", len(got))
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
}

// TestStreamerMatchesDetectOnRecordedTraces replays realistic
// back-to-back streams from the HAS simulator — the same construction
// the Table 5 experiment uses — and requires identical boundaries.
func TestStreamerMatchesDetectOnRecordedTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("trace generation is slow")
	}
	for _, svc := range []*has.ServiceProfile{has.Svc1(), has.Svc2(), has.Svc3()} {
		cfg := dataset.Config{Seed: 7, Sessions: 6}
		var sessions [][]capture.TLSTransaction
		var durations []float64
		for i := 0; i < cfg.Sessions; i++ {
			rec, err := dataset.GenerateSession(cfg, svc, i)
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, rec.Capture.TLS)
			durations = append(durations, rec.DurationSec)
		}
		stream, _ := Concat(sessions, durations)
		assertEquivalent(t, stream, PaperParams, svc.Name)
	}
}

// TestStreamerMatchesDetectProperty fuzzes synthetic start-ordered
// streams across parameter settings: dense bursts, repeated hosts,
// duplicate timestamps — every stream must replay identically.
func TestStreamerMatchesDetectProperty(t *testing.T) {
	params := []Params{
		PaperParams,
		{WindowSec: 1, MinCount: 1, MinNewFrac: 0.1},
		{WindowSec: 10, MinCount: 4, MinNewFrac: 0.9},
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		txns := make([]Transaction, n)
		now := 0.0
		for i := range txns {
			// Mix of zero gaps (same-instant bursts) and idle stretches.
			switch rng.Intn(4) {
			case 0: // burst
			case 1:
				now += rng.Float64() * 0.5
			case 2:
				now += rng.Float64() * 4
			default:
				now += rng.Float64() * 20
			}
			txns[i] = Transaction{
				Start: now,
				End:   now + rng.Float64()*30,
				SNI:   fmt.Sprintf("h%d.example", rng.Intn(8)),
			}
		}
		for _, p := range params {
			assertEquivalent(t, txns, p, fmt.Sprintf("seed=%d params=%+v", seed, p))
		}
	}
}

// TestStreamerFlushMidStream documents Flush semantics: flushing and
// continuing equals batch-detecting the two halves with carried-over
// server state, not batch-detecting the concatenation.
func TestStreamerFlushMidStream(t *testing.T) {
	first := []Transaction{
		{Start: 0, End: 10, SNI: "a"},
		{Start: 0.5, End: 10, SNI: "b"},
	}
	second := []Transaction{
		{Start: 100, End: 110, SNI: "c"},
		{Start: 100.5, End: 110, SNI: "d"},
		{Start: 101, End: 110, SNI: "e"},
	}
	s := NewStreamer(PaperParams)
	var got []bool
	for _, txn := range first {
		for _, d := range s.Push(txn) {
			got = append(got, d.NewSession)
		}
	}
	for _, d := range s.Flush() {
		got = append(got, d.NewSession)
	}
	for _, txn := range second {
		for _, d := range s.Push(txn) {
			got = append(got, d.NewSession)
		}
	}
	for _, d := range s.Flush() {
		got = append(got, d.NewSession)
	}
	if len(got) != 5 {
		t.Fatalf("%d decisions, want 5", len(got))
	}
	// The burst at t=100 onto fresh hosts must still be detected even
	// though the earlier half was already flushed.
	if !got[2] {
		t.Error("boundary after mid-stream Flush not detected")
	}
}

// recurringStream returns an endless start-ordered stream that repeats
// one 200 s pattern of lapLen transactions: every 100 s a burst of five
// transactions to servers the previous half did not use (a session
// boundary), then a trickle back to them every 10 s. Its server strings
// are fixed, so pushing it allocates only what the streamer itself does.
func recurringStream() (next func() Transaction, lapLen int) {
	hosts := []string{"cdn-a.example", "cdn-b.example", "cdn-c.example", "api-1.example", "log-1.example",
		"cdn-d.example", "cdn-e.example", "cdn-f.example", "api-2.example", "log-2.example"}
	type step struct {
		at   float64
		host int
	}
	var pattern []step
	for half := 0; half < 2; half++ {
		base := float64(half) * 100
		for k := 0; k < 5; k++ {
			pattern = append(pattern, step{base + 0.2*float64(k), 5*half + k})
		}
		for k := 1; k < 10; k++ {
			pattern = append(pattern, step{base + 10*float64(k), 5*half + k%5})
		}
	}
	i := 0
	return func() Transaction {
		st := pattern[i%len(pattern)]
		start := float64(i/len(pattern))*200 + st.at
		i++
		return Transaction{Start: start, End: start + 30, SNI: hosts[st.host]}
	}, len(pattern)
}

// TestStreamerPushIntoAllocs pins the steady state the daemon relies on:
// with a reused scratch slice, PushInto allocates nothing — across
// session boundaries, which reset the server set. One measured run is a
// whole lap of the stream, two boundaries included, so even one
// allocation per boundary shows.
func TestStreamerPushIntoAllocs(t *testing.T) {
	next, lapLen := recurringStream()
	s := NewStreamer(PaperParams)
	var dst []Decision
	for i := 0; i < 20*lapLen; i++ { // warm-up: let the buffers reach their size
		dst = s.PushInto(dst[:0], next())
	}
	boundaries := 0
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < lapLen; i++ {
			dst = s.PushInto(dst[:0], next())
			for _, d := range dst {
				if d.NewSession {
					boundaries++
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("PushInto allocates %.0f times per %d transactions in steady state", allocs, lapLen)
	}
	if boundaries == 0 {
		t.Fatal("the stream crossed no session boundary: the reset path went unmeasured")
	}
}

// BenchmarkStreamerPushInto measures the streamer with a reused
// decision slice, as cmd/qoeproxy drives it. One op is one lap of the
// recurring stream, two session boundaries included, so that
// scripts/check.sh's 0 allocs/op gate catches an allocation per
// boundary as well as one per transaction.
func BenchmarkStreamerPushInto(b *testing.B) {
	next, lapLen := recurringStream()
	s := NewStreamer(PaperParams)
	var dst []Decision
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < lapLen; j++ {
			dst = s.PushInto(dst[:0], next())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lapLen), "ns/txn")
}
