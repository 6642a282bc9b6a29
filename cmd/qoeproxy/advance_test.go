package main

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"droppackets/internal/sessionid"
)

// TestAdvanceLongLivedConnection holds long-lived connections open
// across a client's traffic — sixty sessions of fifty transactions,
// each opened by a burst to new servers — so their starts pin the
// sessionizer watermark and thousands of completed transactions queue
// in the client's reorder buffer. Connection A spans sessions 0–39 and
// B sessions 20–59: closing A releases the buffered prefix up to B's
// start and leaves the rest queued; closing B releases that. The result
// must be what the offline heuristic gives on the same transactions:
// the same number of boundaries, and the last session's transactions,
// byte counts included, in start order.
func TestAdvanceLongLivedConnection(t *testing.T) {
	const (
		client   = "10.70.0.1"
		sessions = 60
		perSess  = 50
	)
	s, _ := newTestService(t, options{window: time.Hour, maxSessionTxns: 6144}, nil)

	sessStart := func(k int) float64 { return float64(k*perSess) + 1 }
	end := sessStart(sessions) + 10
	connA := s.record(1, client, "long-a.example", 0, sessStart(40)-0.1, 1, 10)
	connB := s.record(2, client, "long-b.example", sessStart(20)-0.5, end, 2, 20)
	all := []sessionid.Transaction{
		{Start: 0, End: sessStart(40) - 0.1, SNI: "long-a.example"},
		{Start: sessStart(20) - 0.5, End: end, SNI: "long-b.example"},
	}
	s.onConnOpen(connA)
	id := uint64(2)
	cs := s.client(client)
	for k := 0; k < sessions; k++ {
		switch k {
		case 20:
			s.onConnOpen(connB)
		case 40:
			buffered := len(cs.buffer)
			deliver(s, connA)
			released := 1 // A itself, then every transaction starting by B
			for _, txn := range all[2:] {
				if txn.Start <= connB.Start.Sub(s.epoch).Seconds() {
					released++
				}
			}
			if released == 1 || len(cs.buffer) != buffered+1-released {
				t.Fatalf("closing A left %d of %d buffered, want %d", len(cs.buffer), buffered+1, buffered+1-released)
			}
		}
		base := sessStart(k)
		for j := 0; j < perSess; j++ {
			start := base + float64(j)
			if j < 3 {
				start = base + 0.1*float64(j) // the opening burst
			}
			sni := fmt.Sprintf("s%d-%c.example", k, 'a'+j%3)
			id++
			r := s.record(id, client, sni, start, start+0.5, int64(id), int64(10*id))
			s.onConnOpen(r)
			deliver(s, r)
			all = append(all, sessionid.Transaction{Start: start, End: start + 0.5, SNI: sni})
		}
	}
	if len(cs.buffer) < 1000 {
		t.Fatalf("only %d transactions buffered behind B", len(cs.buffer))
	}

	deliver(s, connB)
	sh := s.shardFor(client)
	sh.mu.Lock()
	s.apply(client, cs, cs.streamer.Flush())
	sh.mu.Unlock()

	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	want := sessionid.Detect(all, sessionid.PaperParams)
	wantBoundaries, last := int64(0), 0
	for i, isNew := range want {
		if isNew {
			wantBoundaries++
			last = i
		}
	}
	if wantBoundaries < sessions {
		t.Fatalf("the offline heuristic finds %d boundaries, the trace was built with %d sessions", wantBoundaries, sessions)
	}
	if cs.boundaries != wantBoundaries || s.mBoundaries.Value() != wantBoundaries {
		t.Errorf("%d boundaries (metric %d), want %d", cs.boundaries, s.mBoundaries.Value(), wantBoundaries)
	}
	if len(cs.buffer) != 0 || len(cs.inFlight) != 0 {
		t.Errorf("%d buffered and %d in flight after the flush", len(cs.buffer), len(cs.inFlight))
	}
	tail := all[last:]
	if len(cs.current) != len(tail) {
		t.Fatalf("last session holds %d transactions, want %d", len(cs.current), len(tail))
	}
	for i, txn := range cs.current {
		w := tail[i]
		// Every record's down bytes are ten times its up bytes, so a
		// transaction's counts travelled with it.
		if txn.Start != w.Start || txn.SNI != w.SNI || txn.DownBytes != 10*txn.UpBytes {
			t.Fatalf("last session transaction %d = %+v, want start %v sni %s", i, txn, w.Start, w.SNI)
		}
	}
}
