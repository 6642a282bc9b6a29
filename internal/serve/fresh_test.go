package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"droppackets/internal/capture"
)

// freshHost names the i-th client of the fresh-queue tests.
func freshHost(i int) string { return fmt.Sprintf("10.90.%d.%d", i/250, i%250+1) }

// commitOne opens and commits one transaction of client i at time at.
func commitOne(s *Shards, i int, at float64) {
	conn := uint64(i)<<32 | uint64(at)
	s.Open(freshHost(i), conn, at)
	s.Commit([]Completed{{Client: freshHost(i), ConnID: conn,
		Txn: capture.TLSTransaction{SNI: "cdn.example", Start: at, End: at + 1, UpBytes: 400, DownBytes: 90_000}}}, nil)
}

// rows is the number of rows a Pass scored.
func rows(st PassStats) (n int64) {
	for _, c := range st.Scored {
		n += c
	}
	return n
}

// TestFreshOncePerInterval pins the once-per-interval rule: a client
// whose first verdict a Fresh Pass gave is skipped by the next Dirty
// Pass even with a commit since, scored again by the one after, and not
// skipped at all when the bundle stamp changed in between.
func TestFreshOncePerInterval(t *testing.T) {
	est, _ := trained(t)
	const block = 4
	s := NewShards(1, 0, block, true, Hooks{})
	m := newModel(t, s, est, nil)
	pass := func(step string, m *Model, scope Scope, want int64) {
		t.Helper()
		_, st, err := s.Pass(m, math.Inf(-1), scope, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rows(st); got != want {
			t.Fatalf("%s: scored %d rows, want %d", step, got, want)
		}
	}

	for i := 0; i < block-1; i++ {
		commitOne(s, i, 10)
	}
	if s.Due() {
		t.Fatal("due with a partial block queued")
	}
	pass("partial block", m, Fresh, 0)
	commitOne(s, block-1, 10)
	if !s.Due() {
		t.Fatal("not due with a full block queued")
	}
	pass("full block", m, Fresh, block)
	if s.Due() {
		t.Fatal("still due after the block was scored")
	}

	commitOne(s, 0, 20) // client 0 is dirty again
	pass("the tick after the block pass", m, Dirty, 0)
	pass("the tick after that", m, Dirty, 1)
	pass("a tick with nothing changed", m, Dirty, 0)

	for i := block; i < 2*block; i++ {
		commitOne(s, i, 30)
	}
	pass("second block", m, Fresh, block)
	m = s.Restamp(m)
	pass("the tick after a restamp", m, Dirty, 2*block)
	pass("the tick after that", m, Dirty, 0)
}

// TestFreshCommitWhileScored: a client that commits between the Gather
// that collects it for its first verdict and the Store (or Discard) of
// that pass is not queued again. A second entry would count towards a
// block without needing a verdict, so how many clients are left for the
// tick would depend on when commits land relative to passes.
func TestFreshCommitWhileScored(t *testing.T) {
	est, _ := trained(t)
	const block = 4
	s := NewShards(1, 0, block, true, Hooks{})
	c := s.shards[0].core
	for i := 0; i < block; i++ {
		commitOne(s, i, 10)
	}
	for stamp, scope := range []Scope{Fresh, Dirty} {
		buf, n := c.Gather(uint64(stamp+1), math.Inf(-1), est.NewRowBuilder(), nil, scope)
		if n == 0 {
			t.Fatalf("scope %d: Gather collected no row", scope)
		}
		commitOne(s, 0, 20) // lands while the rows are scored
		if len(c.fresh) != 0 {
			t.Fatalf("scope %d: a commit during the pass queued %d clients again", scope, len(c.fresh))
		}
		if scope == Fresh {
			classes, err := classifyEach(est, buf, n)
			if err != nil {
				t.Fatal(err)
			}
			c.Store(classes, nil)
			commitOne(s, 0, 30)
			if len(c.fresh) != 0 {
				t.Fatal("a client with a verdict was queued")
			}
			// Back to no verdict, as a restored client without one.
			for i := 0; i < block; i++ {
				c.clients[freshHost(i)].hasClass = false
			}
			continue
		}
		c.Discard()
		commitOne(s, 1, 40) // a failed pass: the next commit queues again
		if len(c.fresh) != 1 || c.fresh[0].host != freshHost(1) {
			t.Fatalf("after a discarded pass the queue holds %d clients, want only %s", len(c.fresh), freshHost(1))
		}
	}
}

// TestFreshQueueBounds: without queueing (no model, or no periodic
// pass, in the daemon) commits leave the fresh queue empty, and with it
// an evicted client leaves the queue, so it neither grows nor holds a
// retired client.
func TestFreshQueueBounds(t *testing.T) {
	const block = 4
	off := NewShards(1, 0, block, false, Hooks{})
	for i := 0; i < 3*block; i++ {
		commitOne(off, i, 10)
	}
	if n := len(off.shards[0].core.fresh); n != 0 || off.Due() {
		t.Fatalf("queueing off: %d clients queued, due %v", n, off.Due())
	}

	on := NewShards(1, 0, block, true, Hooks{})
	for i := 0; i < block-1; i++ {
		commitOne(on, i, 10)
	}
	commitOne(on, block, 100) // a later client, not idle at the eviction
	if _, err := on.Evict(80, 60, nil); err != nil {
		t.Fatal(err)
	}
	c := on.shards[0].core
	if len(c.fresh) != 1 || c.fresh[0].host != freshHost(block) {
		t.Fatalf("after the eviction the queue holds %d clients, want only %s", len(c.fresh), freshHost(block))
	}
	for i := 0; i < block-1; i++ {
		commitOne(on, block+1+i, 100)
	}
	if !on.Due() {
		t.Fatal("a full block of resident clients is not due")
	}
}

// TestFreshPassesRaceCommits runs Fresh and Dirty Passes on one
// goroutine, as the daemon's serve loop does, against commits of new
// clients from several others. Every client must end with a verdict
// after a last Dirty Pass, no client may get two first verdicts, and
// the race detector must find nothing.
func TestFreshPassesRaceCommits(t *testing.T) {
	est, _ := trained(t)
	const writers, clients = 4, 300
	s := NewShards(3, 16, 8, true, Hooks{})
	m := newModel(t, s, est, nil)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < clients; c++ {
				commitOne(s, w*clients+c, float64(c))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	first := map[string]bool{}
	note := func(changes []Change) {
		for _, ch := range changes {
			if ch.Prev < 0 {
				if first[ch.Client] {
					t.Fatalf("client %s got a second first verdict", ch.Client)
				}
				first[ch.Client] = true
			}
		}
	}
	freshPasses := 0
	for ticks := 0; ; ticks++ {
		// Read before the passes, so the last round sees every commit.
		finished := false
		select {
		case <-done:
			finished = true
		default:
		}
		if s.Due() {
			changes, _, err := s.Pass(m, math.Inf(-1), Fresh, nil)
			if err != nil {
				t.Fatal(err)
			}
			note(changes)
			freshPasses++
		}
		// No Dirty Pass before the first Fresh one, which the last round
		// therefore always gets to run.
		if freshPasses > 0 && ticks%8 == 7 {
			changes, _, err := s.Pass(m, math.Inf(-1), Dirty, nil)
			if err != nil {
				t.Fatal(err)
			}
			note(changes)
		}
		if finished {
			break
		}
	}
	if freshPasses == 0 {
		t.Fatal("no Fresh Pass ran")
	}
	changes, _, err := s.Pass(m, math.Inf(-1), Dirty, nil)
	if err != nil {
		t.Fatal(err)
	}
	note(changes)
	if len(first) != writers*clients {
		t.Fatalf("%d clients have a verdict, %d committed", len(first), writers*clients)
	}
}
