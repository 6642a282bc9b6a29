package serve

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"droppackets/internal/capture"
	"droppackets/internal/core"
)

// rowClass is a stand-in model: a class in 0..2 that is a function of
// every bit of a row, so a row that changes at all likely changes
// class.
func rowClass(row []float64) int {
	var h uint64
	for _, v := range row {
		h = h*31 + math.Float64bits(v)
	}
	return int(h % 3)
}

// scoreRows is a Score over rowClass.
func scoreRows(_ int, block []float64, rows int, dst []int) ([]int, error) {
	dst = dst[:0]
	stride := len(block) / rows
	for r := 0; r < rows; r++ {
		dst = append(dst, rowClass(block[r*stride:(r+1)*stride]))
	}
	return dst, nil
}

var errScore = errors.New("model failed")

// failRows is a Score that always fails.
func failRows(int, []float64, int, []int) ([]int, error) { return nil, errScore }

// builders returns one row builder per worker of s.
func builders(s *Shards) []*core.RowBuilder {
	rbs := make([]*core.RowBuilder, s.Workers())
	for i := range rbs {
		rbs[i] = core.NewEstimator(core.Config{}).NewRowBuilder()
	}
	return rbs
}

// refPass is Shards.Pass on one Core: gather, score, store, Changes in
// client order.
func refPass(c *Core, stamp uint64, cutoff float64, rb *core.RowBuilder, score Score) ([]Change, error) {
	block, rows := c.Gather(stamp, cutoff, rb, nil)
	var classes []int
	var err error
	if rows > 0 {
		classes, err = score(0, block, rows, nil)
	}
	if err != nil {
		c.Discard()
		return nil, err
	}
	changes := c.Store(classes, nil)
	sort.Slice(changes, func(i, j int) bool { return changes[i].Client < changes[j].Client })
	return changes, nil
}

// refVerdicts sorts Finals by client and scores each one's retained
// transactions, as Shards.Evict and Drain do.
func refVerdicts(finals []Final, rb *core.RowBuilder) []Final {
	sort.Slice(finals, func(i, j int) bool { return finals[i].Client < finals[j].Client })
	for i := range finals {
		if txns := finals[i].Transactions(nil); len(txns) > 0 {
			finals[i].Verdict = rowClass(rb.FeatureRow(txns, nil))
		}
	}
	return finals
}

// finalViews makes Finals comparable: each one's retained transactions
// replace its ring pointer.
func finalViews(finals []Final) []finalView {
	out := make([]finalView, len(finals))
	for i, f := range finals {
		out[i] = finalView{Final: f, Recent: f.Transactions(nil)}
		out[i].Final.recent = nil
	}
	return out
}

// TestShardsMatchCore feeds one Open/Commit/Pass/Evict/Drain sequence
// to shard sets of several sizes and to a single reference Core. A
// shard set is one Core split by client, so at every size Save, every
// Pass's Changes, every Evict's and the Drain's Finals — verdicts
// included — must equal the reference's; so must a failed Pass, which
// stores nothing on any shard.
func TestShardsMatchCore(t *testing.T) {
	events := corpusEvents(t, 31, 40, 9)
	const maxTxns = 64
	for _, n := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ref := New(maxTxns, Hooks{})
			s := NewShards(n, maxTxns, Hooks{})
			rbs, rb := builders(s), core.NewEstimator(core.Config{}).NewRowBuilder()
			var batch []Completed
			play := func(events []event) {
				feed(ref, events)
				for _, e := range events {
					if e.open {
						s.Commit(batch, nil)
						batch = batch[:0]
						s.Open(e.client, e.conn, e.txn.Start)
					} else {
						batch = append(batch, Completed{Client: e.client, ConnID: e.conn, Txn: e.txn})
					}
				}
				s.Commit(batch, nil)
				batch = batch[:0]
			}
			same := func(step string) {
				t.Helper()
				if got, want := s.Save(nil), saved(ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Save differs from the reference core's", step)
				}
				if s.Len() != ref.Len() || s.Active() != ref.Active() {
					t.Fatalf("%s: %d clients, %d active; the reference has %d, %d", step, s.Len(), s.Active(), ref.Len(), ref.Active())
				}
			}
			pass := func(step string, stamp uint64, cutoff float64) {
				t.Helper()
				want, _ := refPass(ref, stamp, cutoff, rb, scoreRows)
				got, st, err := s.Pass(stamp, cutoff, rbs, scoreRows, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Pass changed %v, the reference %v", step, got, want)
				}
				if st.Resident != ref.Len() || len(st.Shard) != n {
					t.Fatalf("%s: stats %+v for %d resident clients", step, st, ref.Len())
				}
				same(step)
			}

			evicted := 0
			quarter := len(events) / 4
			for q := 0; q < 4; q++ {
				part := events[q*quarter : (q+1)*quarter]
				if q == 3 {
					part = events[q*quarter:]
				}
				play(part)
				now := part[len(part)-1].txn.End
				pass(fmt.Sprintf("quarter %d, whole session", q), 1, math.Inf(-1))
				pass(fmt.Sprintf("quarter %d, windowed", q), 2, now-60)
				if q == 1 {
					if _, _, err := s.Pass(3, now, rbs, failRows, nil); err != errScore {
						t.Fatalf("failed pass returned %v", err)
					}
					if _, err := refPass(ref, 3, now, rb, failRows); err != errScore {
						t.Fatal(err)
					}
					same("after a failed pass")
				}
				got, err := s.Evict(now, 120, rbs, scoreRows)
				if err != nil {
					t.Fatal(err)
				}
				want := refVerdicts(ref.Evict(nil, now, 120), rb)
				if !reflect.DeepEqual(finalViews(got), finalViews(want)) {
					t.Fatalf("quarter %d: Evict retired %d clients, the reference %d, or differently", q, len(got), len(want))
				}
				evicted += len(got)
				same(fmt.Sprintf("quarter %d, evicted", q))
			}
			if evicted == 0 {
				t.Fatal("no client was evicted; Evict went untested")
			}
			got, err := s.Drain(rbs, scoreRows)
			if err != nil {
				t.Fatal(err)
			}
			want := refVerdicts(ref.Drain(nil), rb)
			if !reflect.DeepEqual(finalViews(got), finalViews(want)) {
				t.Fatal("Drain differs from the reference core's")
			}
			scored := 0
			for _, f := range got {
				if f.Verdict >= 0 {
					scored++
				}
			}
			if scored == 0 {
				t.Fatal("no Final was scored")
			}
			got, err = s.Drain(rbs, failRows)
			if err != errScore || len(got) != ref.Len() {
				t.Fatalf("Drain with a failing score: %d Finals, %v", len(got), err)
			}
			for _, f := range got {
				if f.Verdict != -1 {
					t.Fatalf("a failed final score left client %s verdict %d", f.Client, f.Verdict)
				}
			}
		})
	}
}

// TestShardsConcurrentCommit runs Open and Commit from several
// goroutines against Pass and Evict on another, as the daemon's ingest
// and classify tick do. Every committed transaction must be accounted
// for exactly once, in an evicted client's Final or in the Drain, and
// the race detector must find nothing.
func TestShardsConcurrentCommit(t *testing.T) {
	const writers, clients, perClient = 4, 200, 6
	s := NewShards(3, 16, Hooks{})
	rbs := builders(s)
	var clock atomic.Int64 // the latest transaction end, whole seconds
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn := uint64(w) << 32
			batch := make([]Completed, 0, 4)
			for c := 0; c < clients; c++ {
				host := fmt.Sprintf("10.%d.0.%d", w, c)
				for k := 0; k < perClient; k++ {
					at := float64(c*100 + k*2)
					conn++
					s.Open(host, conn, at)
					batch = append(batch, Completed{Client: host, ConnID: conn,
						Txn: capture.TLSTransaction{SNI: "cdn.example", Start: at, End: at + 1, UpBytes: 1, DownBytes: 100}})
					if len(batch) == cap(batch) {
						s.Commit(batch, func(end float64) {
							for {
								old := clock.Load()
								if int64(end) <= old || clock.CompareAndSwap(old, int64(end)) {
									return
								}
							}
						})
						batch = batch[:0]
					}
				}
			}
			s.Commit(batch, nil)
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var evicted int64
	for stamp := uint64(1); ; stamp++ {
		now := float64(clock.Load())
		if _, _, err := s.Pass(stamp, now-50, rbs, scoreRows, nil); err != nil {
			t.Fatal(err)
		}
		finals, err := s.Evict(now, 50, rbs, scoreRows)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range finals {
			evicted += f.Txns
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	finals, err := s.Drain(rbs, scoreRows)
	if err != nil {
		t.Fatal(err)
	}
	resident := int64(0)
	for _, f := range finals {
		resident += f.Txns
	}
	if total := int64(writers * clients * perClient); evicted+resident != total {
		t.Fatalf("%d transactions evicted and %d resident, %d committed", evicted, resident, total)
	}
}
