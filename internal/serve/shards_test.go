package serve

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/stats"
)

var (
	trainOnce           sync.Once
	primary, challenger *core.Estimator
	trainErr            error
)

// trained returns two small forests trained once per test binary on the
// same 60 Svc1 sessions, so they differ on some rows: the primary (8
// trees) and a challenger (2 trees, another seed).
func trained(t testing.TB) (*core.Estimator, *core.Estimator) {
	t.Helper()
	trainOnce.Do(func() {
		corpus, err := dataset.Build(dataset.Config{Seed: 5, Sessions: 60}, has.Svc1())
		if err != nil {
			trainErr = err
			return
		}
		var training []core.TrainingSession
		for _, r := range corpus.Records {
			training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
		}
		train := func(trees int, seed int64) *core.Estimator {
			est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: trees, Seed: seed}})
			if err := est.Train(training); err != nil {
				trainErr = err
			}
			return est
		}
		primary, challenger = train(8, 5), train(2, 7)
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return primary, challenger
}

// untrained is an estimator whose every sweep fails.
func untrained() *core.Estimator {
	return core.NewEstimator(core.Config{Metric: qoe.MetricCombined})
}

// newModel is s.NewModel, failing the test on error.
func newModel(t testing.TB, s *Shards, est, shadow *core.Estimator) *Model {
	t.Helper()
	m, err := s.NewModel(est, shadow)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// classifyEach scores each of the rows row-major rows in block through
// est one row per call.
func classifyEach(est *core.Estimator, block []float64, rows int) ([]int, error) {
	stride := est.NumFeatures()
	classes := make([]int, rows)
	probs := make([]float64, est.NumClasses())
	for r := range classes {
		if err := est.ClassifyBlockInto(block[r*stride:(r+1)*stride], 1, probs, classes[r:r+1]); err != nil {
			return nil, err
		}
	}
	return classes, nil
}

// refPass is Shards.Pass on one Core: gather under stamp, score through
// est row by row, store, Changes in client order.
func refPass(c *Core, stamp uint64, cutoff float64, est *core.Estimator) ([]Change, error) {
	block, rows := c.Gather(stamp, cutoff, est.NewRowBuilder(), nil)
	classes, err := classifyEach(est, block, rows)
	if err != nil {
		c.Discard()
		return nil, err
	}
	changes := c.Store(classes, nil)
	sort.Slice(changes, func(i, j int) bool { return changes[i].Client < changes[j].Client })
	return changes, nil
}

// refVerdicts sorts Finals by client and scores each one's retained
// transactions through est, as Shards.Evict and Drain do.
func refVerdicts(t *testing.T, finals []Final, est *core.Estimator) []Final {
	t.Helper()
	sort.Slice(finals, func(i, j int) bool { return finals[i].Client < finals[j].Client })
	for i := range finals {
		if txns := finals[i].Transactions(nil); len(txns) > 0 {
			class, err := est.Classify(txns)
			if err != nil {
				t.Fatal(err)
			}
			finals[i].Verdict = class
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

// play feeds events to s, committing each run of completions between
// two opens as one batch.
func play(s *Shards, events []event) {
	var batch []Completed
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
}

// TestShardsMatchCore feeds one Open/Commit/Pass/Evict/Drain sequence
// to shard sets of several sizes and to a single reference Core. A
// shard set is one Core split by client, so at every size Save, every
// Pass's Changes, every Evict's and the Drain's Finals — verdicts
// included — must equal the reference's; so must a failed Pass, which
// stores nothing on any shard.
func TestShardsMatchCore(t *testing.T) {
	est, _ := trained(t)
	events := corpusEvents(t, 31, 40, 9)
	const maxTxns = 64
	for _, n := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ref := New(maxTxns, Hooks{})
			s := NewShards(n, maxTxns, 0, Hooks{})
			// Two bundles of one estimator, so alternating them re-scores
			// every client, and one whose every sweep fails.
			whole, windowed := newModel(t, s, est, nil), newModel(t, s, est, nil)
			bad := newModel(t, s, untrained(), nil)
			same := func(step string) {
				t.Helper()
				if got, want := s.Save(nil), saved(ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Save differs from the reference core's", step)
				}
				if s.Len() != ref.Len() || s.Active() != ref.Active() {
					t.Fatalf("%s: %d clients, %d active; the reference has %d, %d", step, s.Len(), s.Active(), ref.Len(), ref.Active())
				}
			}
			pass := func(step string, m *Model, cutoff float64) {
				t.Helper()
				want, err := refPass(ref, m.Stamp(), cutoff, est)
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := s.Pass(m, cutoff, nil)
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
				feed(ref, part)
				play(s, part)
				now := part[len(part)-1].txn.End
				pass(fmt.Sprintf("quarter %d, whole session", q), whole, math.Inf(-1))
				pass(fmt.Sprintf("quarter %d, windowed", q), windowed, now-60)
				if q == 1 {
					if _, _, err := s.Pass(bad, now, nil); err == nil {
						t.Fatal("a pass through an untrained estimator succeeded")
					}
					if _, err := refPass(ref, bad.Stamp(), now, bad.Primary()); err == nil {
						t.Fatal("the reference scored through an untrained estimator")
					}
					same("after a failed pass")
				}
				got, err := s.Evict(now, 120, whole)
				if err != nil {
					t.Fatal(err)
				}
				want := refVerdicts(t, ref.Evict(nil, now, 120), est)
				if !reflect.DeepEqual(finalViews(got), finalViews(want)) {
					t.Fatalf("quarter %d: Evict retired %d clients, the reference %d, or differently", q, len(got), len(want))
				}
				evicted += len(got)
				same(fmt.Sprintf("quarter %d, evicted", q))
			}
			if evicted == 0 {
				t.Fatal("no client was evicted; Evict went untested")
			}
			got, err := s.Drain(whole)
			if err != nil {
				t.Fatal(err)
			}
			want := refVerdicts(t, ref.Drain(nil), est)
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
			got, err = s.Drain(bad)
			if err == nil || len(got) != ref.Len() {
				t.Fatalf("Drain through an untrained estimator: %d Finals, %v", len(got), err)
			}
			for _, f := range got {
				if f.Verdict != -1 {
					t.Fatalf("a failed final score left client %s verdict %d", f.Client, f.Verdict)
				}
			}
			if got, err = s.Drain(nil); err != nil || len(got) != ref.Len() {
				t.Fatalf("Drain without a model: %d Finals, %v", len(got), err)
			}
			for _, f := range got {
				if f.Verdict != -1 {
					t.Fatalf("Drain without a model scored client %s", f.Client)
				}
			}
		})
	}
}

// TestModelPassCounts checks what a Pass counts against the estimators
// applied directly. Under a fresh stamp a whole-session Pass gathers
// every client with a transaction in its ongoing session, so the rows
// it scores by class must equal est.Classify over those sessions, and
// its disagreement cells a row-by-row comparison with the challenger's
// Classify — at every shard count and inference block size.
func TestModelPassCounts(t *testing.T) {
	est, shadow := trained(t)
	events := corpusEvents(t, 37, 40, 9)
	for _, n := range []int{1, 2, 7} {
		for _, batch := range []int{1, 7, 0} {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", n, batch), func(t *testing.T) {
				s := NewShards(n, 64, batch, Hooks{})
				m := newModel(t, s, est, shadow)
				half := len(events) / 2
				disagreed := int64(0)
				for step, part := range [][]event{events[:half], events[half:]} {
					play(s, part)
					var scored [qoe.NumCategories]int64
					var cells [qoe.NumCategories][qoe.NumCategories]int64
					for _, cs := range s.Save(nil) {
						session := append(append(append([]capture.TLSTransaction(nil), cs.Current...), cs.InFlight...), cs.Buffer...)
						if len(session) == 0 {
							continue
						}
						p, err := est.Classify(session)
						if err != nil {
							t.Fatal(err)
						}
						c, err := shadow.Classify(session)
						if err != nil {
							t.Fatal(err)
						}
						scored[p]++
						if c != p {
							cells[p][c]++
						}
					}
					m = s.Restamp(m)
					_, st, err := s.Pass(m, math.Inf(-1), nil)
					if err != nil || st.ShadowErr != nil {
						t.Fatal(err, st.ShadowErr)
					}
					if st.Scored != scored {
						t.Errorf("step %d: scored %v by class, Classify gives %v", step, st.Scored, scored)
					}
					if st.Disagree != cells {
						t.Errorf("step %d: disagreement cells %v, Classify gives %v", step, st.Disagree, cells)
					}
					for p := range cells {
						for c := range cells[p] {
							disagreed += cells[p][c]
						}
					}
				}
				if disagreed == 0 {
					t.Fatal("the challenger never disagreed; the cells went untested")
				}
			})
		}
	}
}

// TestModelShadowErr: a challenger that fails fails nothing else — the
// pass stores the primary's classes and reports the challenger's error.
func TestModelShadowErr(t *testing.T) {
	est, _ := trained(t)
	s := NewShards(2, 64, 0, Hooks{})
	play(s, corpusEvents(t, 41, 8, 4))
	m := newModel(t, s, est, untrained())
	changes, st, err := s.Pass(m, math.Inf(-1), nil)
	if err != nil || st.ShadowErr == nil || len(changes) == 0 {
		t.Fatalf("pass with a failing challenger: %d changes, %v, challenger %v", len(changes), err, st.ShadowErr)
	}
	if st.Disagree != ([qoe.NumCategories][qoe.NumCategories]int64{}) {
		t.Errorf("a failed challenger counted disagreements %v", st.Disagree)
	}
}

// TestDriftZScores: a feature reads (observed mean − baseline mean) /
// baseline std, and 0 where that is undefined — a zero-variance
// baseline, or no observations.
func TestDriftZScores(t *testing.T) {
	d := &Drift{names: []string{"a", "b"}, baseMean: []float64{1, 5}, baseStd: []float64{2, 0}, obs: make([]stats.Running, 2)}
	if _, zs := d.ZScores(); zs[0] != 0 || zs[1] != 0 {
		t.Fatalf("z-scores before any observation: %v, want zeros", zs)
	}
	d.observe([]float64{4, 9, 6, 9}, 2, 2)
	names, zs := d.ZScores()
	if !reflect.DeepEqual(names, []string{"a", "b"}) || zs[0] != 2 || zs[1] != 0 {
		t.Fatalf("z-scores %v %v, want [a b] [2 0]", names, zs)
	}
}

// TestShardsConcurrentCommit runs Open and Commit from several
// goroutines against Pass and Evict on another, as the daemon's ingest
// and classify tick do. Every committed transaction must be accounted
// for exactly once, in an evicted client's Final or in the Drain, and
// the race detector must find nothing.
func TestShardsConcurrentCommit(t *testing.T) {
	const writers, clients, perClient = 4, 200, 6
	est, _ := trained(t)
	s := NewShards(3, 16, 0, Hooks{})
	m := newModel(t, s, est, nil)
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
	for {
		now := float64(clock.Load())
		m = s.Restamp(m)
		if _, _, err := s.Pass(m, now-50, nil); err != nil {
			t.Fatal(err)
		}
		finals, err := s.Evict(now, 50, m)
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
	finals, err := s.Drain(m)
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
