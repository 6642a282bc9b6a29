package serve

import (
	"cmp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/intern"
	"droppackets/internal/qoe"
)

// Shards is n Cores, each behind its own mutex, with a client placed on
// shard intern.Hash(host) % n. Open and Commit lock one shard, so
// clients on different shards ingest in parallel; Pass, Evict and Drain
// fan the shards out on min(GOMAXPROCS, n) workers, score each shard's
// rows through a Model outside its lock, and return their results in
// client order. Pass, Evict and Drain must not run concurrently with
// each other, nor Open or Commit with Drain; every other pair may.
//
// With fresh-client queues on, a shard is due once its Core's fresh
// queue holds one inference block of clients waiting for a first
// verdict: Commit reports it, and a Fresh Pass scores whole
// blocks of those clients without waiting for the periodic Dirty Pass.
// A Queued Pass scores every waiting client, a partial block included,
// which Waiting reports.
type Shards struct {
	shards     []shard
	workers    int
	batch      int           // rows per inference call
	contention atomic.Int64  // Open/Commit lock waits
	stamps     atomic.Uint64 // the last Model stamp

	// The Pass in progress and its per-shard half, bound once so a pass
	// on one worker allocates nothing.
	passModel  *Model
	passCutoff float64
	passScope  Scope
	passFn     func(w, si int)
	times      []time.Duration
}

// shard is a Core, its mutex and the scratch of Pass, Evict and Drain,
// which visit a shard on one worker: filled under mu, scored after.
type shard struct {
	mu   sync.Mutex
	core *Core

	block          []float64 // row-major rows to score
	rows, resident int
	classes        []int
	probs          []float64 // one inference call's class probabilities
	challenger     []int     // the challenger's classes
	scored         [qoe.NumCategories]int64
	disagree       [qoe.NumCategories][qoe.NumCategories]int64
	finals         []Final
	txns           []capture.TLSTransaction
	row            []float64
	err, shadowErr error
	gather, score  time.Duration
}

// defaultBatch is how many feature rows one inference call sweeps:
// large enough to amortize the call, small enough that the probability
// scratch stays in cache.
const defaultBatch = 256

// NewShards returns n empty shards (GOMAXPROCS when n <= 0) whose Cores
// are built with maxSessionTxns and hooks, and which score batch rows
// per inference call (256 when batch <= 0). With fresh, each Core
// queues its clients that wait for a first verdict, for Fresh Passes of
// batch clients at a time and Queued Passes of all of them; leave it
// off where no Pass will run, or the queues only grow. The hooks run
// under a shard lock, concurrently for distinct shards.
func NewShards(n, maxSessionTxns, batch int, fresh bool, hooks Hooks) *Shards {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if batch <= 0 {
		batch = defaultBatch
	}
	s := &Shards{shards: make([]shard, n), workers: min(runtime.GOMAXPROCS(0), n), batch: batch, times: make([]time.Duration, n)}
	for i := range s.shards {
		s.shards[i].core = New(maxSessionTxns, hooks)
		if fresh {
			s.shards[i].core.block = batch
		}
	}
	s.passFn = s.passShard
	return s
}

// Contention counts the Open and Commit lock acquisitions that found
// their shard held.
func (s *Shards) Contention() int64 { return s.contention.Load() }

func (s *Shards) index(host string) int { return int(intern.Hash(host) % uint32(len(s.shards))) }

func (s *Shards) of(host string) *shard { return &s.shards[s.index(host)] }

// lockIngest locks a shard for Open or Commit, counting a wait.
func (s *Shards) lockIngest(sh *shard) {
	if !sh.mu.TryLock() {
		s.contention.Add(1)
		sh.mu.Lock()
	}
}

// Open records a connection start on the client's Core (Core.Open).
func (s *Shards) Open(host string, connID uint64, start float64) {
	sh := s.of(host)
	s.lockIngest(sh)
	sh.core.Open(host, connID, start)
	sh.mu.Unlock()
}

// Completed is connection ConnID of Client completing with Txn.
type Completed struct {
	Client string
	ConnID uint64
	Txn    capture.TLSTransaction
	shard  int
}

// Commit folds a batch into its clients' Cores (Core.Commit), taking
// each shard's lock once per batch, in shard order, and committing
// within a shard in batch order, and reports whether a shard it
// committed to is due for a Fresh Pass. note, when non-nil, gets each
// transaction's End inside its shard's critical section, just before
// the commit, so no Pass on that shard sees what note advances without
// the commit.
func (s *Shards) Commit(batch []Completed, note func(end float64)) (due bool) {
	for i := range batch {
		batch[i].shard = s.index(batch[i].Client)
	}
	done := 0
	for si := 0; si < len(s.shards) && done < len(batch); si++ {
		sh, locked := &s.shards[si], false
		for i := range batch {
			if c := &batch[i]; c.shard == si {
				if !locked {
					s.lockIngest(sh)
					locked = true
				}
				if note != nil {
					note(c.Txn.End)
				}
				sh.core.Commit(c.Client, c.ConnID, c.Txn)
				done++
			}
		}
		if locked {
			due = due || sh.core.due()
			sh.mu.Unlock()
		}
	}
	return due
}

// Waiting reports whether any shard is due for a Fresh Pass, and
// whether any shard holds a client waiting for a first verdict, which a
// Queued Pass would score.
func (s *Shards) Waiting() (due, waiting bool) {
	s.each(func(c *Core) {
		due = due || c.due()
		waiting = waiting || len(c.fresh) > 0
	})
	return due, waiting
}

// forEach runs fn(worker, shard) for every shard on the workers; a
// worker index is used by one call at a time.
func (s *Shards) forEach(fn func(w, si int)) {
	if s.workers <= 1 {
		for si := range s.shards {
			fn(0, si)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range s.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := int(next.Add(1)) - 1; si < len(s.shards); si = int(next.Add(1)) - 1 {
				fn(w, si)
			}
		}()
	}
	wg.Wait()
}

// PassStats is what a Pass measured: the clients resident at the
// gathers, the time spent gathering (lock waits included) and scoring,
// summed over shards, each shard's gather plus score time (valid until
// the next Pass), the rows scored by class, the rows the challenger
// classed otherwise by primary × challenger class, and the challenger's
// error, which fails nothing else.
type PassStats struct {
	Resident      int
	Gather, Score time.Duration
	Shard         []time.Duration
	Scored        [qoe.NumCategories]int64
	Disagree      [qoe.NumCategories][qoe.NumCategories]int64
	ShadowErr     error
}

// Pass scores the clients scope selects under m: with Dirty, it brings
// every client's verdict up to date; with Fresh, it gives first
// verdicts to the whole blocks of each shard's fresh queue, and with
// Queued to every client of it. Each shard gathers its rows under its
// lock (Core.Gather), scores them outside it through m's primary and
// challenger, and once every shard has scored, each stores its classes
// (Core.Store); the Changes are appended to dst in client order. If a
// primary sweep fails, no shard stores, every gathered client stays
// dirty, and the lowest-numbered shard's error returns.
func (s *Shards) Pass(m *Model, cutoff float64, scope Scope, dst []Change) ([]Change, PassStats, error) {
	s.passModel, s.passCutoff, s.passScope = m, cutoff, scope
	s.forEach(s.passFn)
	s.passModel = nil
	st, err := PassStats{Shard: s.times}, error(nil)
	for si := range s.shards {
		sh := &s.shards[si]
		st.Resident += sh.resident
		st.Gather += sh.gather
		st.Score += sh.score
		s.times[si] = sh.gather + sh.score
		for p := range sh.scored {
			st.Scored[p] += sh.scored[p]
			for c := range sh.disagree[p] {
				st.Disagree[p][c] += sh.disagree[p][c]
			}
		}
		err = cmp.Or(err, sh.err)
		st.ShadowErr = cmp.Or(st.ShadowErr, sh.shadowErr)
	}
	n := len(dst)
	for si := range s.shards {
		if sh := &s.shards[si]; err != nil || sh.rows > 0 {
			sh.mu.Lock()
			if err != nil {
				sh.core.Discard()
			} else {
				dst = sh.core.Store(sh.classes, dst)
			}
			sh.mu.Unlock()
		}
	}
	slices.SortFunc(dst[n:], func(a, b Change) int { return strings.Compare(a.Client, b.Client) })
	return dst, st, err
}

func (s *Shards) passShard(w, si int) {
	m, sh := s.passModel, &s.shards[si]
	t0 := time.Now()
	sh.mu.Lock()
	sh.resident = sh.core.Len()
	sh.block, sh.rows = sh.core.Gather(m.stamp, s.passCutoff, m.rbs[w], sh.block[:0], s.passScope)
	sh.mu.Unlock()
	t1 := time.Now()
	sh.err, sh.shadowErr, sh.scored, sh.disagree = nil, nil, [qoe.NumCategories]int64{}, [qoe.NumCategories][qoe.NumCategories]int64{}
	if sh.rows > 0 {
		sh.err = sh.classify(m, s.batch)
	}
	sh.gather, sh.score = t1.Sub(t0), time.Since(t1)
}

// Evict retires the idle clients of every shard (Core.Evict) and
// returns their Finals in client order, scored as Drain scores them.
func (s *Shards) Evict(now, ttl float64, m *Model) ([]Final, error) {
	return s.retire(func(c *Core, dst []Final) []Final { return c.Evict(dst, now, ttl) }, m)
}

// Drain ends every client's stream (Core.Drain) and returns the Finals
// in client order. With a non-nil m, each Final's Verdict is its
// retained transactions' row scored by m's primary alone; it stays -1
// for a Final with no transaction, and for every Final when a sweep
// fails, which returns the error.
func (s *Shards) Drain(m *Model) ([]Final, error) {
	return s.retire((*Core).Drain, m)
}

func (s *Shards) retire(take func(*Core, []Final) []Final, m *Model) ([]Final, error) {
	s.forEach(func(w, si int) {
		sh := &s.shards[si]
		sh.mu.Lock()
		sh.finals = take(sh.core, sh.finals[:0])
		sh.mu.Unlock()
		sh.err = nil
		if m != nil {
			sh.err = sh.verdicts(m, m.rbs[w], s.batch)
		}
	})
	var all []Final
	var err error
	for si := range s.shards {
		sh := &s.shards[si]
		all = append(all, sh.finals...)
		clear(sh.finals) // a retired client must not live on in scratch
		err = cmp.Or(err, sh.err)
	}
	slices.SortFunc(all, func(a, b Final) int { return strings.Compare(a.Client, b.Client) })
	if err != nil {
		for i := range all {
			all[i].Verdict = -1
		}
	}
	return all, err
}

// verdicts scores one row per Final of the shard, built from its
// retained transactions through rb, into the Finals' Verdicts.
func (sh *shard) verdicts(m *Model, rb *core.RowBuilder, batch int) (err error) {
	sh.block, sh.rows = sh.block[:0], 0
	for i := range sh.finals {
		f := &sh.finals[i]
		if sh.txns = f.Transactions(sh.txns[:0]); len(sh.txns) > 0 {
			sh.row = rb.FeatureRow(sh.txns, sh.row)
			sh.block = append(sh.block, sh.row...)
			f.Verdict = sh.rows // the row's index until scored
			sh.rows++
		}
	}
	if sh.rows == 0 {
		return nil
	}
	if sh.classes, err = sh.infer(m.est, batch, sh.classes); err == nil {
		for i := range sh.finals {
			if f := &sh.finals[i]; f.Verdict >= 0 {
				f.Verdict = sh.classes[f.Verdict]
			}
		}
	}
	return err
}

// each calls f with every shard's Core, under the shard's lock.
func (s *Shards) each(f func(*Core)) {
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		f(sh.core)
		sh.mu.Unlock()
	}
}

// Len reports how many clients the shards hold.
func (s *Shards) Len() (n int) {
	s.each(func(c *Core) { n += c.Len() })
	return n
}

// Active reports how many clients have an ongoing session (Core.Active).
func (s *Shards) Active() (n int) {
	s.each(func(c *Core) { n += c.Active() })
	return n
}

// Save appends every client's state to dst in client order, each shard
// saved under its lock, so a stopped ingest saves the same bytes every
// time.
func (s *Shards) Save(dst []ClientState) []ClientState {
	n := len(dst)
	s.each(func(c *Core) { dst = c.Save(dst) })
	slices.SortFunc(dst[n:], func(a, b ClientState) int { return strings.Compare(a.Client, b.Client) })
	return dst
}

// Restore installs a saved client on its shard (Core.Restore).
func (s *Shards) Restore(st *ClientState, numClasses int) bool {
	sh := s.of(st.Client)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.core.Restore(st, numClasses)
}

// Client returns a client's state as Save would, if held.
func (s *Shards) Client(host string) (ClientState, bool) {
	sh := s.of(host)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.core.Client(host)
}

// Row returns a copy of the row Core.Row builds for a client.
func (s *Shards) Row(rb *core.RowBuilder, host string, cutoff float64) []float64 {
	sh := s.of(host)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return slices.Clone(sh.core.Row(rb, host, cutoff))
}
