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
)

// Shards is n Cores, each behind its own mutex, with a client placed on
// shard intern.Hash(host) % n. Open and Commit lock one shard, so
// clients on different shards ingest in parallel; Pass, Evict and Drain
// fan the shards out on min(GOMAXPROCS, n) workers and return their
// results in client order. Pass, Evict and Drain must not run
// concurrently with each other, nor Open or Commit with Drain; every
// other pair may.
type Shards struct {
	shards     []shard
	workers    int
	contention atomic.Int64 // Open/Commit lock waits

	// The Pass in progress and its per-shard half, bound once so a pass
	// on one worker allocates nothing.
	pass   passArgs
	passFn func(w, si int)
	times  []time.Duration
}

// shard is a Core, its mutex and the scratch of Pass, Evict and Drain,
// which visit a shard on one worker: filled under mu, scored after.
type shard struct {
	mu   sync.Mutex
	core *Core

	block          []float64 // row-major rows to score
	rows, resident int
	classes        []int
	finals         []Final
	txns           []capture.TLSTransaction
	row            []float64
	err            error
	gather, score  time.Duration
}

type passArgs struct {
	stamp  uint64
	cutoff float64
	rbs    []*core.RowBuilder
	score  Score
}

// Score classifies rows feature rows laid out row-major in block on
// worker w, returning one class per row in dst's backing array (grown
// when short). It runs outside every shard lock, concurrently for
// distinct workers.
type Score func(w int, block []float64, rows int, dst []int) ([]int, error)

// NewShards returns n empty shards (GOMAXPROCS when n <= 0) whose Cores
// are built with maxSessionTxns and hooks. The hooks run under a shard
// lock, concurrently for distinct shards.
func NewShards(n, maxSessionTxns int, hooks Hooks) *Shards {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Shards{shards: make([]shard, n), workers: min(runtime.GOMAXPROCS(0), n), times: make([]time.Duration, n)}
	for i := range s.shards {
		s.shards[i].core = New(maxSessionTxns, hooks)
	}
	s.passFn = s.passShard
	return s
}

// Workers is how many workers (row builders, Score worker indices)
// Pass, Evict and Drain fan out on.
func (s *Shards) Workers() int { return s.workers }

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
// within a shard in batch order. note, when non-nil, gets each
// transaction's End inside its shard's critical section, just before
// the commit, so no Pass on that shard sees what note advances without
// the commit.
func (s *Shards) Commit(batch []Completed, note func(end float64)) {
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
			sh.mu.Unlock()
		}
	}
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
// summed over shards, and each shard's gather plus score time (valid
// until the next Pass).
type PassStats struct {
	Resident      int
	Gather, Score time.Duration
	Shard         []time.Duration
}

// Pass brings every client's verdict up to date: each shard gathers its
// dirty rows under its lock (Core.Gather, through rbs[w]), score
// classifies them outside it, and once every shard has scored, each
// stores its classes (Core.Store); the Changes are appended to dst in
// client order. If a score fails, no shard stores, every gathered
// client stays dirty, and the lowest-numbered shard's error returns.
func (s *Shards) Pass(stamp uint64, cutoff float64, rbs []*core.RowBuilder, score Score, dst []Change) ([]Change, PassStats, error) {
	s.pass = passArgs{stamp, cutoff, rbs, score}
	s.forEach(s.passFn)
	s.pass = passArgs{}
	st, err := PassStats{Shard: s.times}, error(nil)
	for si := range s.shards {
		sh := &s.shards[si]
		st.Resident += sh.resident
		st.Gather += sh.gather
		st.Score += sh.score
		s.times[si] = sh.gather + sh.score
		err = cmp.Or(err, sh.err)
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
	p, sh := &s.pass, &s.shards[si]
	t0 := time.Now()
	sh.mu.Lock()
	sh.resident = sh.core.Len()
	sh.block, sh.rows = sh.core.Gather(p.stamp, p.cutoff, p.rbs[w], sh.block[:0])
	sh.mu.Unlock()
	t1 := time.Now()
	sh.err = nil
	if sh.rows > 0 {
		sh.classes, sh.err = p.score(w, sh.block, sh.rows, sh.classes)
	}
	sh.gather, sh.score = t1.Sub(t0), time.Since(t1)
}

// Evict retires the idle clients of every shard (Core.Evict) and
// returns their Finals in client order, scored as Drain scores them.
func (s *Shards) Evict(now, ttl float64, rbs []*core.RowBuilder, score Score) ([]Final, error) {
	return s.retire(func(c *Core, dst []Final) []Final { return c.Evict(dst, now, ttl) }, rbs, score)
}

// Drain ends every client's stream (Core.Drain) and returns the Finals
// in client order. With a non-nil score, each Final's Verdict is its
// retained transactions' row, built through rbs[w] and scored the way a
// Pass scores; it stays -1 for a Final with no transaction, and for
// every Final when a score fails, which returns the error.
func (s *Shards) Drain(rbs []*core.RowBuilder, score Score) ([]Final, error) {
	return s.retire((*Core).Drain, rbs, score)
}

func (s *Shards) retire(take func(*Core, []Final) []Final, rbs []*core.RowBuilder, score Score) ([]Final, error) {
	s.forEach(func(w, si int) {
		sh := &s.shards[si]
		sh.mu.Lock()
		sh.finals = take(sh.core, sh.finals[:0])
		sh.mu.Unlock()
		sh.err = nil
		if score != nil {
			sh.err = sh.verdicts(w, rbs[w], score)
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
// retained transactions, into the Finals' Verdicts.
func (sh *shard) verdicts(w int, rb *core.RowBuilder, score Score) (err error) {
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
	if sh.classes, err = score(w, sh.block, sh.rows, sh.classes); err == nil {
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
