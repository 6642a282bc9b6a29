// Package serve is the per-client half of the qoeproxy daemon: the
// paper's pipeline — sessionize, build the 38-feature row, classify —
// run online for every client of one shard. A Core holds the clients'
// state and is driven only by calls: Open and Commit feed it connection
// starts and completed transactions, Gather and Store bracket one
// classification pass — over every dirty client, or over the clients
// still waiting for a first verdict — Evict and Drain retire clients,
// Save and Restore carry them across a restart.
//
// A Core starts no goroutines, takes no locks, reads no clock and does
// no I/O. The caller serializes every call on one Core, supplies the
// time (the sweep clock and the window cutoff) and runs inference
// itself, between Gather and Store, so that the model sweep need not
// hold the Core. What the Core observes along the way — session
// boundaries, truncated sessions — reaches the caller through Hooks;
// class changes and retired clients come back as return values.
//
// A Core's output is a function of its call sequence alone: two cores
// fed the same calls hold the same state, and a core restored from a
// Save continues exactly as the saved one would have.
//
// Shards, the form the daemon serves from, is N Cores routed by a hash
// of the host, and runs inference itself: a pass, an eviction sweep or
// a drain fans the shards out over workers and scores each shard's rows
// outside its lock through a Model — the primary estimator, an optional
// challenger and a drift tracker — which the caller builds from the
// Shards and swaps per call. Its output equals one Core's fed the same
// calls and scored by the same estimator.
package serve

import (
	"math"
	"slices"
	"sort"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/sessionid"
	"droppackets/internal/stats"
)

// Hooks receive what a Core observes as it happens, while the caller's
// call is in progress. Either may be nil.
type Hooks struct {
	// Boundary is called at each detected session start with the
	// client's boundary count including it and the number of
	// transactions in the session it closes.
	Boundary func(client string, boundaries int64, closedTxns int)
	// Truncated is called the first time a client's current session
	// drops transactions to the retention cap.
	Truncated func()
}

// Core owns the serving state of one shard's clients. The zero value
// is unusable; build one with New.
type Core struct {
	maxTxns int
	hooks   Hooks
	clients map[string]*client

	// Read-time scratch, shared by every client because only one call
	// runs at a time: a row build lists a client's transactions in txns
	// and builds its row in row, and advance collects the sessionizer's
	// decisions in decisions. Keeping these here instead of on each
	// client saves their capacity once per resident client.
	txns      []capture.TLSTransaction
	row       []float64
	decisions []sessionid.Decision

	// rows are the clients the last Gather collected, index-aligned with
	// the rows it appended to the caller's block; stamp and scope are the
	// bundle stamp it gathered them for and its Scope. Store consumes
	// all three.
	rows  []gathered
	stamp uint64
	scope Scope

	// fresh queues, oldest first, the clients that have committed with
	// no verdict since they last left it, each at most once
	// (client.queued): what a Fresh Gather scores, block clients at a
	// time, and a Queued Gather scores whole. block is set by NewShards;
	// at 0, as New leaves it, nothing is queued and neither Gather
	// collects anything.
	fresh []freshClient
	block int
}

// freshClient is one entry of the fresh queue.
type freshClient struct {
	host string
	cl   *client
}

// Scope selects the clients a Gather collects.
type Scope int

const (
	// Dirty is every client whose verdict is out of date: the periodic
	// pass.
	Dirty Scope = iota
	// Fresh is the front of the fresh queue in whole blocks: clients
	// that committed and still wait for a first verdict, oldest first.
	Fresh
	// Queued is the whole fresh queue, a last partial block included.
	Queued
)

// New returns an empty Core. maxSessionTxns caps each client's
// retained transaction runs (0 = unbounded), as qoeproxy's
// -max-session-txns does.
func New(maxSessionTxns int, hooks Hooks) *Core {
	return &Core{maxTxns: maxSessionTxns, hooks: hooks, clients: map[string]*client{}}
}

// due reports whether the fresh queue holds at least one whole block.
func (c *Core) due() bool { return c.block > 0 && len(c.fresh) >= c.block }

// client is everything the Core tracks per client host.
type client struct {
	streamer *sessionid.Streamer
	// activeStarts lists the in-flight connections with their start time
	// in epoch seconds, unordered (append on open, swap-delete on close);
	// the minimum start is the sessionizer watermark. A client has a
	// handful open at once, so a scan beats a map in time and space.
	activeStarts []activeConn
	// buffer holds completed transactions not yet safe to hand the
	// (start-ordered) streamer, sorted by Start. It keeps each SNI,
	// which advance hands to the streamer; from there on the streamer
	// keeps the SNIs it needs and the runs below drop them.
	buffer []capture.TLSTransaction
	// inFlight mirrors the streamer's pending transactions with their
	// byte counts; decisions pop from the front.
	inFlight []retained
	// current accumulates the decided transactions of the current
	// session; a detected boundary resets it. A row build rescans
	// current ++ inFlight ++ buffer — about ten transactions for a
	// typical session, so no per-client feature state is kept between
	// passes.
	//
	// Invariant: current ++ inFlight ++ buffer is the client's ongoing
	// session in start order, with no sort needed. The watermark
	// (minimum start among open connections) never decreases,
	// transactions are released to the streamer in start order, and
	// every buffered transaction starts strictly after every released
	// one — so the three runs concatenate sorted. Observed traffic
	// belongs to the ongoing session until a boundary says otherwise,
	// which keeps a client with one long-lived connection classifiable
	// before any look-ahead window ever closes.
	current []retained
	// recent retains the most recent transactions (capped at
	// maxSessionTxns) for the retirement summary; lifetime aggregates
	// below summarize what the ring has dropped.
	recent *txnRing
	// lastActivity is the latest transaction end (or connection start)
	// in epoch seconds; Evict compares it to the idle TTL.
	lastActivity float64
	// txns, upBytes and downBytes are lifetime totals; durStats
	// aggregates transaction durations online — all O(1) state.
	txns               int64
	upBytes, downBytes int64
	durStats           stats.Running
	// boundaries counts detected session starts.
	boundaries int64
	// truncated marks that the current session already reported
	// Hooks.Truncated; reset at each boundary.
	truncated bool
	// lastClass is the client's current verdict (hasClass guards it).
	lastClass int
	hasClass  bool
	// queued marks the client as on the Core's fresh queue, or as
	// gathered for its first verdict and not yet stored (see gather).
	queued bool
	// early marks a verdict a Fresh or Queued pass stored since the
	// last Dirty Gather, which then skips the client once under the same
	// stamp, so that a client is scored at most once per periodic
	// interval.
	early bool
	// gen counts the commits folded into this client. Commit is the only
	// place the inputs of the client's feature row (current, inFlight,
	// buffer) change, so an unchanged gen means an unchanged row —
	// except at the window edge, see rowEdge.
	gen uint32
	// scoredGen and scoredBy say what lastClass was scored from: the
	// generation gathered and the stamp of the bundle that scored it.
	// Both are written when the class is stored, not when the row is
	// gathered, so a commit landing in between, or a failed pass, leaves
	// the client dirty. Gather skips a client whose scoredGen is its gen
	// and whose scoredBy is the pass's stamp; a new bundle stamp and a
	// restore (scoredBy 0, never a stamp) therefore re-score it once.
	scoredGen uint32
	scoredBy  uint64
	// rowEdge is the earliest End among the transactions of the last
	// scored row: once a pass's cutoff passes it a transaction has aged
	// out, and the client is dirty without a commit. The cutoff only
	// moves forward, so nothing excluded comes back; with no window it
	// is -Inf and never passes. +Inf after an empty row.
	rowEdge float64
}

// retained is a transaction as a client keeps it past the reorder
// buffer: what a feature row reads of a capture.TLSTransaction
// (features.FromTLSInto uses Start, End and the byte counters only), in
// 32 bytes that hold no pointer, so the GC never scans a client's runs
// or ring. A row build, Final.Transactions and Save expand it back,
// with an empty SNI and a zero HTTPCount.
type retained struct {
	start, end float64
	up, down   int64
}

// retain drops what no row reads of t.
func retain(t capture.TLSTransaction) retained {
	return retained{start: t.Start, end: t.End, up: t.UpBytes, down: t.DownBytes}
}

// expand is t as a capture.TLSTransaction.
func (t retained) expand() capture.TLSTransaction {
	return capture.TLSTransaction{Start: t.start, End: t.end, UpBytes: t.up, DownBytes: t.down}
}

// activeConn is one in-flight connection of a client.
type activeConn struct {
	connID uint64
	start  float64
}

// state returns (creating if needed) a client's state.
func (c *Core) state(host string) *client {
	cl, ok := c.clients[host]
	if !ok {
		cl = &client{
			streamer: sessionid.NewStreamer(sessionid.PaperParams),
			recent:   newTxnRing(c.maxTxns),
		}
		c.clients[host] = cl
	}
	return cl
}

// Len reports how many clients the Core holds.
func (c *Core) Len() int { return len(c.clients) }

// Active reports how many clients have transactions in their ongoing
// session.
func (c *Core) Active() int {
	n := 0
	for _, cl := range c.clients {
		if len(cl.current)+len(cl.inFlight)+len(cl.buffer) > 0 {
			n++
		}
	}
	return n
}

// Open records an in-flight connection starting at start (epoch
// seconds), so the sessionizer does not advance past it until it
// completes. A repeated connID replaces the earlier start.
func (c *Core) Open(host string, connID uint64, start float64) {
	cl := c.state(host)
	cl.openConn(connID, start)
	if start > cl.lastActivity {
		cl.lastActivity = start
	}
}

// openConn records an in-flight connection's start; a repeated ID
// replaces the earlier start, as a map keyed by ID would.
func (cl *client) openConn(connID uint64, start float64) {
	for i := range cl.activeStarts {
		if cl.activeStarts[i].connID == connID {
			cl.activeStarts[i].start = start
			return
		}
	}
	cl.activeStarts = append(cl.activeStarts, activeConn{connID, start})
}

// closeConn forgets an in-flight connection; unknown IDs (a transaction
// whose open was never seen) are a no-op.
func (cl *client) closeConn(connID uint64) {
	for i, a := range cl.activeStarts {
		if a.connID == connID {
			last := len(cl.activeStarts) - 1
			cl.activeStarts[i] = cl.activeStarts[last]
			cl.activeStarts = cl.activeStarts[:last]
			return
		}
	}
}

// Commit folds connection connID's completed transaction into its
// client's state and advances the sessionizer as far as the client's
// open connections allow.
func (c *Core) Commit(host string, connID uint64, txn capture.TLSTransaction) {
	cl := c.state(host)
	cl.gen++
	if c.block > 0 && !cl.hasClass && !cl.queued {
		cl.queued = true
		c.fresh = append(c.fresh, freshClient{host, cl})
	}
	if txn.End > cl.lastActivity {
		cl.lastActivity = txn.End
	}
	cl.txns++
	cl.upBytes += txn.UpBytes
	cl.downBytes += txn.DownBytes
	cl.durStats.Observe(txn.End - txn.Start)
	if cl.recent.push(retain(txn)) > 0 {
		c.noteTruncation(cl)
	}
	cl.closeConn(connID)
	// Insert sorted by start: connections end out of order, the
	// sessionizer wants start order.
	i := sort.Search(len(cl.buffer), func(j int) bool { return cl.buffer[j].Start > txn.Start })
	cl.buffer = append(cl.buffer, capture.TLSTransaction{})
	copy(cl.buffer[i+1:], cl.buffer[i:])
	cl.buffer[i] = txn
	// A single long-lived connection can pin the watermark while later
	// transactions pile up behind it; the reorder buffer is capped like
	// every other per-client run.
	if capRun(&cl.buffer, c.maxTxns) > 0 {
		c.noteTruncation(cl)
	}
	c.advance(host, cl)
}

// noteTruncation reports a client's current session through
// Hooks.Truncated, once per session.
func (c *Core) noteTruncation(cl *client) {
	if !cl.truncated {
		cl.truncated = true
		if c.hooks.Truncated != nil {
			c.hooks.Truncated()
		}
	}
}

// advance pushes every buffered transaction at or before the client's
// watermark — the earliest start among still-open connections — into
// the streaming sessionizer and applies the resulting decisions. The
// released prefix leaves the buffer in one copy, however long it is: a
// long-lived connection can hold thousands back.
func (c *Core) advance(host string, cl *client) {
	// No open connections: everything is safe.
	wm, bounded := 0.0, false
	for _, a := range cl.activeStarts {
		if !bounded || a.start < wm {
			wm, bounded = a.start, true
		}
	}
	ready := 0
	for ready < len(cl.buffer) && (!bounded || cl.buffer[ready].Start <= wm) {
		ready++
	}
	if ready == 0 {
		return
	}
	for _, t := range cl.buffer[:ready] {
		cl.inFlight = append(cl.inFlight, retain(t))
		c.decisions = cl.streamer.PushInto(c.decisions[:0], sessionid.Transaction{Start: t.Start, End: t.End, SNI: t.SNI})
		c.apply(host, cl, c.decisions)
	}
	cl.buffer = append(cl.buffer[:0], cl.buffer[ready:]...)
}

// apply consumes finalized sessionizer decisions, which are about the
// front of cl.inFlight in order: boundaries close the current session,
// decided transactions join it. The decided prefix leaves inFlight in
// one copy.
func (c *Core) apply(host string, cl *client, decisions []sessionid.Decision) {
	for i, d := range decisions {
		if d.NewSession {
			cl.boundaries++
			if c.hooks.Boundary != nil {
				c.hooks.Boundary(host, cl.boundaries, len(cl.current))
			}
			cl.truncated = false
			cl.current = cl.current[:0]
		}
		cl.current = append(cl.current, cl.inFlight[i])
	}
	if len(decisions) > 0 {
		cl.inFlight = append(cl.inFlight[:0], cl.inFlight[len(decisions):]...)
	}
	if capRun(&cl.current, c.maxTxns) > 0 {
		c.noteTruncation(cl)
	}
}

// flush ends a client's stream: with no connection open every buffered
// transaction is released, and the sessionizer decides the rest.
func (c *Core) flush(host string, cl *client) {
	c.advance(host, cl)
	c.apply(host, cl, cl.streamer.Flush())
}

// gathered is the bookkeeping of one row a Gather appended.
type gathered struct {
	host string
	cl   *client
	txns int     // transactions in the row
	gen  uint32  // cl.gen at the gather
	edge float64 // the row's rowEdge
}

// Gather appends the feature rows of the clients scope selects to
// block — row-major, one row per client, built through the caller's
// RowBuilder rb — and returns the block and the number of rows
// appended.
//
// Dirty collects every dirty client. A client is dirty when it has had
// a commit since its class was stored, when its class was stored under
// another bundle stamp (stamps start at 1, so a restored client is
// always dirty), or when cutoff has passed the earliest End of its last
// scored row; clean clients cost one map step. A client whose verdict a
// Fresh or Queued Gather's Store set since the last Dirty Gather is
// skipped once, dirty or not, unless the stamp has changed. A Dirty
// Gather empties the fresh queue, whose clients it visits.
//
// Fresh takes the whole blocks at the front of the fresh queue off it
// and collects those of their clients still without a verdict; a
// shorter rest stays queued. Queued does the same with the whole queue.
//
// A row covers the ongoing session's transactions ending at or after
// cutoff (pass -Inf for the whole session). A client with no such
// transaction has no verdict to wait for and is marked clean until its
// next commit.
//
// The gathered rows await Store, which takes the classes the caller
// computed for them, or Discard.
func (c *Core) Gather(stamp uint64, cutoff float64, rb *core.RowBuilder, block []float64, scope Scope) ([]float64, int) {
	c.rows, c.stamp, c.scope = c.rows[:0], stamp, scope
	if scope != Dirty {
		if c.block == 0 {
			return block, 0
		}
		n := len(c.fresh)
		if scope == Fresh {
			n = n / c.block * c.block
		}
		for _, f := range c.fresh[:n] {
			f.cl.queued = false
			if !f.cl.hasClass && !c.clean(f.cl, cutoff) {
				block = c.gather(f.host, f.cl, cutoff, rb, block)
			}
		}
		c.unqueue(n)
		return block, len(c.rows)
	}
	for _, f := range c.fresh {
		f.cl.queued = false
	}
	c.unqueue(len(c.fresh))
	for host, cl := range c.clients {
		if cl.early {
			cl.early = false
			if cl.scoredBy == stamp {
				continue
			}
		}
		if !c.clean(cl, cutoff) {
			block = c.gather(host, cl, cutoff, rb, block)
		}
	}
	return block, len(c.rows)
}

// clean reports whether a client's verdict is up to date for the
// Gather in progress (see Gather).
func (c *Core) clean(cl *client, cutoff float64) bool {
	return cl.scoredBy == c.stamp && cl.scoredGen == cl.gen && cutoff <= cl.rowEdge
}

// gather appends a dirty client's row to block; a client with no
// transaction in range is marked clean instead (see Gather).
func (c *Core) gather(host string, cl *client, cutoff float64, rb *core.RowBuilder, block []float64) []float64 {
	row, n, edge := c.windowedRow(rb, cl, cutoff)
	if n == 0 {
		cl.scoredGen, cl.scoredBy, cl.rowEdge = cl.gen, c.stamp, edge
		return block
	}
	c.rows = append(c.rows, gathered{host: host, cl: cl, txns: n, gen: cl.gen, edge: edge})
	// A client gathered for its first verdict stays marked as queued
	// until Store or Discard, so that a commit landing while its row is
	// scored does not queue it a second time: such a stale entry would
	// count towards a block without needing a verdict, and the clients
	// left waiting for the tick would vary with the commits' timing.
	cl.queued = c.block > 0 && !cl.hasClass
	return append(block, row...)
}

// unqueue takes the first n clients off the fresh queue; the caller has
// cleared their queued marks.
func (c *Core) unqueue(n int) {
	rest := copy(c.fresh, c.fresh[n:])
	clear(c.fresh[rest:]) // a retired client must not live on in the queue
	c.fresh = c.fresh[:rest]
}

// dropRetired removes from the fresh queue every client the Core no
// longer holds.
func (c *Core) dropRetired() {
	c.fresh = slices.DeleteFunc(c.fresh, func(f freshClient) bool { return c.clients[f.host] != f.cl })
}

// Change is one client's new verdict: its first (Prev < 0) or a change
// of class.
type Change struct {
	Client string
	// Class is the new verdict, Prev the one it replaces (-1 for none).
	Class, Prev int
	// Txns is the number of transactions in the row that was scored.
	Txns int
}

// Store records the classes of the rows the last Gather collected,
// index-aligned with them, and appends to dst a Change for every client
// whose verdict is new or different. Each client is stamped as scored
// by the Gather's stamp at the generation gathered, so a commit that
// landed after the Gather leaves it dirty, and after a Fresh or Queued
// Gather marked for the next Dirty Gather to skip. A client retired
// since the Gather is skipped.
func (c *Core) Store(classes []int, dst []Change) []Change {
	for i := range c.rows {
		r, class := &c.rows[i], classes[i]
		cl := r.cl
		if c.clients[r.host] != cl {
			continue
		}
		if !cl.hasClass || cl.lastClass != class {
			prev := -1
			if cl.hasClass {
				prev = cl.lastClass
			}
			cl.lastClass, cl.hasClass = class, true
			dst = append(dst, Change{Client: r.host, Class: class, Prev: prev, Txns: r.txns})
		}
		cl.scoredGen, cl.scoredBy, cl.rowEdge = r.gen, c.stamp, r.edge
		cl.early = c.scope != Dirty
	}
	c.Discard()
	return dst
}

// Discard drops the rows of the last Gather without storing anything —
// a failed pass — so their clients stay dirty, and a client still
// without a verdict joins the fresh queue again at its next commit.
func (c *Core) Discard() {
	for i := range c.rows {
		c.rows[i].cl.queued = false
	}
	clear(c.rows) // a retired client must not live on in scratch
	c.rows = c.rows[:0]
}

// windowedRow builds a client's feature row over the transactions of
// the ongoing session (current ++ inFlight ++ buffer, in start order)
// ending at or after cutoff, through the Core's scratch list and row
// buffer (the returned row is valid until the next row built on this
// Core), and reports the earliest End among them: the cutoff at which
// the row next changes without a commit (+Inf for an empty row).
// Extraction goes through the caller's RowBuilder rb, so cores built
// on different builders run in parallel.
func (c *Core) windowedRow(rb *core.RowBuilder, cl *client, cutoff float64) (row []float64, n int, edge float64) {
	w := c.txns[:0]
	edge = math.Inf(1)
	for _, run := range [2][]retained{cl.current, cl.inFlight} {
		for _, t := range run {
			if t.end >= cutoff {
				w = append(w, t.expand())
				edge = min(edge, t.end)
			}
		}
	}
	for _, t := range cl.buffer {
		if t.End >= cutoff {
			// Stripped like the other runs, so the scratch list holds
			// no string between passes.
			w = append(w, retain(t).expand())
			edge = min(edge, t.End)
		}
	}
	c.txns = w
	if len(w) == 0 {
		return nil, 0, edge
	}
	c.row = rb.FeatureRow(w, c.row)
	return c.row, len(w), edge
}

// Row returns the feature row Gather would build for a client at
// cutoff, or nil when the client is unknown or has no transaction in
// range. The row is valid until the next row built on this Core.
func (c *Core) Row(rb *core.RowBuilder, host string, cutoff float64) []float64 {
	cl, ok := c.clients[host]
	if !ok {
		return nil
	}
	row, _, _ := c.windowedRow(rb, cl, cutoff)
	return row
}

// Final is a retired client's summary: what an eviction logs and a
// shutdown prints.
type Final struct {
	Client string
	// Txns, Boundaries and DownBytes are lifetime totals; MeanDur is the
	// mean transaction duration in seconds.
	Txns, Boundaries, DownBytes int64
	MeanDur                     float64
	// Class is the client's last verdict, when HasClass.
	Class    int
	HasClass bool
	// Verdict is the class scored from the retained transactions by
	// Shards.Evict or Shards.Drain, -1 when none was scored.
	Verdict int
	recent  *txnRing
}

// Transactions appends the client's retained transactions, oldest
// first, to dst: its whole history up to the retention cap, the most
// recent ones beyond it. For a client Drain left resident they are
// valid until its next Commit.
func (f *Final) Transactions(dst []capture.TLSTransaction) []capture.TLSTransaction {
	return f.recent.expand(dst)
}

func (cl *client) final(host string) Final {
	return Final{
		Client:     host,
		Txns:       cl.txns,
		Boundaries: cl.boundaries,
		DownBytes:  cl.downBytes,
		MeanDur:    cl.durStats.Mean(),
		Class:      cl.lastClass,
		HasClass:   cl.hasClass,
		Verdict:    -1,
		recent:     cl.recent,
	}
}

// Evict retires every client with no open connection whose last
// activity is at least ttl seconds before now: its sessionizer is
// flushed, its Final appended to dst and its state deleted, and it
// leaves the fresh queue. The order of the appended Finals is
// unspecified.
func (c *Core) Evict(dst []Final, now, ttl float64) []Final {
	queued := false
	for host, cl := range c.clients {
		if len(cl.activeStarts) > 0 || now-cl.lastActivity < ttl {
			continue
		}
		c.flush(host, cl)
		dst = append(dst, cl.final(host))
		delete(c.clients, host)
		queued = queued || cl.queued
	}
	if queued {
		c.dropRetired()
	}
	return dst
}

// Drain ends every client's stream — all connections are over, so
// everything buffered is released and the sessionizer decides the
// rest — and appends each client's Final to dst, in no particular
// order. The clients stay resident.
func (c *Core) Drain(dst []Final) []Final {
	for host, cl := range c.clients {
		c.flush(host, cl)
		dst = append(dst, cl.final(host))
	}
	return dst
}

// txnRing retains the most recent transactions in arrival order
// within a fixed capacity; limit 0 disables the cap (unbounded).
type txnRing struct {
	limit   int
	buf     []retained
	start   int
	dropped int64
}

func newTxnRing(limit int) *txnRing { return &txnRing{limit: limit} }

// push appends t, dropping the oldest retained transaction when the
// ring is full, and reports how many were dropped (0 or 1).
func (r *txnRing) push(t retained) int {
	if r.limit <= 0 || len(r.buf) < r.limit {
		r.buf = append(r.buf, t)
		return 0
	}
	r.buf[r.start] = t
	r.start = (r.start + 1) % r.limit
	r.dropped++
	return 1
}

// expand appends the retained transactions, oldest first, to dst.
func (r *txnRing) expand(dst []capture.TLSTransaction) []capture.TLSTransaction {
	dst = expandRun(dst, r.buf[r.start:])
	return expandRun(dst, r.buf[:r.start])
}

// expandRun appends run's transactions to dst.
func expandRun(dst []capture.TLSTransaction, run []retained) []capture.TLSTransaction {
	for _, t := range run {
		dst = append(dst, t.expand())
	}
	return dst
}

// capRun bounds a transaction run to limit entries, dropping the
// oldest once it overshoots the limit by half — the slack amortizes
// the copy-down to O(1) per transaction. It reports how many entries
// were dropped.
func capRun[T any](run *[]T, limit int) int {
	if limit <= 0 || len(*run) <= limit+limit/2 {
		return 0
	}
	r := *run
	drop := len(r) - limit
	n := copy(r, r[drop:])
	*run = r[:n]
	return drop
}
