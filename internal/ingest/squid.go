package ingest

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"time"

	"droppackets/internal/intern"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

// SquidSource tails a Squid access log and delivers each CONNECT entry
// as a connection-open event at its start offset and a transaction
// event at its end offset. Squid logs at connection *end*, so a
// reorder buffer holds events back until a watermark — the latest end
// time seen minus Horizon — passes them: transaction events, which
// arrive in end order, wait in a FIFO, and opens, which arrive up to a
// connection's lifetime late, in a time-bucketed queue. For end-ordered
// logs whose connections are shorter than the horizon this is exactly
// the (time, sequence) event order a BatchSource sorts the same records
// into. Entries that arrive later than the horizon allows are still
// delivered, just promptly rather than in global order.
//
// With Follow set the source keeps reading as the file grows,
// reopening on rotation (a new inode at the same path) and truncation
// (the file shrank); Run then returns only on context cancellation.
// Either way every buffered event is flushed before Run returns, so no
// parsed entry is lost. Malformed lines and non-CONNECT entries are
// counted, not fatal — including lines longer than the 1 MiB cap,
// which are discarded up to the next newline (one malformed count per
// oversized line) so a corrupt newline-free stretch cannot grow the
// carry buffer without bound, and entries whose times lie at or beyond
// tlsproxy.MaxOffset either side of zero, which no time.Duration holds.
//
// The hot path is allocation-free: lines are packed into reused blocks
// and scanned in place (squidlog.ParseLineBytes), and client and SNI
// strings are interned, so steady state allocates only on the first
// sighting of a distinct endpoint. Handler callbacks run on one
// goroutine that Run starts and waits for; none is made after Run
// returns.
type SquidSource struct {
	// Path is the access log to read.
	Path string
	// Base is the instant offset 0 maps to (the daemon's epoch).
	Base time.Time
	// EpochUnix is the Unix time subtracted from every log timestamp to
	// form offsets. Negative means "use the first entry's start time",
	// so a live tail begins at offset ~0.
	EpochUnix float64
	// Horizon is the reordering slack in seconds: events are delivered
	// once the newest end time seen is at least Horizon ahead of them.
	// 0 delivers events as soon as they parse, in file order.
	Horizon float64
	// Follow keeps tailing after EOF, surviving rotation; false stops
	// (and flushes) at the first EOF, for bounded files.
	Follow bool
	// Poll is how often to re-check the file for growth or rotation
	// while following. Defaults to 200ms.
	Poll time.Duration
	// Batch caps how many transaction events are coalesced per
	// TransactionBatch call; <= 0 means the package default.
	Batch int

	tally
	internOnce  sync.Once
	clientNames *intern.Table
	sniNames    *intern.Table
}

// initInterners creates the identity-string tables exactly once; Run
// and the Interner methods may race from different goroutines.
func (s *SquidSource) initInterners() {
	s.internOnce.Do(func() {
		s.clientNames = intern.NewTable()
		s.sniNames = intern.NewTable()
	})
}

// InternedStrings reports how many distinct client and SNI strings the
// source currently holds across both intern generations — the
// qoeproxy_interned_strings gauge.
func (s *SquidSource) InternedStrings() int {
	s.initInterners()
	return s.clientNames.Len() + s.sniNames.Len()
}

// ReleaseIdleInterned rotates both intern tables, releasing strings not
// sighted since the previous call. qoeproxy hooks this into its
// eviction sweep so table growth tracks the active endpoint population
// instead of the all-time distinct count.
func (s *SquidSource) ReleaseIdleInterned() {
	s.initInterners()
	s.clientNames.Rotate()
	s.sniNames.Rotate()
}

// maxCarryBytes caps the partial-line carry buffer: a line still
// missing its newline past this size is counted malformed and
// discarded through the next newline.
const maxCarryBytes = 1 << 20

// Name reports "squid".
func (s *SquidSource) Name() string { return "squid" }

// squidKey is one pending delivery in the reorder buffer: its event
// key and the slab slot holding the record both of a connection's
// events share.
type squidKey struct {
	eventKey
	slot int32
}

// squidReorder is the reorder buffer. It releases pending events in
// eventKey order by merging the heads of two queues:
//
//   - an in-order FIFO, which takes every key not before its tail.
//     Squid writes a line when the connection ends, so transaction
//     events arrive in time order and nearly all of them land here.
//   - a time-bucketed queue (keyBuckets) for the rest: connection opens,
//     which arrive up to a connection's lifetime out of order, and any
//     transaction event that does arrive out of order.
//
// Each pending record is held once, in a slab that both of its keys
// index; a slot returns to the free list when the record's transaction
// event is released, so the slab grows to the peak number of pending
// records and no further. Steady state allocates nothing.
type squidReorder struct {
	fifo    keyFIFO
	buckets keyBuckets
	slab    []tlsproxy.Record
	free    []int32
	// wm and limit cache the last watermark pop saw and its bucket.
	wm    float64
	limit int64
}

func newSquidReorder(horizon float64) squidReorder {
	return squidReorder{buckets: newKeyBuckets(horizon), wm: math.NaN(), limit: -1 << 62}
}

// add schedules a record's open event at openAt and its transaction
// event at closeAt (>= openAt), with sequence numbers 2i and 2i+1.
func (q *squidReorder) add(rec tlsproxy.Record, i int64, openAt, closeAt float64) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = rec
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, rec)
	}
	q.push(squidKey{eventKey{openAt, 2 * i}, slot})
	q.push(squidKey{eventKey{closeAt, 2*i + 1}, slot})
}

func (q *squidReorder) push(k squidKey) {
	// Sequence numbers only grow, so a key at or after the tail's time
	// sorts after it.
	if last, ok := q.fifo.last(); !ok || k.at >= last.at {
		q.fifo.push(k)
		return
	}
	q.buckets.push(k, q.limit)
}

// pop removes and returns the earliest pending key if it lies at or
// before wm (+Inf releases everything). Its record stays at
// slab[key.slot] until the caller releases the slot.
func (q *squidReorder) pop(wm float64) (squidKey, bool) {
	if wm != q.wm {
		q.wm, q.limit = wm, q.buckets.bucket(wm)
	}
	k, ok := q.buckets.head(q.limit)
	f, fok := q.fifo.head()
	fromFIFO := fok && (!ok || f.before(k.eventKey))
	if fromFIFO {
		k, ok = f, true
	}
	if !ok || k.at > wm {
		return squidKey{}, false
	}
	if fromFIFO {
		q.fifo.pop()
	} else {
		q.buckets.pop()
	}
	return k, true
}

// release recycles a record's slot once its transaction event has been
// delivered (the open, sequenced first at an earlier-or-equal time,
// always has been by then).
func (q *squidReorder) release(slot int32) {
	q.slab[slot] = tlsproxy.Record{} // drop the interned strings
	q.free = append(q.free, slot)
}

// keyFIFO is a queue of keys in the order pushed.
type keyFIFO struct {
	keys []squidKey
	next int // keys[next:] are queued
}

func (f *keyFIFO) push(k squidKey) {
	// Reclaim the popped prefix once it is at least half the slice:
	// each key is then copied O(1) times on average.
	if f.next > 0 && len(f.keys) == cap(f.keys) && 2*f.next >= len(f.keys) {
		n := copy(f.keys, f.keys[f.next:])
		f.keys, f.next = f.keys[:n], 0
	}
	f.keys = append(f.keys, k)
}

func (f *keyFIFO) head() (squidKey, bool) {
	if f.next == len(f.keys) {
		return squidKey{}, false
	}
	return f.keys[f.next], true
}

func (f *keyFIFO) last() (squidKey, bool) {
	if f.next == len(f.keys) {
		return squidKey{}, false
	}
	return f.keys[len(f.keys)-1], true
}

func (f *keyFIFO) pop() {
	f.next++
	if f.next == len(f.keys) {
		f.keys, f.next = f.keys[:0], 0
	}
}

// keyBuckets is a calendar queue of keys: a ring of buckets, each
// covering width seconds of event time. Keys are appended to their
// bucket unsorted; a bucket is sorted once, when the scan for the head
// reaches it — which pop only lets it do once the watermark has
// reached the bucket — and becomes the drained bucket. A key that falls
// at or behind the drained bucket (a late event) is inserted into it
// in sorted position; one that falls beyond the ring grows the ring.
//
// Keys only enter here when they are before the FIFO's tail, which is
// no later than the newest end time; everything at or behind the
// watermark is released on every line; and the drained bucket never
// trails the watermark's. So the buckets in use span at most one
// horizon, whatever the input's times, and the ring, sized for two,
// does not grow under squidDelivery.
type keyBuckets struct {
	perSec float64      // buckets per second: 1/width
	ring   [][]squidKey // bucket b lives at ring[b&mask], for b in [base, base+len(ring))
	mask   int64
	base   int64 // the drained bucket, sorted and read from ring[base&mask][r]
	r      int
	n      int // keys queued, the drained bucket's unread ones included
}

// bucketsPerHorizon sets the bucket width to horizon/1024, about a
// dozen opens per bucket at 100 records per event-second and a 300 s
// horizon: few enough that sorting a bucket costs less per key than a
// heap's sift. The ring starts at twice that, one slot per bucket of
// two horizons.
const bucketsPerHorizon = 1024

func newKeyBuckets(horizon float64) keyBuckets {
	// A floor on the width keeps bucket numbers of any valid offset
	// (below tlsproxy.MaxOffset) well inside int64.
	width := max(horizon/bucketsPerHorizon, 1e-3)
	return keyBuckets{
		perSec: 1 / width,
		ring:   make([][]squidKey, 2*bucketsPerHorizon),
		mask:   2*bucketsPerHorizon - 1,
	}
}

// bucket maps a time to its bucket number: floor(at/width), clamped
// to ±2^62 so that infinite watermarks map too. The map is monotone,
// so a key in a later bucket is later in time.
func (q *keyBuckets) bucket(at float64) int64 {
	x := at * q.perSec
	if !(x > -1<<62) {
		return -1 << 62
	}
	if x >= 1<<62 {
		return 1 << 62
	}
	b := int64(x) // truncates toward zero
	if float64(b) > x {
		b--
	}
	return b
}

// push queues k. floor is the bucket of the latest watermark: an empty
// queue restarts its drained bucket at k's bucket or floor, whichever
// is later, so a late key cannot leave it trailing the watermark by
// more than the ring spans.
func (q *keyBuckets) push(k squidKey, floor int64) {
	b := q.bucket(k.at)
	if q.n == 0 {
		q.ring[q.base&q.mask] = q.ring[q.base&q.mask][:0]
		q.base, q.r = max(b, floor), 0
	}
	q.n++
	if b <= q.base {
		q.insertDrained(k)
		return
	}
	for b-q.base >= int64(len(q.ring)) {
		q.grow()
	}
	q.ring[b&q.mask] = append(q.ring[b&q.mask], k)
}

// insertDrained puts k in sorted position among the drained bucket's
// unread keys. A late key usually sorts first, and then reuses the
// slot of the key read last.
func (q *keyBuckets) insertDrained(k squidKey) {
	cur := q.ring[q.base&q.mask]
	lo, hi := q.r, len(cur)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if cur[m].before(k.eventKey) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == q.r && q.r > 0 {
		q.r--
		cur[q.r] = k
		return
	}
	cur = append(cur, squidKey{})
	copy(cur[lo+1:], cur[lo:])
	cur[lo] = k
	q.ring[q.base&q.mask] = cur
}

// grow doubles the ring, keeping every bucket in [base, base+len).
func (q *keyBuckets) grow() {
	old, oldMask := q.ring, q.mask
	q.ring = make([][]squidKey, 2*len(old))
	q.mask = int64(len(q.ring) - 1)
	for b := q.base; b < q.base+int64(len(old)); b++ {
		q.ring[b&q.mask] = old[b&oldMask]
	}
}

// head returns the earliest queued key. It moves on to later buckets,
// sorting each as it arrives, only up to bucket limit, and reports
// false when the queue is empty or every queued key lies beyond limit.
func (q *keyBuckets) head(limit int64) (squidKey, bool) {
	for {
		cur := q.ring[q.base&q.mask]
		if q.r < len(cur) {
			return cur[q.r], true
		}
		if q.n == 0 || q.base >= limit {
			return squidKey{}, false
		}
		q.ring[q.base&q.mask] = cur[:0]
		q.base++
		q.r = 0
		if next := q.ring[q.base&q.mask]; len(next) > 1 {
			slices.SortFunc(next, func(a, b squidKey) int { return compareKeys(a.eventKey, b.eventKey) })
		}
	}
}

// pop removes the key head returned.
func (q *keyBuckets) pop() {
	q.r++
	q.n--
}

// squidDelivery owns the source's ordering state: the reorder buffer,
// the epoch and connection sequencing. Exactly one goroutine drives it
// — the pipeline's ordering goroutine — and it hands the events it
// releases, in delivery order, to the handler stage in event blocks.
type squidDelivery struct {
	s         *SquidSource
	q         squidReorder
	epoch     float64
	haveEpoch bool
	maxEnd    float64
	connSeq   int64

	// cur collects released events; nil until the first one after a send.
	cur *eventBlock
	// unflushed marks events sent since the last flush-marked block.
	unflushed bool
	events    chan<- *eventBlock
	pool      *sync.Pool // of *eventBlock
}

// entry turns one parsed view into open and transaction events,
// interning the identity strings, and releases whatever the watermark
// now allows. The view's byte fields are dead after this call.
func (d *squidDelivery) entry(v squidlog.EntryView) {
	s := d.s
	startU := v.EndUnix - v.ElapsedSec
	if !inOffsetRange(startU) || !inOffsetRange(v.EndUnix) {
		s.malformed.Add(1)
		return
	}
	epoch := d.epoch
	if !d.haveEpoch {
		epoch = startU
	}
	qs := QuantizeMicros(startU - epoch)
	qe := QuantizeMicros(v.EndUnix - epoch)
	if !inOffsetRange(qs) || !inOffsetRange(qe) {
		s.malformed.Add(1)
		return
	}
	d.epoch, d.haveEpoch = epoch, true
	if qe < qs {
		qe = qs
	}
	i := d.connSeq
	d.connSeq++
	client, added := s.clientNames.Bytes(v.Client)
	if added {
		s.clients.Add(1)
	}
	sni, _ := s.sniNames.Bytes(v.Host)
	rec := tlsproxy.Record{
		ConnID:     uint64(i + 1),
		SNI:        sni,
		ClientAddr: client,
		Start:      offsetTime(s.Base, qs),
		End:        offsetTime(s.Base, qe),
		UpBytes:    v.UpBytes,
		DownBytes:  v.DownBytes,
	}
	d.q.add(rec, i, qs, qe)
	if qe > d.maxEnd {
		d.maxEnd = qe
	}
	d.emit(false)
}

// inOffsetRange reports whether t, a Unix time or an offset in
// seconds, lies strictly inside ±tlsproxy.MaxOffset, where offsetTime's
// Duration conversion cannot overflow. NaN is outside.
func inOffsetRange(t float64) bool {
	return t > -tlsproxy.MaxOffset && t < tlsproxy.MaxOffset
}

// emit releases everything at or before the watermark (or, at flush
// time, everything) in (time, sequence) order.
func (d *squidDelivery) emit(all bool) {
	wm := d.maxEnd - d.s.Horizon
	if all {
		wm = math.Inf(1)
	}
	for {
		k, ok := d.q.pop(wm)
		if !ok {
			break
		}
		d.deliver(k)
	}
	if all {
		d.send(true)
	}
}

// deliver queues a released event for the handler stage, handing the
// block off once it is full.
func (d *squidDelivery) deliver(k squidKey) {
	if d.cur == nil {
		d.cur = d.pool.Get().(*eventBlock)
	}
	d.cur.events = append(d.cur.events, squidEvent{rec: d.q.slab[k.slot], open: k.open()})
	if !k.open() {
		d.q.release(k.slot)
	}
	if len(d.cur.events) == blockEvents {
		d.send(false)
	}
}

// send hands the collected events to the handler stage; flush asks it
// to flush its batcher after them, which it then does at the same
// points in the event sequence whatever the block sizes.
func (d *squidDelivery) send(flush bool) {
	blk := d.cur
	if blk == nil {
		if !flush || !d.unflushed {
			return
		}
		blk = d.pool.Get().(*eventBlock)
	}
	d.cur = nil
	blk.flush = flush
	d.unflushed = !flush
	d.events <- blk
}

// Run tails the log into h per the type's contract.
func (s *SquidSource) Run(ctx context.Context, h Handler) error {
	poll := s.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return fmt.Errorf("ingest: open squid log: %w", err)
	}
	defer func() { f.Close() }()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("ingest: stat squid log: %w", err)
	}
	br := bufio.NewReaderSize(f, 64<<10)
	s.initInterners()

	d := &squidDelivery{
		s:         s,
		q:         newSquidReorder(s.Horizon),
		epoch:     s.EpochUnix,
		haveEpoch: s.EpochUnix >= 0,
		maxEnd:    math.Inf(-1),
	}
	// Every return below this point hands off the last block, closes the
	// pipeline and waits for its ordering and handler goroutines: nothing
	// is delivered after Run returns.
	p := startSquidPipeline(d, newBatcher(h, s.Batch, &s.records))
	defer p.close()

	var (
		carry    []byte
		overflow bool // discarding an oversized line until its newline
	)
	// consume appends chunk to the pending line, enforcing the carry
	// cap; complete marks a found newline, delivering the line (or
	// ending an oversized-line discard).
	consume := func(chunk []byte, complete bool) {
		if overflow {
			if complete {
				overflow = false
			}
			return
		}
		if len(carry)+len(chunk) > maxCarryBytes {
			s.malformed.Add(1)
			carry = carry[:0]
			overflow = !complete
			return
		}
		if complete {
			line := chunk
			if len(carry) > 0 {
				carry = append(carry, chunk...)
				line = carry
			}
			p.line(line)
			carry = carry[:0]
			return
		}
		carry = append(carry, chunk...)
	}
	// finalLine delivers a trailing unterminated line at end of input.
	finalLine := func() {
		if !overflow && len(carry) > 0 {
			p.line(carry)
			carry = carry[:0]
		}
	}

	timer := time.NewTimer(poll)
	defer timer.Stop()
	for {
		chunk, rerr := br.ReadSlice('\n')
		if rerr == nil {
			consume(chunk, true)
			continue
		}
		if rerr == bufio.ErrBufferFull {
			consume(chunk, false)
			continue
		}
		consume(chunk, false)
		if rerr != io.EOF {
			return fmt.Errorf("ingest: read squid log: %w", rerr)
		}
		if !s.Follow {
			finalLine()
			return nil
		}
		// At EOF while following: hand the partial block off before
		// sleeping (a line must not wait out a poll interval for its block
		// to fill), then look for growth, rotation (new inode at the path)
		// or truncation (file shrank below what we already consumed).
		p.handoff()
		timer.Reset(poll)
		select {
		case <-ctx.Done():
			finalLine()
			return nil
		case <-timer.C:
		}
		st, serr := os.Stat(s.Path)
		if serr != nil {
			// Mid-rotation gap: the old file is gone and the new one is
			// not there yet. Keep polling.
			continue
		}
		pos, perr := f.Seek(0, io.SeekCurrent)
		if perr != nil {
			return fmt.Errorf("ingest: squid log position: %w", perr)
		}
		rotated := !os.SameFile(st, info)
		truncated := !rotated && st.Size() < pos-int64(br.Buffered())
		if !rotated && !truncated {
			continue
		}
		nf, oerr := os.Open(s.Path)
		if oerr != nil {
			continue
		}
		ninfo, oerr := nf.Stat()
		if oerr != nil {
			nf.Close()
			continue
		}
		f.Close()
		f, info = nf, ninfo
		br.Reset(f)
		carry = carry[:0]
		overflow = false
		s.rotations.Add(1)
	}
}

// The read path has three stages, each on its own goroutine, joined by
// channels that keep their order:
//
//   - the reader (Run's goroutine) packs complete lines into blocks and
//     parses each block in place;
//   - the ordering goroutine takes the parsed blocks in read order, so
//     the reorder buffer sees entries in exactly file order, and appends
//     every event it releases to an event block;
//   - the handler goroutine replays each event block through the
//     batcher, so every Handler callback runs there, one at a time.
//
// Parsing, ordering and the handler's own work overlap; everything
// order-sensitive stays on one goroutine per stage.

const (
	// blockLines and blockBytes bound one block; whichever fills first
	// hands it off.
	blockLines = 512
	blockBytes = 64 << 10
	// blocksInFlight is the capacity of each channel between stages:
	// enough parsed blocks that the reader keeps working while one block's
	// entries release a backlog from the reorder buffer, few enough that a
	// stalled handler holds back well under 1 MiB of log.
	blocksInFlight = 4
	// blockEvents bounds one event block (about 57 KB); a parsed line
	// block usually releases two.
	blockEvents = 512
)

type lineKind int8

const (
	lineBlank lineKind = iota
	lineGood
	lineSkip
	lineBad
)

// parsedLine is one line's parse result; v's byte fields point into
// the block's buf.
type parsedLine struct {
	v    squidlog.EntryView
	kind lineKind
}

// lineBlock is a batch of raw lines plus their parse results. Line i
// is buf[offs[i]:offs[i+1]].
type lineBlock struct {
	buf    []byte
	offs   []int32
	parsed []parsedLine
}

func (b *lineBlock) lines() int { return len(b.offs) - 1 }

func parseBlock(blk *lineBlock) {
	n := blk.lines()
	blk.parsed = blk.parsed[:n]
	for i := 0; i < n; i++ {
		line := bytes.TrimSpace(blk.buf[blk.offs[i]:blk.offs[i+1]])
		if len(line) == 0 {
			blk.parsed[i] = parsedLine{kind: lineBlank}
			continue
		}
		v, ok, err := squidlog.ParseLineBytes(line)
		switch {
		case err != nil:
			blk.parsed[i] = parsedLine{kind: lineBad}
		case !ok:
			blk.parsed[i] = parsedLine{kind: lineSkip}
		default:
			blk.parsed[i] = parsedLine{v: v, kind: lineGood}
		}
	}
}

// squidEvent is one released event on its way to the handler stage.
type squidEvent struct {
	rec  tlsproxy.Record
	open bool
}

// eventBlock is a run of released events in delivery order. flush
// marks a block that ends where the batcher flushes: at the end of a
// parsed line block and at the end of input. Records past len keep a
// few interned strings alive until the block is refilled.
type eventBlock struct {
	events []squidEvent
	flush  bool
}

// squidPipeline joins the three stages: line and handoff run on the
// reader, deliverLoop on the ordering goroutine, handleLoop on the
// handler goroutine.
type squidPipeline struct {
	d       *squidDelivery
	blocks  chan *lineBlock // parsed, in read order
	pool    sync.Pool
	cur     *lineBlock       // the block being packed; nil or non-empty
	events  chan *eventBlock // released, in delivery order
	evPool  sync.Pool
	handled chan struct{} // closed when handleLoop returns
}

func startSquidPipeline(d *squidDelivery, b batcher) *squidPipeline {
	p := &squidPipeline{
		d:       d,
		blocks:  make(chan *lineBlock, blocksInFlight),
		events:  make(chan *eventBlock, blocksInFlight),
		handled: make(chan struct{}),
	}
	p.pool.New = func() any {
		return &lineBlock{
			buf:    make([]byte, 0, blockBytes),
			offs:   make([]int32, 1, blockLines+1),
			parsed: make([]parsedLine, 0, blockLines),
		}
	}
	p.evPool.New = func() any {
		return &eventBlock{events: make([]squidEvent, 0, blockEvents)}
	}
	d.events, d.pool = p.events, &p.evPool
	go p.deliverLoop()
	go p.handleLoop(b)
	return p
}

// deliverLoop feeds each block's entries to the delivery core and bumps
// the counters, on one goroutine, in line order.
func (p *squidPipeline) deliverLoop() {
	defer close(p.events)
	for blk := range p.blocks {
		for i := range blk.parsed {
			switch pl := &blk.parsed[i]; pl.kind {
			case lineGood:
				p.d.entry(pl.v)
			case lineSkip:
				p.d.s.skipped.Add(1)
			case lineBad:
				p.d.s.malformed.Add(1)
			}
		}
		// The block's bytes are dead (identity strings interned); flush
		// so delivered work is visible before the next block, then
		// recycle.
		p.d.send(true)
		blk.buf = blk.buf[:0]
		blk.offs = blk.offs[:1]
		blk.parsed = blk.parsed[:0]
		p.pool.Put(blk)
	}
	p.d.emit(true)
}

// handleLoop replays each event block through the batcher, on one
// goroutine, in delivery order.
func (p *squidPipeline) handleLoop(b batcher) {
	defer close(p.handled)
	for blk := range p.events {
		for i := range blk.events {
			if ev := &blk.events[i]; ev.open {
				b.open(ev.rec)
			} else {
				b.add(ev.rec)
			}
		}
		if blk.flush {
			b.flush()
		}
		blk.events = blk.events[:0]
		p.evPool.Put(blk)
	}
}

// line packs one complete line (terminator included; parseBlock trims)
// into the current block. The slice is invalid after the call returns.
func (p *squidPipeline) line(raw []byte) {
	if p.cur == nil {
		p.cur = p.pool.Get().(*lineBlock)
	}
	blk := p.cur
	blk.buf = append(blk.buf, raw...)
	blk.offs = append(blk.offs, int32(len(blk.buf)))
	if blk.lines() >= blockLines || len(blk.buf) >= blockBytes {
		p.handoff()
	}
}

// handoff parses the current block, if any, and queues it for delivery.
func (p *squidPipeline) handoff() {
	blk := p.cur
	if blk == nil {
		return
	}
	p.cur = nil
	parseBlock(blk)
	p.blocks <- blk
}

// close ends the input: the last block is handed off, and close returns
// once the ordering goroutine has released everything still buffered in
// the reorder buffer and the handler goroutine has delivered it, and
// both have exited.
func (p *squidPipeline) close() {
	p.handoff()
	close(p.blocks)
	<-p.handled
}
