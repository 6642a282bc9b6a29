package ingest

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"droppackets/internal/intern"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

// SquidSource tails a Squid access log and delivers each CONNECT entry
// as a connection-open event at its start offset and a transaction
// event at its end offset. Squid logs at connection *end*, so a
// reorder buffer (a min-heap on event time) holds events back until a
// watermark — the latest end time seen minus Horizon — passes them;
// for end-ordered logs this reproduces tlsproxy.RecordSource's global
// (time, sequence) event order exactly. Entries that arrive later than
// the horizon allows are still delivered, just promptly rather than in
// global order.
//
// With Follow set the source keeps reading as the file grows,
// reopening on rotation (a new inode at the same path) and truncation
// (the file shrank); Run then returns only on context cancellation.
// Either way every buffered event is flushed before Run returns, so no
// parsed entry is lost. Malformed lines and non-CONNECT entries are
// counted, not fatal — including lines longer than the 1 MiB cap,
// which are discarded up to the next newline (one malformed count per
// oversized line) so a corrupt newline-free stretch cannot grow the
// carry buffer without bound.
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

// squidKey is one pending delivery in the reorder heap: the event time,
// its sequence number (even = the connection's open, odd = its
// transaction) and the slab slot holding the record both events share.
type squidKey struct {
	at   float64
	seq  int64
	slot int32
}

func (k squidKey) open() bool { return k.seq&1 == 0 }

func (k squidKey) before(o squidKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// squidHeap is the reorder buffer: a min-heap of 24-byte keys ordered by
// (time, sequence) — the same total order tlsproxy.RecordSource sorts
// its partitions by — over a slab that holds each pending record once
// for both of its events. Sifting moves keys, never records, and moves
// each key into a hole instead of swapping pairs; slots return to a free
// list when the transaction event pops, so the slab grows to the peak
// number of pending records and no further. Hand-rolled instead of
// container/heap so pushing a key does not box it into an interface.
type squidHeap struct {
	keys []squidKey
	slab []tlsproxy.Record
	free []int32
}

func (h *squidHeap) len() int { return len(h.keys) }

// add schedules a record's open event at openAt and its transaction
// event at closeAt (>= openAt), with sequence numbers 2i and 2i+1.
func (h *squidHeap) add(rec tlsproxy.Record, i int64, openAt, closeAt float64) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = rec
	} else {
		slot = int32(len(h.slab))
		h.slab = append(h.slab, rec)
	}
	h.push(squidKey{at: openAt, seq: 2 * i, slot: slot})
	h.push(squidKey{at: closeAt, seq: 2*i + 1, slot: slot})
}

func (h *squidHeap) push(k squidKey) {
	q := append(h.keys, k)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
	h.keys = q
}

// pop removes and returns the earliest event's key; its record stays at
// slab[key.slot] until the caller releases the slot.
func (h *squidHeap) pop() squidKey {
	q := h.keys
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].before(q[m]) {
			m = r
		}
		if !q[m].before(last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	if n > 0 {
		q[i] = last
	}
	h.keys = q
	return top
}

// release recycles a record's slot once its transaction event has been
// delivered (the open, sequenced first at an earlier-or-equal time,
// always has been by then).
func (h *squidHeap) release(slot int32) {
	h.slab[slot] = tlsproxy.Record{} // drop the interned strings
	h.free = append(h.free, slot)
}

// squidDelivery owns the source's ordered-delivery state: the reorder
// heap, the epoch, connection sequencing and the transaction batch.
// Exactly one goroutine drives it — the pipeline's delivery goroutine.
type squidDelivery struct {
	s         *SquidSource
	h         Handler
	q         squidHeap
	epoch     float64
	haveEpoch bool
	maxEnd    float64
	connSeq   int64
	batch     []tlsproxy.Record
	maxBatch  int
}

// entry turns one parsed view into open and transaction events,
// interning the identity strings, and releases whatever the watermark
// now allows. The view's byte fields are dead after this call.
func (d *squidDelivery) entry(v squidlog.EntryView) {
	s := d.s
	startU := v.EndUnix - v.ElapsedSec
	if !d.haveEpoch {
		d.epoch = startU
		d.haveEpoch = true
	}
	qs := QuantizeMicros(startU - d.epoch)
	qe := QuantizeMicros(v.EndUnix - d.epoch)
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

// emit releases everything at or before the watermark (or, at flush
// time, everything) in (time, sequence) order.
func (d *squidDelivery) emit(all bool) {
	wm := d.maxEnd - d.s.Horizon
	for d.q.len() > 0 && (all || d.q.keys[0].at <= wm) {
		d.deliver(d.q.pop())
	}
	if all {
		d.flushBatch()
	}
}

func (d *squidDelivery) deliver(k squidKey) {
	if k.open() {
		// Opens must not overtake buffered transactions.
		d.flushBatch()
		if d.h.ConnOpen != nil {
			d.h.ConnOpen(d.q.slab[k.slot])
		}
		return
	}
	d.batch = append(d.batch, d.q.slab[k.slot])
	d.q.release(k.slot)
	if len(d.batch) >= d.maxBatch {
		d.flushBatch()
	}
}

func (d *squidDelivery) flushBatch() {
	if len(d.batch) == 0 {
		return
	}
	d.h.deliverBatch(d.batch)
	d.s.records.Add(int64(len(d.batch)))
	d.batch = d.batch[:0]
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

	maxBatch := s.Batch
	if maxBatch <= 0 {
		maxBatch = defaultBatch
	}
	d := &squidDelivery{
		s: s, h: h,
		epoch:     s.EpochUnix,
		haveEpoch: s.EpochUnix >= 0,
		maxEnd:    math.Inf(-1),
		maxBatch:  maxBatch,
		batch:     make([]tlsproxy.Record, 0, maxBatch),
	}
	// Every return below this point hands off the last block, closes the
	// channel and waits for the delivery goroutine: nothing is delivered
	// after Run returns.
	p := startSquidPipeline(d)
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

// The read path has two stages. The reader (Run's goroutine) packs
// complete lines into blocks and parses each block in place; a single
// delivery goroutine consumes the parsed blocks in read order, so the
// reorder heap sees entries in exactly file order. Only the parse (field
// scanning and number conversion) overlaps with delivery; everything
// order-sensitive stays on one goroutine.

const (
	// blockLines and blockBytes bound one block; whichever fills first
	// hands it off.
	blockLines = 512
	blockBytes = 64 << 10
	// blocksInFlight is the channel capacity between the stages: enough
	// parsed blocks that the reader keeps working while one block's
	// entries release a backlog from the reorder heap, few enough that a
	// stalled handler holds back well under 1 MiB of log.
	blocksInFlight = 4
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

// squidPipeline joins the two stages: line and handoff run on the
// reader, deliverLoop on the delivery goroutine.
type squidPipeline struct {
	d       *squidDelivery
	blocks  chan *lineBlock // parsed, in read order
	pool    sync.Pool
	cur     *lineBlock // the block being packed; nil or non-empty
	drained chan struct{}
}

func startSquidPipeline(d *squidDelivery) *squidPipeline {
	p := &squidPipeline{
		d:       d,
		blocks:  make(chan *lineBlock, blocksInFlight),
		drained: make(chan struct{}),
	}
	p.pool.New = func() any {
		return &lineBlock{
			buf:    make([]byte, 0, blockBytes),
			offs:   make([]int32, 1, blockLines+1),
			parsed: make([]parsedLine, 0, blockLines),
		}
	}
	go p.deliverLoop()
	return p
}

// deliverLoop feeds each block's entries to the delivery core and bumps
// the counters, on one goroutine, in line order.
func (p *squidPipeline) deliverLoop() {
	defer close(p.drained)
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
		p.d.flushBatch()
		blk.buf = blk.buf[:0]
		blk.offs = blk.offs[:1]
		blk.parsed = blk.parsed[:0]
		p.pool.Put(blk)
	}
	p.d.emit(true)
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
// once the delivery goroutine has delivered everything still buffered
// in the reorder heap and exited.
func (p *squidPipeline) close() {
	p.handoff()
	close(p.blocks)
	<-p.drained
}
