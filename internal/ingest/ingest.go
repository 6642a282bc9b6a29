// Package ingest unifies the repository's telemetry producers behind
// one TransactionSource interface: the live SNI-sniffing proxy, Squid
// access logs, pcap packet traces and NetFlow-style flow records all
// deliver the same per-client, time-ordered tlsproxy.Record events into
// the same handler pair the proxy has always used. The paper's
// deployment claim (§1, §2.2) is that coarse-grained data an ISP
// already collects is enough to detect video performance issues; this
// package is where "already collects" meets the online inference
// daemon — every format becomes a one-adapter problem.
//
// # The TransactionSource contract
//
// A source delivers two event kinds, mirroring tlsproxy's callbacks:
// ConnOpen announces a connection at its start time (a partial Record),
// TransactionBatch delivers completed records at their end times. For every
// client, events arrive on a single goroutine in non-decreasing event
// time, and a connection's open always precedes its transaction. Every
// file source delivers in one event order, (event time, file order),
// batched by one rule, so downstream output is byte-identical no matter
// which format carried the records: a loaded file sorts its events once
// (BatchSource), a tailed log orders them online under a horizon
// (SquidSource).
//
// # The clock contract
//
// Every Record carries absolute times built as Base + offset, where the
// offset is the source's own timestamp rebased to its epoch (the first
// event for tailed logs and pcap traces, explicit via EpochUnix/epoch
// arguments otherwise) and quantized to the microsecond grid with
// QuantizeMicros. Microseconds are the finest resolution any supported
// format records (pcap), so quantizing every source at delivery makes
// timestamps — and therefore sessionization and classification —
// bit-identical across renderings of the same traffic. Pacing (Speed)
// never changes record timestamps, only wall-clock delivery.
//
// # EOF and rotation semantics
//
// Batch sources (pcap, NetFlow, replay CSV) read their input fully at
// construction, fail fast on malformed files, and Run returns nil after
// the last event. A loaded file is held once, as
// []tlsproxy.ReplayRecord; Run sorts 16-byte event keys that index into
// it rather than copies of the records, so delivery adds about 33 bytes
// per record to the loaded file. The Squid tailer follows its file (Follow
// true), surviving rotation and truncation by reopening; Run then only
// returns on context cancellation, flushing its reorder buffer first so
// no parsed entry is lost. Malformed tail lines are counted and skipped,
// not fatal: a daemon must outlive one corrupt log line.
package ingest

import (
	"context"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"droppackets/internal/tlsproxy"
)

// Handler receives a source's events. Either callback may be nil.
type Handler struct {
	// ConnOpen is invoked at a connection's start time with a partial
	// record (no end time or byte counts yet).
	ConnOpen func(tlsproxy.Record)
	// TransactionBatch is invoked with completed records, each due at its
	// connection's end time, coalesced into runs so downstream locks are
	// taken once per run instead of once per record. Batching never
	// changes the event order a source presents: batches are flushed
	// before any ConnOpen on the same goroutine, before pacing sleeps,
	// and at end of input, and records within a batch appear in delivery
	// order. The slice is reused after the call returns; handlers must
	// copy anything they retain. Sources with no natural batching (the
	// live proxy) deliver one-element batches, which is also what a
	// source's Batch of 1 produces — the record-at-a-time reference.
	TransactionBatch func([]tlsproxy.Record)
}

// Stats is a live snapshot of a source's delivery counters, safe to
// read while Run is in flight (the daemon's per-source metric series
// sample it at scrape time).
type Stats struct {
	// Records counts completed transactions delivered to the handler.
	Records int64
	// Clients counts distinct client hosts (ClientHost) seen by a file
	// source, the key the daemon holds client state under; the live
	// proxy reports 0 (the daemon's qoeproxy_clients gauge is the
	// live figure).
	Clients int64
	// Skipped counts well-formed input units that are out of scope:
	// non-CONNECT Squid lines, flow records with no DNS-resolved host.
	Skipped int64
	// Malformed counts unparseable input units dropped by a streaming
	// source (batch sources fail at construction instead).
	Malformed int64
	// Rotations counts log rotations and truncations the Squid tailer
	// survived by reopening its file.
	Rotations int64
}

// TransactionSource is one telemetry producer: a stream of per-client,
// time-ordered transaction events with the package-level ordering and
// clock contract.
type TransactionSource interface {
	// Name identifies the source kind ("proxy", "squid", "pcap",
	// "netflow", "replay"); it labels the daemon's per-source metrics.
	Name() string
	// Run delivers events into h until the input is exhausted or ctx is
	// cancelled. Cancellation is a clean stop (nil); a non-nil error
	// means the source failed and no further events will arrive.
	Run(ctx context.Context, h Handler) error
	// Stats returns a live snapshot of the delivery counters.
	Stats() Stats
}

// Interner is the optional seam a TransactionSource exposes when it
// interns identity strings (client addresses, SNI hostnames). The
// daemon type-asserts its source against this interface to publish the
// table size as a gauge and to tie string release to its own eviction
// sweep — the interner itself has no idea when a client is gone.
type Interner interface {
	// InternedStrings reports how many distinct strings the source
	// currently holds.
	InternedStrings() int
	// ReleaseIdleInterned drops strings not sighted since the previous
	// call (a generation rotation), bounding table growth to the active
	// working set.
	ReleaseIdleInterned()
}

// QuantizeMicros snaps a time offset in seconds onto the microsecond
// grid, rounding half away from zero and carrying a full second when
// the fraction rounds up to 1e6 µs. Every file source applies it at
// delivery: microseconds are the finest resolution any supported format
// carries, and one shared rounding rule is what makes timestamps — and
// everything computed from them — bit-identical across formats.
func QuantizeMicros(t float64) float64 {
	sec := math.Floor(t)
	micros := math.Round((t - sec) * 1e6)
	if micros >= 1e6 {
		sec++
		micros -= 1e6
	}
	return sec + micros/1e6
}

// offsetTime converts an offset in seconds to an absolute time. It is
// the package's only float-to-Duration conversion, so record times —
// and pacing deadlines — round identically on every delivery path.
func offsetTime(base time.Time, off float64) time.Time {
	return base.Add(time.Duration(off * float64(time.Second)))
}

// ClientHost strips the port from a client address, the daemon's client
// key. Bare addresses — including bare IPv6 like "::1", which a naive
// LastIndex(":") cut would mangle to "::" — pass through unchanged; one
// without a colon returns before SplitHostPort, whose error path allocates.
func ClientHost(addr string) string {
	if strings.IndexByte(addr, ':') < 0 {
		return addr
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	return host
}

// eventKey is one pending delivery: the open (even seq) or the
// transaction (odd seq) of connection seq/2, due at offset at. seq also
// breaks ties between equal offsets, so (at, seq) is a total order —
// the one every file source delivers in. Offsets are never NaN.
type eventKey struct {
	at  float64
	seq int64
}

func (k eventKey) open() bool { return k.seq&1 == 0 }

func (k eventKey) before(o eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

func compareKeys(a, b eventKey) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// defaultBatch is the transaction coalescing size when a source's Batch
// is unset.
const defaultBatch = 256

// batcher coalesces one goroutine's transaction events into runs for
// Handler.TransactionBatch and counts what it delivers. It flushes a
// full run, before every open (opens must not overtake buffered
// transactions) and when its owner asks, so the event sequence is the
// same at every batch size. The run's slice is reused between flushes.
type batcher struct {
	h       Handler
	batch   []tlsproxy.Record
	records *atomic.Int64
}

// newBatcher returns a batcher of runs up to size records (<= 0 means
// defaultBatch) that adds every delivered record to records.
func newBatcher(h Handler, size int, records *atomic.Int64) batcher {
	if size <= 0 {
		size = defaultBatch
	}
	return batcher{h: h, batch: make([]tlsproxy.Record, 0, size), records: records}
}

// open delivers a connection-open event, after the buffered run.
func (b *batcher) open(r tlsproxy.Record) {
	b.flush()
	if b.h.ConnOpen != nil {
		b.h.ConnOpen(r)
	}
}

// add buffers a transaction event, delivering the run once it is full.
func (b *batcher) add(r tlsproxy.Record) {
	b.batch = append(b.batch, r)
	if len(b.batch) == cap(b.batch) {
		b.flush()
	}
}

// flush delivers the buffered run, if any.
func (b *batcher) flush() {
	if len(b.batch) == 0 {
		return
	}
	if b.h.TransactionBatch != nil {
		b.h.TransactionBatch(b.batch)
	}
	b.records.Add(int64(len(b.batch)))
	b.batch = b.batch[:0]
}

// tally holds a source's delivery counters as atomics; embedding it
// gives each source a concurrency-safe Stats for free.
type tally struct {
	records   atomic.Int64
	clients   atomic.Int64
	skipped   atomic.Int64
	malformed atomic.Int64
	rotations atomic.Int64
}

// Stats snapshots the counters.
func (t *tally) Stats() Stats {
	return Stats{
		Records:   t.records.Load(),
		Clients:   t.clients.Load(),
		Skipped:   t.skipped.Load(),
		Malformed: t.malformed.Load(),
		Rotations: t.rotations.Load(),
	}
}
