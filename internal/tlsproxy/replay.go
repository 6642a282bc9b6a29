package tlsproxy

import (
	"cmp"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"droppackets/internal/intern"
)

// This file is the record-replay seam: a way to drive everything above
// the proxy — the sessionizer, shards, classify loop — with recorded
// or synthetic transaction workloads, at recorded or accelerated
// speed, without opening a socket per session. A RecordSource delivers
// the same Record values (and the same OnConnOpen-before-OnTransaction
// ordering guarantees) the live proxy would, so consumers cannot tell
// replay from capture except by reading the clock.

// ReplayRecord is one connection of a replayable workload, with times
// as offsets in seconds from the replay's base instant. Workloads
// serialize as CSV (WriteWorkload/ReadWorkload) so load harnesses and
// the daemon exchange them through a file.
type ReplayRecord struct {
	// Client is the logical client address ("ip:port"); the per-client
	// session key upstream consumers group by.
	Client string
	// SNI is the hostname the connection asked for.
	SNI string
	// Start and End are the connection's open and close offsets in
	// seconds from the replay base. A negative, inverted or
	// out-of-range (NaN, or at or beyond MaxOffset) span is rejected at
	// load.
	Start, End float64
	// UpBytes and DownBytes are the relayed byte counts.
	UpBytes, DownBytes int64
}

// MaxOffset is the exclusive upper bound, in seconds, on a workload
// offset: RecordSource converts offsets to time.Duration, which
// overflows at 2^63 ns (about 292 years). It is rounded down to a whole
// second so that no offset below it reaches the overflow after
// microsecond quantization either.
const MaxOffset = float64(math.MaxInt64 / int64(time.Second))

// replayHeader is the CSV header row of a workload file.
var replayHeader = []string{"client", "sni", "start_sec", "end_sec", "up_bytes", "down_bytes"}

// WriteWorkload serializes records as CSV with a fixed header.
func WriteWorkload(w io.Writer, recs []ReplayRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(replayHeader); err != nil {
		return fmt.Errorf("tlsproxy: write workload header: %w", err)
	}
	row := make([]string, 6)
	for i, r := range recs {
		row[0] = r.Client
		row[1] = r.SNI
		row[2] = strconv.FormatFloat(r.Start, 'g', -1, 64)
		row[3] = strconv.FormatFloat(r.End, 'g', -1, 64)
		row[4] = strconv.FormatInt(r.UpBytes, 10)
		row[5] = strconv.FormatInt(r.DownBytes, 10)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("tlsproxy: write workload row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadWorkload parses a workload CSV, validating the header and every
// row so a malformed file fails at load time rather than mid-replay.
// Client and SNI values are interned, so the loaded workload holds one
// copy of each distinct value instead of every row's text.
func ReadWorkload(r io.Reader) ([]ReplayRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(replayHeader)
	cr.ReuseRecord = true
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("tlsproxy: read workload header: %w", err)
	}
	for i, want := range replayHeader {
		if head[i] != want {
			return nil, fmt.Errorf("tlsproxy: workload header column %d is %q, want %q", i, head[i], want)
		}
	}
	names := intern.NewTable()
	var recs []ReplayRecord
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("tlsproxy: read workload line %d: %w", line, err)
		}
		var rec ReplayRecord
		rec.Client, _ = names.String(row[0])
		rec.SNI, _ = names.String(row[1])
		if rec.Start, err = strconv.ParseFloat(row[2], 64); err != nil {
			return nil, fmt.Errorf("tlsproxy: workload line %d start: %w", line, err)
		}
		if rec.End, err = strconv.ParseFloat(row[3], 64); err != nil {
			return nil, fmt.Errorf("tlsproxy: workload line %d end: %w", line, err)
		}
		if rec.UpBytes, err = strconv.ParseInt(row[4], 10, 64); err != nil {
			return nil, fmt.Errorf("tlsproxy: workload line %d up_bytes: %w", line, err)
		}
		if rec.DownBytes, err = strconv.ParseInt(row[5], 10, 64); err != nil {
			return nil, fmt.Errorf("tlsproxy: workload line %d down_bytes: %w", line, err)
		}
		// NaN fails every comparison, so it is rejected with the rest.
		if rec.Client == "" || !(rec.Start >= 0 && rec.End >= rec.Start && rec.End < MaxOffset) {
			return nil, fmt.Errorf("tlsproxy: workload line %d invalid (client=%q start=%v end=%v)", line, rec.Client, rec.Start, rec.End)
		}
		recs = append(recs, rec)
	}
}

// ReplayStats summarizes one RecordSource run.
type ReplayStats struct {
	// Records is how many connections were fully delivered (open and
	// final transaction).
	Records int64
	// Wall is how long the delivery took.
	Wall time.Duration
}

// RecordSource replays a workload into open and transaction-batch
// callbacks. Each connection produces an open event at its Start
// offset and a transaction event at its End offset; record timestamps
// are logical (base + offset) regardless of pacing, so sessionization
// output is invariant under acceleration.
//
// The workload is held once, in Records. The delivery order is sorted
// over 16-byte pointer-free event keys that index into it, and each
// Record is built from its ReplayRecord only when it is delivered, so
// a run adds about 33 bytes per record to the loaded workload: the keys
// and the bucket counts that place them.
type RecordSource struct {
	// Records is the workload. Within one client, records should be
	// ordered by Start, as a capture would be.
	Records []ReplayRecord
	// Speed is the time-compression factor: events at offset t are
	// delivered at wall time t/Speed after RunBatched starts. 1 replays in
	// real time; 0 (or negative) delivers as fast as possible.
	Speed float64
	// Workers is the number of delivery goroutines. Clients are
	// partitioned across workers by hash, so per-client event order is
	// preserved no matter the worker count. Defaults to 1.
	Workers int
}

// replayKey is one callback delivery: the open (even seq) or the final
// transaction (odd seq) of connection Records[seq/2], due at offset at.
// seq is also the tie-break for equal offsets, so (at, seq) is a total
// order.
type replayKey struct {
	at  float64 // seconds offset from base
	seq int64
}

func compareKeys(a, b replayKey) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// clientHash is 32-bit FNV-1a over the client address, computed in
// place; it equals hash/fnv's New32a sum, so the partition of clients
// across workers is fixed by the address alone.
func clientHash(client string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(client); i++ {
		h ^= uint32(client[i])
		h *= prime32
	}
	return h
}

// partition splits the workload's events by client hash, one slice per
// worker, each sorted by (at, seq). The slices are carved out of one
// array of exactly two keys per record.
//
// Keys are placed by a counting sort on (worker, offset bucket). The
// bucket is a monotone function of at, so every key of a bucket orders
// before every key of the next, and keys enter a bucket in seq order;
// what is left is to sort each bucket's few keys. Offsets that are not
// all finite, or all equal, share one bucket, which is then a plain sort.
func (s *RecordSource) partition(workers int) [][]replayKey {
	worker := func(client string) int {
		if workers == 1 {
			return 0
		}
		return int(clientHash(client) % uint32(workers))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range s.Records {
		r := &s.Records[i]
		lo, hi = min(lo, r.Start, r.End), max(hi, r.Start, r.End)
	}
	// About sixteen keys per bucket.
	nb := max(1, len(s.Records)/(8*workers))
	scale := float64(nb) / (hi - lo)
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale == 0 {
		nb = 1
	}
	bucket := func(at float64) int {
		if nb == 1 {
			return 0
		}
		return min(int((at-lo)*scale), nb-1)
	}

	// next[w*nb+b] counts bucket b of worker w, then becomes the index
	// its next key is placed at.
	next := make([]int, workers*nb)
	for i := range s.Records {
		r := &s.Records[i]
		w := worker(r.Client) * nb
		next[w+bucket(r.Start)]++
		next[w+bucket(r.End)]++
	}
	off := 0
	for b, n := range next {
		next[b] = off
		off += n
	}
	keys := make([]replayKey, 2*len(s.Records))
	for i := range s.Records {
		r := &s.Records[i]
		w := worker(r.Client) * nb
		b := w + bucket(r.Start)
		keys[next[b]] = replayKey{at: r.Start, seq: int64(2 * i)}
		next[b]++
		b = w + bucket(r.End)
		keys[next[b]] = replayKey{at: r.End, seq: int64(2*i + 1)}
		next[b]++
	}
	// Each next[b] is now the end of its bucket.
	parts := make([][]replayKey, workers)
	from, part := 0, 0
	for b, to := range next {
		slices.SortFunc(keys[from:to], compareKeys)
		if (b+1)%nb == 0 {
			parts[b/nb] = keys[part:to:to]
			part = to
		}
		from = to
	}
	return parts
}

// record builds the Record of connection Records[i], whose ConnID is
// its 1-based index.
func (s *RecordSource) record(base time.Time, i int64) Record {
	r := &s.Records[i]
	return Record{
		ConnID:     uint64(i + 1),
		SNI:        r.SNI,
		ClientAddr: r.Client,
		Start:      base.Add(time.Duration(r.Start * float64(time.Second))),
		End:        base.Add(time.Duration(r.End * float64(time.Second))),
		UpBytes:    r.UpBytes,
		DownBytes:  r.DownBytes,
	}
}

// RunBatched delivers the workload into the callbacks (either may be
// nil) until done or ctx is cancelled, returning delivery stats. ConnIDs
// are assigned deterministically from record order (1-based), and for
// each connection the open event is delivered before the transaction
// event on the same goroutine; events of one client always replay on
// one goroutine in offset order, ties broken by record order with a
// connection's open before its transaction. Transaction events arrive
// coalesced: each worker appends completed records to a batch of up to
// maxBatch (<= 0 means 1, record-at-a-time) and flushes it before any
// open event, before every pacing sleep, and at the end of its
// partition — so the per-goroutine event order is the same at every
// maxBatch, only the run lengths differ. The batch slice is reused
// between flushes; txnBatch must not retain it.
//
// Setup places and sorts two 16-byte keys per record (see partition);
// the Records themselves are neither copied nor reordered, and
// s.Records must not change while RunBatched runs.
func (s *RecordSource) RunBatched(ctx context.Context, base time.Time, open func(Record), txnBatch func([]Record), maxBatch int) ReplayStats {
	if maxBatch <= 0 {
		maxBatch = 1
	}
	parts := s.partition(max(s.Workers, 1))

	start := time.Now()
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		wg.Add(1)
		go func(events []replayKey) {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			if !timer.Stop() {
				<-timer.C
			}
			batch := make([]Record, 0, maxBatch)
			flush := func() {
				if len(batch) == 0 {
					return
				}
				if txnBatch != nil {
					txnBatch(batch)
				}
				delivered.Add(int64(len(batch)))
				batch = batch[:0]
			}
			for _, ev := range events {
				if s.Speed > 0 {
					target := start.Add(time.Duration(ev.at / s.Speed * float64(time.Second)))
					if d := time.Until(target); d > 0 {
						flush() // deliver what is due before blocking
						timer.Reset(d)
						select {
						case <-ctx.Done():
							return
						case <-timer.C:
						}
					}
				}
				if ctx.Err() != nil {
					flush()
					return
				}
				if ev.seq%2 == 0 {
					flush() // opens must not overtake buffered transactions
					if open != nil {
						open(s.record(base, ev.seq/2))
					}
				} else {
					batch = append(batch, s.record(base, ev.seq/2))
					if len(batch) == maxBatch {
						flush()
					}
				}
			}
			flush()
		}(p)
	}
	wg.Wait()
	return ReplayStats{
		Records: delivered.Load(),
		Wall:    time.Since(start),
	}
}
