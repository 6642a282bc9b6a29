package tlsproxy

import (
	"context"
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
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
	// seconds from the replay base. A negative, non-finite or inverted
	// span is rejected at load.
	Start, End float64
	// UpBytes and DownBytes are the relayed byte counts.
	UpBytes, DownBytes int64
}

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
func ReadWorkload(r io.Reader) ([]ReplayRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(replayHeader)
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("tlsproxy: read workload header: %w", err)
	}
	for i, want := range replayHeader {
		if head[i] != want {
			return nil, fmt.Errorf("tlsproxy: workload header column %d is %q, want %q", i, head[i], want)
		}
	}
	var recs []ReplayRecord
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("tlsproxy: read workload line %d: %w", line, err)
		}
		rec := ReplayRecord{Client: row[0], SNI: row[1]}
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
		if rec.Client == "" || !(rec.Start >= 0 && rec.End >= rec.Start) || math.IsInf(rec.End, 1) {
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
	// Clients is the number of distinct client addresses in the
	// workload.
	Clients int
	// Wall is how long the delivery took.
	Wall time.Duration
}

// RecordSource replays a workload into open and transaction-batch
// callbacks. Each connection produces an open event at its Start
// offset and a transaction event at its End offset; record timestamps
// are logical (base + offset) regardless of pacing, so sessionization
// output is invariant under acceleration.
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

// replayEvent is one callback delivery: an open or the final
// transaction of a connection.
type replayEvent struct {
	at   float64 // seconds offset from base
	seq  int64   // construction order, the tie-break for equal offsets
	open bool
	rec  Record
}

// RunBatched delivers the workload into the callbacks (either may be
// nil) until done or ctx is cancelled, returning delivery stats. ConnIDs
// are assigned deterministically from record order (1-based), and for
// each connection the open event is delivered before the transaction
// event on the same goroutine; events of one client always replay on
// one goroutine in offset order. Transaction events arrive coalesced:
// each worker appends completed records to a batch of up to maxBatch
// (<= 0 means 1, record-at-a-time) and flushes it before any open event,
// before every pacing sleep, and at the end of its partition — so the
// per-goroutine event order is the same at every maxBatch, only the run
// lengths differ. The batch slice is reused between flushes; txnBatch
// must not retain it.
func (s *RecordSource) RunBatched(ctx context.Context, base time.Time, open func(Record), txnBatch func([]Record), maxBatch int) ReplayStats {
	if maxBatch <= 0 {
		maxBatch = 1
	}
	workers := s.Workers
	if workers <= 1 {
		workers = 1
	}
	// Partition events by client hash so one client's timeline stays on
	// one goroutine.
	parts := make([][]replayEvent, workers)
	// Two events per record. Sizing the partitions up front (with an
	// eighth of slack for an uneven hash split) keeps append from
	// regrowing — and the runtime from clearing — hundreds of megabytes
	// on a million-record workload.
	perPart := 2 * len(s.Records) / workers
	if workers > 1 {
		perPart += perPart / 8
	}
	for w := range parts {
		parts[w] = make([]replayEvent, 0, perPart)
	}
	clients := map[string]int{}
	for i, r := range s.Records {
		w := 0
		if workers > 1 {
			h := fnv.New32a()
			io.WriteString(h, r.Client)
			w = int(h.Sum32() % uint32(workers))
		}
		clients[r.Client]++
		rec := Record{
			ConnID:     uint64(i + 1),
			SNI:        r.SNI,
			ClientAddr: r.Client,
			Start:      base.Add(time.Duration(r.Start * float64(time.Second))),
			End:        base.Add(time.Duration(r.End * float64(time.Second))),
			UpBytes:    r.UpBytes,
			DownBytes:  r.DownBytes,
		}
		parts[w] = append(parts[w],
			replayEvent{at: r.Start, seq: int64(2 * i), open: true, rec: rec},
			replayEvent{at: r.End, seq: int64(2*i + 1), rec: rec})
	}
	for _, p := range parts {
		events := p
		sort.Slice(events, func(a, b int) bool {
			if events[a].at != events[b].at {
				return events[a].at < events[b].at
			}
			return events[a].seq < events[b].seq
		})
	}

	start := time.Now()
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		wg.Add(1)
		go func(events []replayEvent) {
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
				if ev.open {
					flush() // opens must not overtake buffered transactions
					if open != nil {
						open(ev.rec)
					}
				} else {
					batch = append(batch, ev.rec)
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
		Clients: len(clients),
		Wall:    time.Since(start),
	}
}
