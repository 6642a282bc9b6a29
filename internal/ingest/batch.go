package ingest

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"

	"droppackets/internal/intern"
	"droppackets/internal/netflow"
	"droppackets/internal/pcap"
	"droppackets/internal/tlsproxy"
)

// BatchSource replays a fully-loaded workload — pcap flows, NetFlow
// records, or a replay CSV — so every batch format shares one event
// ordering, ConnID assignment and pacing rule. Offsets are quantized to
// the microsecond grid at construction; constructors fail fast on
// unreadable or empty inputs. Each connection is an open event at its
// Start and a transaction event at its End, and its ConnID is its
// 1-based file position. Record times are logical (base + offset)
// whatever the pace, so sessionization is invariant under acceleration.
type BatchSource struct {
	// Batch caps how many completed records are coalesced per
	// TransactionBatch call; <= 0 means the default (256).
	Batch int

	name    string
	records []tlsproxy.ReplayRecord
	base    time.Time
	speed   float64 // offset t is due t/speed after Run starts; <= 0: no pacing
	workers int     // delivery goroutines, clients partitioned across them by hash
	tally
}

// newBatchSource quantizes the workload's offsets and pre-counts the
// distinct client hosts.
func newBatchSource(name string, recs []tlsproxy.ReplayRecord, base time.Time, speed float64, workers int) *BatchSource {
	clients := map[string]struct{}{}
	for i := range recs {
		recs[i].Start = QuantizeMicros(recs[i].Start)
		recs[i].End = QuantizeMicros(recs[i].End)
		if recs[i].End < recs[i].Start {
			// Rounding in opposite directions can invert a sub-microsecond
			// interval; clamp rather than violate End >= Start.
			recs[i].End = recs[i].Start
		}
		clients[ClientHost(recs[i].Client)] = struct{}{}
	}
	s := &BatchSource{name: name, records: recs, base: base, speed: speed, workers: workers}
	s.clients.Store(int64(len(clients)))
	return s
}

// Name reports which format the workload came from.
func (s *BatchSource) Name() string { return s.name }

// Run replays the workload into h at the configured pace, completed
// records coalesced up to Batch per call. Events of one client address
// replay on one goroutine in (offset, file order); Run sorts 16-byte
// event keys that index into the workload and builds each Record only
// when it is delivered. Delivery of a loaded workload cannot fail, so
// Run always returns nil — either every event was delivered or ctx was
// cancelled.
func (s *BatchSource) Run(ctx context.Context, h Handler) error {
	parts := s.partition(max(s.workers, 1))
	start := time.Now() // pacing starts once the keys are sorted
	var wg sync.WaitGroup
	for _, keys := range parts {
		if len(keys) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.deliver(ctx, start, keys, newBatcher(h, s.Batch, &s.tally.records))
		}()
	}
	wg.Wait()
	return nil
}

// deliver is one worker's loop over its sorted keys.
func (s *BatchSource) deliver(ctx context.Context, start time.Time, keys []eventKey, b batcher) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for _, k := range keys {
		if s.speed > 0 {
			if d := time.Until(offsetTime(start, k.at/s.speed)); d > 0 {
				b.flush() // deliver what is due before blocking
				timer.Reset(d)
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
			}
		}
		if ctx.Err() != nil {
			b.flush()
			return
		}
		if k.open() {
			b.open(s.record(k.seq / 2))
		} else {
			b.add(s.record(k.seq / 2))
		}
	}
	b.flush()
}

// record builds the Record of connection records[i], whose ConnID is
// its 1-based index.
func (s *BatchSource) record(i int64) tlsproxy.Record {
	r := &s.records[i]
	return tlsproxy.Record{
		ConnID:     uint64(i + 1),
		SNI:        r.SNI,
		ClientAddr: r.Client,
		Start:      offsetTime(s.base, r.Start),
		End:        offsetTime(s.base, r.End),
		UpBytes:    r.UpBytes,
		DownBytes:  r.DownBytes,
	}
}

// partition splits the workload's events by the hash of the client
// host (ClientHost, the key the daemon keeps client state under), one
// slice per worker, each sorted by (at, seq), so all of a host's
// connections are delivered in order by one worker whatever their
// source ports. The slices are carved out of one
// array of exactly two keys per record.
//
// Keys are placed by a counting sort on (worker, offset bucket). The
// bucket is a monotone function of at, so every key of a bucket orders
// before every key of the next, and keys enter a bucket in seq order;
// what is left is to sort each bucket's few keys. Offsets that are not
// all finite, or all equal, share one bucket, which is then a plain sort.
func (s *BatchSource) partition(workers int) [][]eventKey {
	worker := func(client string) int {
		if workers == 1 {
			return 0
		}
		return int(intern.Hash(ClientHost(client)) % uint32(workers))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range s.records {
		r := &s.records[i]
		lo, hi = min(lo, r.Start, r.End), max(hi, r.Start, r.End)
	}
	// About sixteen keys per bucket.
	nb := max(1, len(s.records)/(8*workers))
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
	for i := range s.records {
		r := &s.records[i]
		w := worker(r.Client) * nb
		next[w+bucket(r.Start)]++
		next[w+bucket(r.End)]++
	}
	off := 0
	for b, n := range next {
		next[b] = off
		off += n
	}
	keys := make([]eventKey, 2*len(s.records))
	for i := range s.records {
		r := &s.records[i]
		w := worker(r.Client) * nb
		b := w + bucket(r.Start)
		keys[next[b]] = eventKey{at: r.Start, seq: int64(2 * i)}
		next[b]++
		b = w + bucket(r.End)
		keys[next[b]] = eventKey{at: r.End, seq: int64(2*i + 1)}
		next[b]++
	}
	// Each next[b] is now the end of its bucket.
	parts := make([][]eventKey, workers)
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

// NewReplaySource loads a workload CSV (tlsproxy.ReadWorkload format)
// as a batch source named "replay". Offsets in the file are already
// relative to the replay base, so no epoch rebasing applies.
func NewReplaySource(path string, base time.Time, speed float64, workers int) (*BatchSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: open workload: %w", err)
	}
	defer f.Close()
	recs, err := tlsproxy.ReadWorkload(f)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("ingest: workload %s has no records", path)
	}
	return newBatchSource("replay", recs, base, speed, workers), nil
}

// NewPcapSource loads a packet trace (pcap.ReadTransactions) as a batch
// source named "pcap". Capture timestamps are rebased to offsets by
// subtracting epoch (Unix seconds); a negative epoch means "use the
// earliest flow start", so a raw capture replays from its own first
// packet.
func NewPcapSource(path string, base time.Time, epoch, speed float64, workers int) (*BatchSource, error) {
	if math.IsNaN(epoch) {
		return nil, fmt.Errorf("ingest: pcap epoch is NaN")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: open pcap: %w", err)
	}
	defer f.Close()
	recs, err := pcap.ReadTransactions(f)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("ingest: pcap %s has no TLS flows", path)
	}
	if epoch < 0 {
		epoch = recs[0].Start
		for _, r := range recs {
			if r.Start < epoch {
				epoch = r.Start
			}
		}
	}
	for i := range recs {
		recs[i].Start -= epoch
		recs[i].End -= epoch
		if recs[i].Start < 0 {
			return nil, fmt.Errorf("ingest: pcap flow starts %.6fs before epoch %v; lower -ingest-epoch", -recs[i].Start, epoch)
		}
	}
	return newBatchSource("pcap", recs, base, speed, workers), nil
}

// NewNetflowSource loads a client-attributed flow-record file
// (netflow.ReadFlows) as a batch source named "netflow". Flows without
// a DNS-resolved host carry no service identity and are counted as
// skipped, mirroring netflow.VideoTransactions. Flow times are already
// offsets, so no epoch rebasing applies.
func NewNetflowSource(path string, base time.Time, speed float64, workers int) (*BatchSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: open flow file: %w", err)
	}
	defer f.Close()
	flows, err := netflow.ReadFlows(f)
	if err != nil {
		return nil, err
	}
	var recs []tlsproxy.ReplayRecord
	var skipped int64
	for _, cf := range flows {
		if cf.Flow.Host == "" {
			skipped++
			continue
		}
		recs = append(recs, tlsproxy.ReplayRecord{
			Client:    cf.Client,
			SNI:       cf.Flow.Host,
			Start:     cf.Flow.Start,
			End:       cf.Flow.End,
			UpBytes:   cf.Flow.UpBytes,
			DownBytes: cf.Flow.DownBytes,
		})
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("ingest: flow file %s has no host-resolved flows", path)
	}
	s := newBatchSource("netflow", recs, base, speed, workers)
	s.skipped.Store(skipped)
	return s, nil
}
