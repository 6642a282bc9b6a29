package ingest

import (
	"context"
	"fmt"
	"os"
	"time"

	"droppackets/internal/netflow"
	"droppackets/internal/pcap"
	"droppackets/internal/tlsproxy"
)

// BatchSource replays a fully-loaded workload — pcap flows, NetFlow
// records, or a replay CSV — through tlsproxy.RecordSource, so every
// batch format shares one event ordering, ConnID assignment and pacing
// rule. Offsets are quantized to the microsecond grid at construction;
// constructors fail fast on unreadable or empty inputs.
type BatchSource struct {
	// Batch caps how many completed records are coalesced per
	// TransactionBatch call; <= 0 means the default (256).
	Batch int

	name    string
	records []tlsproxy.ReplayRecord
	base    time.Time
	speed   float64
	workers int
	tally
}

// defaultBatch is the transaction coalescing size when a source's Batch
// is unset.
const defaultBatch = 256

// newBatchSource quantizes the workload's offsets and pre-counts the
// distinct clients.
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
		clients[recs[i].Client] = struct{}{}
	}
	s := &BatchSource{name: name, records: recs, base: base, speed: speed, workers: workers}
	s.clients.Store(int64(len(clients)))
	return s
}

// Name reports which format the workload came from.
func (s *BatchSource) Name() string { return s.name }

// Run replays the workload into h at the configured pace, completed
// records coalesced up to Batch per call. Delivery of a loaded workload
// cannot fail, so Run always returns nil — either every event was
// delivered or ctx was cancelled.
func (s *BatchSource) Run(ctx context.Context, h Handler) error {
	src := &tlsproxy.RecordSource{Records: s.records, Speed: s.speed, Workers: s.workers}
	maxBatch := s.Batch
	if maxBatch <= 0 {
		maxBatch = defaultBatch
	}
	src.RunBatched(ctx, s.base, h.ConnOpen,
		func(recs []tlsproxy.Record) {
			h.deliverBatch(recs)
			s.tally.records.Add(int64(len(recs)))
		}, maxBatch)
	return nil
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
