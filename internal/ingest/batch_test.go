package ingest

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"droppackets/internal/pcap"
	"droppackets/internal/tlsproxy"
)

func testWorkload(n int) []tlsproxy.ReplayRecord {
	recs := make([]tlsproxy.ReplayRecord, 0, n)
	for i := 0; i < n; i++ {
		client := fmt.Sprintf("10.0.%d.%d:4%04d", i/200, i%200, i%1000)
		start := float64(i%97) * 0.01
		recs = append(recs, tlsproxy.ReplayRecord{
			Client:    client,
			SNI:       fmt.Sprintf("video%d.example.com", i%5),
			Start:     start,
			End:       start + 0.5 + float64(i%13)*0.05,
			UpBytes:   int64(1000 + i),
			DownBytes: int64(50000 + 17*i),
		})
	}
	return recs
}

// loadedSource wraps recs in a BatchSource as they are, without the
// constructors' quantization, so a test controls every offset.
func loadedSource(recs []tlsproxy.ReplayRecord, base time.Time, speed float64, workers, batch int) *BatchSource {
	return &BatchSource{Batch: batch, name: "test", records: recs, base: base, speed: speed, workers: workers}
}

// TestBatchSourceDelivery replays a workload at full speed across
// several workers and checks the source's contract: every record
// arrives exactly once with deterministic ConnIDs and logical
// timestamps, opens precede transactions per connection, and one
// client's events stay in offset order.
func TestBatchSourceDelivery(t *testing.T) {
	recs := testWorkload(400)
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	src := loadedSource(recs, base, 0, 4, 1)

	var mu sync.Mutex
	opened := map[uint64]tlsproxy.Record{}
	txns := map[uint64]tlsproxy.Record{}
	lastEnd := map[string]float64{}
	src.Run(context.Background(), Handler{ConnOpen: func(r tlsproxy.Record) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := opened[r.ConnID]; dup {
			t.Errorf("conn %d opened twice", r.ConnID)
		}
		opened[r.ConnID] = r
	}, TransactionBatch: func(batch []tlsproxy.Record) {
		if len(batch) != 1 {
			t.Errorf("Batch 1 delivered a batch of %d", len(batch))
		}
		r := batch[0]
		mu.Lock()
		defer mu.Unlock()
		if _, ok := opened[r.ConnID]; !ok {
			t.Errorf("conn %d transaction before open", r.ConnID)
		}
		if _, dup := txns[r.ConnID]; dup {
			t.Errorf("conn %d delivered twice", r.ConnID)
		}
		txns[r.ConnID] = r
		// Workloads order a client's records by start; ends may
		// interleave, but a client's event stream must be time-ordered.
		end := r.End.Sub(base).Seconds()
		if end < lastEnd[r.ClientAddr] {
			t.Errorf("client %s transactions out of order: %v after %v", r.ClientAddr, end, lastEnd[r.ClientAddr])
		}
		lastEnd[r.ClientAddr] = end
	}})

	if got := src.Stats().Records; got != int64(len(recs)) {
		t.Fatalf("Stats().Records = %d, want %d", got, len(recs))
	}
	gotClients := map[string]bool{}
	for _, r := range txns {
		gotClients[r.ClientAddr] = true
	}
	wantClients := map[string]bool{}
	for _, r := range recs {
		wantClients[r.Client] = true
	}
	if len(gotClients) != len(wantClients) {
		t.Errorf("delivered %d distinct clients, want %d", len(gotClients), len(wantClients))
	}
	for i, r := range recs {
		id := uint64(i + 1)
		got, ok := txns[id]
		if !ok {
			t.Fatalf("record %d (conn %d) not delivered", i, id)
		}
		if got.SNI != r.SNI || got.ClientAddr != r.Client ||
			got.UpBytes != r.UpBytes || got.DownBytes != r.DownBytes {
			t.Fatalf("conn %d payload mismatch: %+v vs %+v", id, got, r)
		}
		if want := base.Add(time.Duration(r.Start * float64(time.Second))); !got.Start.Equal(want) {
			t.Fatalf("conn %d Start = %v, want %v", id, got.Start, want)
		}
		if want := base.Add(time.Duration(r.End * float64(time.Second))); !got.End.Equal(want) {
			t.Fatalf("conn %d End = %v, want %v", id, got.End, want)
		}
	}
}

// TestBatchSourcePacing checks speed stretches delivery: a workload
// spanning 0.4s of recorded time replayed at 4x must take at least
// ~0.1s of wall time, while full speed finishes almost instantly.
func TestBatchSourcePacing(t *testing.T) {
	recs := []tlsproxy.ReplayRecord{
		{Client: "a:1", SNI: "x", Start: 0, End: 0.4, UpBytes: 1, DownBytes: 1},
		{Client: "b:1", SNI: "x", Start: 0.1, End: 0.38, UpBytes: 1, DownBytes: 1},
	}
	base := time.Now()
	run := func(speed float64) (int64, time.Duration) {
		src := loadedSource(recs, base, speed, 1, 1)
		start := time.Now()
		src.Run(context.Background(), Handler{})
		return src.Stats().Records, time.Since(start)
	}

	n, wall := run(0)
	if n != 2 {
		t.Fatalf("full-speed run delivered %d", n)
	}
	if wall > 200*time.Millisecond {
		t.Errorf("full-speed replay took %v", wall)
	}

	n, wall = run(4)
	if n != 2 {
		t.Fatalf("paced run delivered %d", n)
	}
	if wall < 90*time.Millisecond {
		t.Errorf("4x replay of 0.4s workload took only %v", wall)
	}
}

// TestBatchSourceBatchInvariance pins delivery across batch sizes: with
// one worker, the flattened batch stream at every Batch must reproduce
// the record-at-a-time (Batch 1) event sequence exactly — same
// interleaving of opens and transactions, same stats — while actually
// coalescing, and a Batch of 1 must deliver one-record batches.
func TestBatchSourceBatchInvariance(t *testing.T) {
	recs := testWorkload(200)
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

	type run struct {
		events   []string
		maxBatch int
	}
	collect := func(batch int) run {
		var r run
		src := loadedSource(recs, base, 0, 1, batch)
		open := func(rec tlsproxy.Record) { r.events = append(r.events, "open:"+fmtConnEvent(rec)) }
		src.Run(context.Background(), Handler{ConnOpen: open, TransactionBatch: func(recs []tlsproxy.Record) {
			if len(recs) > r.maxBatch {
				r.maxBatch = len(recs)
			}
			for _, rec := range recs {
				r.events = append(r.events, "txn:"+fmtConnEvent(rec))
			}
		}})
		if got := src.Stats().Records; got != int64(len(recs)) {
			t.Fatalf("Batch=%d: Stats().Records = %d, want %d", batch, got, len(recs))
		}
		return r
	}

	ref := collect(1)
	if ref.maxBatch != 1 {
		t.Errorf("Batch=1 produced a batch of %d", ref.maxBatch)
	}
	for _, batch := range []int{7, 256} {
		got := collect(batch)
		if len(got.events) != len(ref.events) {
			t.Fatalf("Batch=%d: %d events, want %d", batch, len(got.events), len(ref.events))
		}
		for i := range got.events {
			if got.events[i] != ref.events[i] {
				t.Fatalf("Batch=%d: event %d = %q, want %q", batch, i, got.events[i], ref.events[i])
			}
		}
		if batch == 256 && got.maxBatch < 2 {
			t.Errorf("Batch=256 never coalesced")
		}
	}
}

// fmtConnEvent renders the fields an event's identity hangs on.
func fmtConnEvent(r tlsproxy.Record) string {
	return fmt.Sprintf("%d:%s:%s", r.ConnID, r.ClientAddr, r.SNI)
}

func TestBatchSourceCancel(t *testing.T) {
	recs := testWorkload(10)
	for i := range recs {
		recs[i].Start = float64(i) * 10 // spread far apart in replay time
		recs[i].End = recs[i].Start + 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	src := loadedSource(recs, time.Now(), 1, 2, 1)
	done := make(chan Stats, 1)
	go func() {
		src.Run(ctx, Handler{})
		done <- src.Stats()
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case st := <-done:
		if st.Records == int64(len(recs)) {
			t.Error("cancelled replay still delivered everything")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("replay did not stop after cancel")
	}
}

// referenceEvent is an event as delivery once built them: a full
// Record copied per event, ordered with sort.Slice. It survives as the
// oracle for the key-sorted delivery order.
type referenceEvent struct {
	at   float64
	seq  int64
	open bool
	rec  tlsproxy.Record
}

// referenceOrder returns each worker's event sequence the way delivery
// built it before events became keys into the workload: partition by
// hash/fnv over the client host, then sort by (at, seq).
func referenceOrder(recs []tlsproxy.ReplayRecord, base time.Time, workers int) [][]referenceEvent {
	parts := make([][]referenceEvent, workers)
	for i, r := range recs {
		h := fnv.New32a()
		io.WriteString(h, ClientHost(r.Client))
		w := int(h.Sum32() % uint32(workers))
		rec := tlsproxy.Record{
			ConnID:     uint64(i + 1),
			SNI:        r.SNI,
			ClientAddr: r.Client,
			Start:      base.Add(time.Duration(r.Start * float64(time.Second))),
			End:        base.Add(time.Duration(r.End * float64(time.Second))),
			UpBytes:    r.UpBytes,
			DownBytes:  r.DownBytes,
		}
		parts[w] = append(parts[w],
			referenceEvent{at: r.Start, seq: int64(2 * i), open: true, rec: rec},
			referenceEvent{at: r.End, seq: int64(2*i + 1), rec: rec})
	}
	for _, events := range parts {
		sort.Slice(events, func(a, b int) bool {
			if events[a].at != events[b].at {
				return events[a].at < events[b].at
			}
			return events[a].seq < events[b].seq
		})
	}
	return parts
}

// tieWorkload is a workload on a half-second grid, so offsets collide
// everywhere: clients share start times, some records have zero length,
// and ends land on other records' starts within one client and across
// clients.
func tieWorkload() []tlsproxy.ReplayRecord {
	var recs []tlsproxy.ReplayRecord
	for c := 0; c < 16; c++ {
		client := fmt.Sprintf("10.9.0.%d:5%03d", c, c)
		for j := 0; j < 24; j++ {
			start := float64(j+c%3) * 0.5
			recs = append(recs, tlsproxy.ReplayRecord{
				Client:    client,
				SNI:       fmt.Sprintf("cdn%d.example", (c+j)%4),
				Start:     start,
				End:       start + float64((c*7+j)%4)*0.5,
				UpBytes:   int64(c*100 + j),
				DownBytes: int64(j*1000 + c),
			})
		}
	}
	return recs
}

// TestBatchSourceOrderMatchesReference pins Run's per-worker event
// sequence to the reference build on a tie-heavy workload, at every
// worker count and batch size: the same events, with the same records,
// in the same order.
func TestBatchSourceOrderMatchesReference(t *testing.T) {
	recs := tieWorkload()
	starts, zero, endOnStart := map[float64]int{}, 0, 0
	for _, r := range recs {
		starts[r.Start]++
		if r.End == r.Start {
			zero++
		}
	}
	for _, r := range recs {
		if r.End != r.Start && starts[r.End] > 0 {
			endOnStart++
		}
	}
	if len(starts) == len(recs) || zero == 0 || endOnStart == 0 {
		t.Fatalf("fixture lacks ties: %d distinct starts of %d, %d zero-length, %d ends on a start",
			len(starts), len(recs), zero, endOnStart)
	}

	checkReferenceOrder(t, recs)
}

// TestBatchSourceOrderSkewedOffsets pins the order where the offset
// buckets are uneven or collapse to one: a far outlier that puts nearly
// every key in the first bucket, a negative offset, and an infinite end
// that leaves no finite range to bucket.
func TestBatchSourceOrderSkewedOffsets(t *testing.T) {
	outlier := append(tieWorkload(),
		tlsproxy.ReplayRecord{Client: "10.9.1.1:6000", SNI: "far.example", Start: 1e6, End: 1e6 + 0.5},
		tlsproxy.ReplayRecord{Client: "10.9.0.3:5003", SNI: "early.example", Start: -2, End: 0.5})
	infinite := append(tieWorkload(),
		tlsproxy.ReplayRecord{Client: "10.9.0.5:5005", SNI: "open.example", Start: 3, End: math.Inf(1)})
	for name, recs := range map[string][]tlsproxy.ReplayRecord{"outlier": outlier, "infinite": infinite} {
		t.Run(name, func(t *testing.T) { checkReferenceOrder(t, recs) })
	}
}

// checkReferenceOrder runs recs at every worker count and batch size and
// checks each worker's event sequence against referenceOrder: the same
// events, with the same records, in the same order.
func checkReferenceOrder(t *testing.T, recs []tlsproxy.ReplayRecord) {
	t.Helper()
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	type event struct {
		open bool
		rec  tlsproxy.Record
	}
	for _, workers := range []int{1, 4} {
		ref := referenceOrder(recs, base, workers)
		owner := func(client string) int {
			h := fnv.New32a()
			io.WriteString(h, ClientHost(client))
			return int(h.Sum32() % uint32(workers))
		}
		for _, batch := range []int{1, 7, 256} {
			// Events are logged under the worker the reference assigns
			// their client to. The lock keeps a wrong partition a
			// sequence mismatch rather than a data race.
			var mu sync.Mutex
			got := make([][]event, workers)
			add := func(open bool, r tlsproxy.Record) {
				mu.Lock()
				defer mu.Unlock()
				w := owner(r.ClientAddr)
				got[w] = append(got[w], event{open, r})
			}
			src := loadedSource(recs, base, 0, workers, batch)
			src.Run(context.Background(), Handler{
				ConnOpen: func(r tlsproxy.Record) { add(true, r) },
				TransactionBatch: func(recs []tlsproxy.Record) {
					for _, r := range recs {
						add(false, r)
					}
				}})
			if n := src.Stats().Records; n != int64(len(recs)) {
				t.Fatalf("workers=%d Batch=%d: delivered %d records, want %d", workers, batch, n, len(recs))
			}
			for w := range ref {
				if len(got[w]) != len(ref[w]) {
					t.Fatalf("workers=%d Batch=%d worker %d: %d events, want %d", workers, batch, w, len(got[w]), len(ref[w]))
				}
				for i, want := range ref[w] {
					if g := got[w][i]; g.open != want.open || g.rec != want.rec {
						t.Fatalf("workers=%d Batch=%d worker %d event %d: got open=%v %+v, want open=%v %+v",
							workers, batch, w, i, g.open, g.rec, want.open, want.rec)
					}
				}
			}
		}
	}
}

// TestPartitionKeepsHostTogether sends each of eight hosts through
// eight connections on eight source ports and checks that partition
// puts all of a host's events in one worker's slice: the daemon keys
// client state by host, so a host split across workers would have its
// connections committed out of order.
func TestPartitionKeepsHostTogether(t *testing.T) {
	var recs []tlsproxy.ReplayRecord
	for h := 0; h < 8; h++ {
		for p := 0; p < 8; p++ {
			start := float64(h + p)
			recs = append(recs, tlsproxy.ReplayRecord{
				Client: fmt.Sprintf("10.0.0.%d:%d", h+1, 40000+p),
				SNI:    "cdn.example", Start: start, End: start + 1,
			})
		}
	}
	const workers = 4
	src := loadedSource(recs, time.Unix(0, 0), 0, workers, 1)
	owner := map[string]int{}
	for w, keys := range src.partition(workers) {
		for _, k := range keys {
			host := ClientHost(recs[k.seq/2].Client)
			if prev, ok := owner[host]; ok && prev != w {
				t.Fatalf("host %s has events in workers %d and %d", host, prev, w)
			}
			owner[host] = w
		}
	}
	if len(owner) != 8 {
		t.Fatalf("%d hosts partitioned, want 8", len(owner))
	}
}

func TestClientHost(t *testing.T) {
	tests := []struct {
		addr, want string
	}{
		{"10.0.0.5:51234", "10.0.0.5"},
		{"1.2.3.4:5", "1.2.3.4"},
		{"noport", "noport"},
		{"[::1]:443", "::1"},
		{"::1", "::1"}, // bare IPv6: a LastIndex(":") cut would yield "::"
		{"[2001:db8::42]:8443", "2001:db8::42"},
		{"2001:db8::42", "2001:db8::42"},
		{"", ""},
	}
	for _, tc := range tests {
		if got := ClientHost(tc.addr); got != tc.want {
			t.Errorf("ClientHost(%q) = %q, want %q", tc.addr, got, tc.want)
		}
	}
}

// writePcap writes recs as a packet trace and returns its path.
func writePcap(t *testing.T, recs []tlsproxy.ReplayRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pcap.WriteTransactions(f, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBatchSourceCountsClientHosts pins Stats.Clients to the daemon's
// client key: five connections from one host on five source ports are
// one client, and a second host makes two.
func TestBatchSourceCountsClientHosts(t *testing.T) {
	var recs []tlsproxy.ReplayRecord
	for i := 0; i < 5; i++ {
		recs = append(recs, tlsproxy.ReplayRecord{
			Client: fmt.Sprintf("10.0.0.1:%d", 40000+i), SNI: "cdn.example",
			Start: float64(i), End: float64(i) + 0.5, UpBytes: 100, DownBytes: 5000,
		})
	}
	src, err := NewPcapSource(writePcap(t, recs), time.Unix(0, 0), 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Stats().Clients; got != 1 {
		t.Errorf("one host on five ports: Stats().Clients = %d, want 1", got)
	}
	recs = append(recs, tlsproxy.ReplayRecord{Client: "10.0.0.2:40000", SNI: "cdn.example", Start: 6, End: 7})
	if got := newBatchSource("replay", recs, time.Unix(0, 0), 0, 1).Stats().Clients; got != 2 {
		t.Errorf("two hosts: Stats().Clients = %d, want 2", got)
	}
}

// TestPcapSourceRejectsNaNEpoch checks that a NaN epoch, which would
// rebase every flow to NaN offsets, fails construction instead of
// delivering flows at an arbitrary time in record order.
func TestPcapSourceRejectsNaNEpoch(t *testing.T) {
	path := writePcap(t, []tlsproxy.ReplayRecord{
		{Client: "10.0.0.1:40000", SNI: "a.example", Start: 100, End: 105, UpBytes: 1, DownBytes: 2},
		{Client: "10.0.0.2:40000", SNI: "b.example", Start: 101, End: 102, UpBytes: 1, DownBytes: 2},
	})
	if _, err := NewPcapSource(path, time.Unix(0, 0), math.NaN(), 0, 1); err == nil {
		t.Fatal("NewPcapSource accepted a NaN epoch")
	}
	if _, err := NewPcapSource(path, time.Unix(0, 0), 0, 0, 1); err != nil {
		t.Fatalf("a finite epoch must still load: %v", err)
	}
}

// BenchmarkBatchSourceRun replays 200k records over 4,000 clients into
// no-op callbacks and reports the bytes allocated per record, which is
// the delivery's resident cost on top of the loaded workload. A second
// size shows whether allocations grow with the record count;
// scripts/check.sh gates both.
func BenchmarkBatchSourceRun(b *testing.B) {
	const clients = 4000
	for _, n := range []int{50_000, 200_000} {
		recs := make([]tlsproxy.ReplayRecord, n)
		for i := range recs {
			c, j := i%clients, i/clients
			start := float64(j)*2 + float64(c%50)*0.01
			recs[i] = tlsproxy.ReplayRecord{
				Client:    fmt.Sprintf("10.%d.%d.%d:4%04d", c>>16, (c>>8)&255, c&255, c%10000),
				SNI:       fmt.Sprintf("cdn%d.video.example", i%12),
				Start:     start,
				End:       start + 0.5 + float64(i%7)*0.25,
				UpBytes:   int64(i),
				DownBytes: int64(3 * i),
			}
		}
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("records=%d/workers=%d", n, workers), func(b *testing.B) {
				src := loadedSource(recs, time.Unix(0, 0), 0, workers, 256)
				h := Handler{ConnOpen: func(tlsproxy.Record) {}, TransactionBatch: func([]tlsproxy.Record) {}}
				var before, after runtime.MemStats
				b.ReportAllocs()
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src.Run(context.Background(), h)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(n), "B/record")
			})
		}
	}
}
