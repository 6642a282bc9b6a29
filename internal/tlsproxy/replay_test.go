package tlsproxy

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func testWorkload(n int) []ReplayRecord {
	recs := make([]ReplayRecord, 0, n)
	for i := 0; i < n; i++ {
		client := fmt.Sprintf("10.0.%d.%d:4%04d", i/200, i%200, i%1000)
		start := float64(i%97) * 0.01
		recs = append(recs, ReplayRecord{
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

func TestWorkloadCSVRoundTrip(t *testing.T) {
	recs := testWorkload(50)
	var b strings.Builder
	if err := WriteWorkload(&b, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkload(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip returned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

// badWorkloads are workload files ReadWorkload must reject; they also
// seed FuzzReadWorkload.
var badWorkloads = map[string]string{
	"bad header":                "who,sni,start_sec,end_sec,up_bytes,down_bytes\n",
	"bad float":                 "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,zero,1,2,3\n",
	"bad int":                   "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,1,two,3\n",
	"end<start":                 "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,5,1,2,3\n",
	"empty client":              "client,sni,start_sec,end_sec,up_bytes,down_bytes\n,x,0,1,2,3\n",
	"neg start":                 "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,-1,1,2,3\n",
	"short row":                 "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,1\n",
	"nan start":                 "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,NaN,1,2,3\n",
	"nan end":                   "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,nan,2,3\n",
	"infinite end":              "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,+Inf,2,3\n",
	"end beyond duration range": "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,1e10,2,3\n",
}

// TestReadWorkloadInterns checks that a loaded workload holds one copy
// of each distinct client and SNI: repeated values share a backing
// array instead of each pinning its own row's text.
func TestReadWorkloadInterns(t *testing.T) {
	var b strings.Builder
	if err := WriteWorkload(&b, testWorkload(600)); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadWorkload(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]*byte{}
	shared := 0
	for i, r := range recs {
		for _, v := range []string{r.Client, r.SNI} {
			p, seen := first[v]
			if !seen {
				first[v] = unsafe.StringData(v)
				continue
			}
			if p != unsafe.StringData(v) {
				t.Fatalf("record %d: %q is a second copy", i, v)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("fixture repeats no client or SNI")
	}
}

func TestReadWorkloadRejectsBadInput(t *testing.T) {
	for name, in := range badWorkloads {
		if _, err := ReadWorkload(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRecordSourceDelivery replays a workload at full speed across
// several workers and checks the seam's contract: every record arrives
// exactly once with deterministic ConnIDs and logical timestamps,
// opens precede transactions per connection, and one client's events
// stay in offset order.
func TestRecordSourceDelivery(t *testing.T) {
	recs := testWorkload(400)
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	src := &RecordSource{Records: recs, Workers: 4}

	var mu sync.Mutex
	opened := map[uint64]Record{}
	txns := map[uint64]Record{}
	lastEnd := map[string]float64{}
	stats := src.RunBatched(context.Background(), base, func(r Record) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := opened[r.ConnID]; dup {
			t.Errorf("conn %d opened twice", r.ConnID)
		}
		opened[r.ConnID] = r
	}, func(batch []Record) {
		if len(batch) != 1 {
			t.Errorf("maxBatch 1 delivered a batch of %d", len(batch))
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
	}, 1)

	if stats.Records != int64(len(recs)) {
		t.Fatalf("stats.Records = %d, want %d", stats.Records, len(recs))
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

// TestRecordSourcePacing checks Speed stretches delivery: a workload
// spanning 0.4s of recorded time replayed at 4x must take at least
// ~0.1s of wall time, while full speed finishes almost instantly.
func TestRecordSourcePacing(t *testing.T) {
	recs := []ReplayRecord{
		{Client: "a:1", SNI: "x", Start: 0, End: 0.4, UpBytes: 1, DownBytes: 1},
		{Client: "b:1", SNI: "x", Start: 0.1, End: 0.38, UpBytes: 1, DownBytes: 1},
	}
	base := time.Now()

	fast := (&RecordSource{Records: recs}).RunBatched(context.Background(), base, nil, nil, 1)
	if fast.Records != 2 {
		t.Fatalf("full-speed run delivered %d", fast.Records)
	}
	if fast.Wall > 200*time.Millisecond {
		t.Errorf("full-speed replay took %v", fast.Wall)
	}

	paced := (&RecordSource{Records: recs, Speed: 4}).RunBatched(context.Background(), base, nil, nil, 1)
	if paced.Records != 2 {
		t.Fatalf("paced run delivered %d", paced.Records)
	}
	if paced.Wall < 90*time.Millisecond {
		t.Errorf("4x replay of 0.4s workload took only %v", paced.Wall)
	}
}

// TestRunBatchedBatchInvariance pins the delivery seam across batch
// sizes: with one worker, the flattened batch stream at every maxBatch
// must reproduce the record-at-a-time (maxBatch 1) event sequence
// exactly — same interleaving of opens and transactions, same stats —
// while actually coalescing, and a maxBatch of 1 must deliver
// one-record batches.
func TestRunBatchedBatchInvariance(t *testing.T) {
	recs := testWorkload(200)
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

	type run struct {
		events   []string
		maxBatch int
	}
	collect := func(maxBatch int) run {
		var r run
		src := &RecordSource{Records: recs, Workers: 1}
		open := func(rec Record) { r.events = append(r.events, "open:"+fmtConnEvent(rec)) }
		st := src.RunBatched(context.Background(), base, open, func(batch []Record) {
			if len(batch) > r.maxBatch {
				r.maxBatch = len(batch)
			}
			for _, rec := range batch {
				r.events = append(r.events, "txn:"+fmtConnEvent(rec))
			}
		}, maxBatch)
		if st.Records != int64(len(recs)) {
			t.Fatalf("maxBatch=%d: stats.Records = %d, want %d", maxBatch, st.Records, len(recs))
		}
		return r
	}

	ref := collect(1)
	if ref.maxBatch != 1 {
		t.Errorf("maxBatch=1 produced a batch of %d", ref.maxBatch)
	}
	for _, maxBatch := range []int{7, 256} {
		got := collect(maxBatch)
		if len(got.events) != len(ref.events) {
			t.Fatalf("maxBatch=%d: %d events, want %d", maxBatch, len(got.events), len(ref.events))
		}
		for i := range got.events {
			if got.events[i] != ref.events[i] {
				t.Fatalf("maxBatch=%d: event %d = %q, want %q", maxBatch, i, got.events[i], ref.events[i])
			}
		}
		if maxBatch == 256 && got.maxBatch < 2 {
			t.Errorf("maxBatch=256 never coalesced")
		}
	}
}

// fmtConnEvent renders the fields an event's identity hangs on.
func fmtConnEvent(r Record) string {
	return fmt.Sprintf("%d:%s:%s", r.ConnID, r.ClientAddr, r.SNI)
}

func TestRecordSourceCancel(t *testing.T) {
	recs := testWorkload(10)
	for i := range recs {
		recs[i].Start = float64(i) * 10 // spread far apart in replay time
		recs[i].End = recs[i].Start + 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan ReplayStats, 1)
	go func() {
		done <- (&RecordSource{Records: recs, Speed: 1, Workers: 2}).RunBatched(ctx, time.Now(), nil, nil, 1)
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

// referenceEvent is an event as RunBatched once built them: a full
// Record copied per event, ordered with sort.Slice. It survives as the
// oracle for the key-sorted delivery order.
type referenceEvent struct {
	at   float64
	seq  int64
	open bool
	rec  Record
}

// referenceOrder returns each worker's event sequence the way RunBatched
// built it before events became keys into the workload: partition by
// hash/fnv over the client address, then sort by (at, seq).
func referenceOrder(recs []ReplayRecord, base time.Time, workers int) [][]referenceEvent {
	parts := make([][]referenceEvent, workers)
	for i, r := range recs {
		h := fnv.New32a()
		io.WriteString(h, r.Client)
		w := int(h.Sum32() % uint32(workers))
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
func tieWorkload() []ReplayRecord {
	var recs []ReplayRecord
	for c := 0; c < 16; c++ {
		client := fmt.Sprintf("10.9.0.%d:5%03d", c, c)
		for j := 0; j < 24; j++ {
			start := float64(j+c%3) * 0.5
			recs = append(recs, ReplayRecord{
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

// TestRecordSourceOrderMatchesReference pins RunBatched's per-worker
// event sequence to the reference build on a tie-heavy workload, at
// every worker count and batch size: the same events, with the same
// records, in the same order.
func TestRecordSourceOrderMatchesReference(t *testing.T) {
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

// TestRecordSourceOrderSkewedOffsets pins the order where the offset
// buckets are uneven or collapse to one: a far outlier that puts nearly
// every key in the first bucket, a negative offset, and an infinite end
// that leaves no finite range to bucket.
func TestRecordSourceOrderSkewedOffsets(t *testing.T) {
	outlier := append(tieWorkload(),
		ReplayRecord{Client: "10.9.1.1:6000", SNI: "far.example", Start: 1e6, End: 1e6 + 0.5},
		ReplayRecord{Client: "10.9.0.3:5003", SNI: "early.example", Start: -2, End: 0.5})
	infinite := append(tieWorkload(),
		ReplayRecord{Client: "10.9.0.5:5005", SNI: "open.example", Start: 3, End: math.Inf(1)})
	for name, recs := range map[string][]ReplayRecord{"outlier": outlier, "infinite": infinite} {
		t.Run(name, func(t *testing.T) { checkReferenceOrder(t, recs) })
	}
}

// checkReferenceOrder runs recs at every worker count and batch size and
// checks each worker's event sequence against referenceOrder: the same
// events, with the same records, in the same order.
func checkReferenceOrder(t *testing.T, recs []ReplayRecord) {
	t.Helper()
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	type event struct {
		open bool
		rec  Record
	}
	for _, workers := range []int{1, 4} {
		ref := referenceOrder(recs, base, workers)
		owner := func(client string) int {
			h := fnv.New32a()
			io.WriteString(h, client)
			return int(h.Sum32() % uint32(workers))
		}
		for _, maxBatch := range []int{1, 7, 256} {
			// Events are logged under the worker the reference assigns
			// their client to. The lock keeps a wrong partition a
			// sequence mismatch rather than a data race.
			var mu sync.Mutex
			got := make([][]event, workers)
			add := func(open bool, r Record) {
				mu.Lock()
				defer mu.Unlock()
				w := owner(r.ClientAddr)
				got[w] = append(got[w], event{open, r})
			}
			st := (&RecordSource{Records: recs, Workers: workers}).RunBatched(context.Background(), base,
				func(r Record) { add(true, r) },
				func(batch []Record) {
					for _, r := range batch {
						add(false, r)
					}
				}, maxBatch)
			if st.Records != int64(len(recs)) {
				t.Fatalf("workers=%d maxBatch=%d: delivered %d records, want %d", workers, maxBatch, st.Records, len(recs))
			}
			for w := range ref {
				if len(got[w]) != len(ref[w]) {
					t.Fatalf("workers=%d maxBatch=%d worker %d: %d events, want %d", workers, maxBatch, w, len(got[w]), len(ref[w]))
				}
				for i, want := range ref[w] {
					if g := got[w][i]; g.open != want.open || g.rec != want.rec {
						t.Fatalf("workers=%d maxBatch=%d worker %d event %d: got open=%v %+v, want open=%v %+v",
							workers, maxBatch, w, i, g.open, g.rec, want.open, want.rec)
					}
				}
			}
		}
	}
}

// TestClientHashMatchesFNV pins the in-place partition hash to hash/fnv,
// so the assignment of clients to workers is the one it always was.
func TestClientHashMatchesFNV(t *testing.T) {
	for _, client := range []string{"", "a:1", "10.0.0.5:40001", "[2001:db8::1]:443", strings.Repeat("x", 300)} {
		h := fnv.New32a()
		io.WriteString(h, client)
		if got, want := clientHash(client), h.Sum32(); got != want {
			t.Errorf("clientHash(%q) = %#x, want %#x", client, got, want)
		}
	}
}

// BenchmarkRecordSourceRun replays 200k records over 4,000 clients into
// no-op callbacks and reports the bytes allocated per record, which is
// the delivery's resident cost on top of the loaded workload. A second
// size shows whether allocations grow with the record count;
// scripts/check.sh gates both.
func BenchmarkRecordSourceRun(b *testing.B) {
	const clients = 4000
	for _, n := range []int{50_000, 200_000} {
		recs := make([]ReplayRecord, n)
		for i := range recs {
			c, j := i%clients, i/clients
			start := float64(j)*2 + float64(c%50)*0.01
			recs[i] = ReplayRecord{
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
				src := &RecordSource{Records: recs, Workers: workers}
				base := time.Unix(0, 0)
				open := func(Record) {}
				txn := func([]Record) {}
				var before, after runtime.MemStats
				b.ReportAllocs()
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src.RunBatched(context.Background(), base, open, txn, 256)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(n), "B/record")
			})
		}
	}
}
