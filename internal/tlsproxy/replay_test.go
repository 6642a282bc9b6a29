package tlsproxy

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
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
	"bad header":   "who,sni,start_sec,end_sec,up_bytes,down_bytes\n",
	"bad float":    "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,zero,1,2,3\n",
	"bad int":      "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,1,two,3\n",
	"end<start":    "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,5,1,2,3\n",
	"empty client": "client,sni,start_sec,end_sec,up_bytes,down_bytes\n,x,0,1,2,3\n",
	"neg start":    "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,-1,1,2,3\n",
	"short row":    "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,1\n",
	"nan start":    "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,NaN,1,2,3\n",
	"nan end":      "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,nan,2,3\n",
	"infinite end": "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,+Inf,2,3\n",
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
	wantClients := map[string]bool{}
	for _, r := range recs {
		wantClients[r.Client] = true
	}
	if stats.Clients != len(wantClients) {
		t.Errorf("stats.Clients = %d, want %d", stats.Clients, len(wantClients))
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
