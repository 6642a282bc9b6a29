package main

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock advances only when slept on (or when a test moves it).
type fakeClock struct {
	now time.Time
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestSelfTimeNestedAndSiblingSpans(t *testing.T) {
	clk := &fakeClock{now: time.Unix(100, 0)}
	rec := &recorder{names: []string{"run", "batch", "push", "observe"}, t0: clk.now, now: clk.Now}
	step := func(d time.Duration) { clk.now = clk.now.Add(d) }

	run := rec.begin(0, -1)
	step(10) // run self
	for i := 0; i < 2; i++ {
		batch := rec.begin(1, run)
		step(3) // batch self
		push := rec.begin(2, batch)
		step(20)
		rec.end(push)
		step(1) // batch self, between siblings
		obs := rec.begin(3, batch)
		step(30)
		rec.end(obs)
		step(2) // batch self
		rec.end(batch)
		step(5) // run self
	}
	rec.end(run)

	got := rec.selfTimes()
	want := map[string]layerTime{
		"run":     {calls: 1, total: 132, self: 20},
		"batch":   {calls: 2, total: 112, self: 12},
		"push":    {calls: 2, total: 40, self: 40},
		"observe": {calls: 2, total: 60, self: 60},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	var sum time.Duration
	for _, lt := range got {
		sum += lt.self
	}
	if sum != 132 {
		t.Errorf("self times sum to %d, want the root's duration 132", sum)
	}
}

func TestSelfTimeClipsOverlappingChildren(t *testing.T) {
	rec := &recorder{names: []string{"parent", "child"}}
	rec.spans = []span{
		{name: 0, parent: -1, start: 0, end: 100},
		{name: 1, parent: 0, start: 10, end: 50},
		{name: 1, parent: 0, start: 40, end: 70},  // overlaps its sibling by 10
		{name: 1, parent: 0, start: 90, end: 130}, // outlives the parent by 30
	}
	if got := rec.selfTimes()["parent"].self; got != 30 {
		t.Errorf("parent self = %d, want 100 - (60 + 10)", got)
	}
	var nilRec *recorder
	if id := nilRec.begin(0, -1); id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
	nilRec.end(-1) // must not panic
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {19, 0.50}, {99, 0.50},
		{100, 0.90}, {199, 0.90},
		{200, 0.95}, {999, 0.95},
		{1000, 0.99}, {1_000_000, 0.99},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("n=%d: p%g, want p%g", c.n, got*100, c.want*100)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990 (ten samples beyond it)", got)
	}
	xs[999] = math.Inf(1) // one failed operation among 1000 does not reach p99
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 with one failure = %v", got)
	}
	for i := 985; i < 1000; i++ {
		xs[i] = math.Inf(1)
	}
	if got := percentile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 1.5%% failures = %v, want +Inf", got)
	}
}

func TestParseScrape(t *testing.T) {
	s, err := parseScrape(`# HELP x y
qoeproxy_transactions_total 42
qoeproxy_qoe_predictions_total{class="low"} 7
qoeproxy_shard_classify_seconds_bucket{le="0.001"} 10
qoeproxy_shard_classify_seconds_bucket{le="0.01"} 90
qoeproxy_shard_classify_seconds_bucket{le="+Inf"} 100
qoeproxy_shard_classify_seconds_sum 0.5
qoeproxy_shard_classify_seconds_count 100
`)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.value("qoeproxy_transactions_total"); !ok || v != 42 {
		t.Errorf("transactions_total = %v, %v", v, ok)
	}
	if _, ok := s.value("qoeproxy_absent"); ok {
		t.Error("absent series reported present")
	}
	if v, _ := s.value("qoeproxy_shard_classify_seconds_sum"); v != 0.5 {
		t.Errorf("histogram sum = %v", v)
	}
	p50, ok := s.hists["qoeproxy_shard_classify_seconds"].quantile(0.5)
	if !ok || math.Abs(p50-0.0055) > 1e-12 {
		t.Errorf("p50 = %v, want 0.0055 (halfway through the second bucket)", p50)
	}
}

// stallWriter records what it is given and, on chosen writes, moves the
// clock: a reader that blocks the generator.
type stallWriter struct {
	clk    *fakeClock
	stalls map[int]time.Duration // write number -> how long it blocks
	writes [][]byte
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.clk.Sleep(w.stalls[len(w.writes)])
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func testSchedule(dues ...time.Duration) *schedule {
	sch := &schedule{}
	for i, d := range dues {
		sch.buf = append(sch.buf, byte('a'+i), '\n')
		sch.ends = append(sch.ends, len(sch.buf))
		sch.due = append(sch.due, d)
	}
	return sch
}

func TestPaceWritesDueLinesInSlices(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{now: time.Unix(50, 0)}
	w := &stallWriter{clk: clk}
	var appended atomic.Int64
	sch := testSchedule(1*ms, 4*ms, 12*ms, 12*ms, 31*ms)
	start, late, err := pace(clk, w, sch, 5*ms, &appended)
	if err != nil {
		t.Fatal(err)
	}
	if !start.Equal(time.Unix(50, 0)) {
		t.Errorf("start = %v", start)
	}
	wantWrites := []string{"a\nb\n", "c\nd\n", "e\n"} // at 5, 15 and 35 ms
	if len(w.writes) != len(wantWrites) {
		t.Fatalf("%d writes, want %d", len(w.writes), len(wantWrites))
	}
	for i, want := range wantWrites {
		if !bytes.Equal(w.writes[i], []byte(want)) {
			t.Errorf("write %d = %q, want %q", i, w.writes[i], want)
		}
	}
	wantLate := []time.Duration{4 * ms, 1 * ms, 3 * ms, 3 * ms, 4 * ms}
	for i, want := range wantLate {
		if late[i] != want {
			t.Errorf("line %d late by %v, want %v", i, late[i], want)
		}
	}
	if appended.Load() != 5 {
		t.Errorf("appended = %d", appended.Load())
	}
	if got := clk.now.Sub(start); got != 35*ms {
		t.Errorf("run took %v, want 35ms", got)
	}
}

func TestPaceChargesAStallToTheLinesItDelayed(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{now: time.Unix(50, 0)}
	// The first write blocks for 20 ms: an open loop keeps the later
	// lines' due times, so the two lines due at 12 ms go out 13 ms late
	// and the line due at 31 ms is unaffected.
	w := &stallWriter{clk: clk, stalls: map[int]time.Duration{0: 20 * ms}}
	var appended atomic.Int64
	_, late, err := pace(clk, w, testSchedule(1*ms, 4*ms, 12*ms, 12*ms, 31*ms), 5*ms, &appended)
	if err != nil {
		t.Fatal(err)
	}
	wantLate := []time.Duration{24 * ms, 21 * ms, 13 * ms, 13 * ms, 4 * ms}
	for i, want := range wantLate {
		if late[i] != want {
			t.Errorf("line %d late by %v, want %v", i, late[i], want)
		}
	}
}

func TestDeliverableCountsRecordsBehindTheHorizon(t *testing.T) {
	ends := []float64{10, 200, 399.999, 400, 400.001, 700}
	if got := deliverable(ends); got != 4 {
		t.Errorf("deliverable = %d, want the 4 records ending at or before 700-300", got)
	}
}
