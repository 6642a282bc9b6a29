package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"droppackets/internal/tlsproxy"
)

func testPool(t *testing.T) *pool {
	t.Helper()
	p, err := buildPool(11, 12)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGenerateWorkloadShapes(t *testing.T) {
	p := testPool(t)
	for _, shape := range []string{"steady", "bursty"} {
		t.Run(shape, func(t *testing.T) {
			cfg := genConfig{clients: 200, seed: 3, ramp: 30, shape: shape}
			w, err := p.generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if w.clients != 200 || len(w.records) == 0 {
				t.Fatalf("clients = %d, records = %d", w.clients, len(w.records))
			}
			// Determinism: same config, same records.
			again, err := p.generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(again.records) != len(w.records) {
				t.Fatalf("regeneration changed record count: %d vs %d", len(again.records), len(w.records))
			}
			for i := range w.records {
				if w.records[i] != again.records[i] {
					t.Fatalf("record %d differs between generations", i)
				}
			}
			// Per-client start order and distinct hosts — the RecordSource
			// delivery contract.
			lastStart := map[string]float64{}
			hosts := map[string]bool{}
			for _, r := range w.records {
				if r.Start < lastStart[r.Client] {
					t.Fatalf("client %s records out of start order", r.Client)
				}
				lastStart[r.Client] = r.Start
				if r.End < r.Start || r.Start < 0 {
					t.Fatalf("invalid span: %+v", r)
				}
				hosts[r.Client] = true
			}
			if len(hosts) != 200 {
				t.Fatalf("%d distinct clients, want 200", len(hosts))
			}
			// With a 30s ramp and sessions lasting minutes, most clients
			// overlap: the workload really is concurrent, not sequential.
			if w.peakConcurrent < 100 {
				t.Errorf("peak concurrency %d of 200 clients; arrivals too spread", w.peakConcurrent)
			}
			if w.simSeconds <= 0 {
				t.Error("no simulated span")
			}
		})
	}
	if _, err := p.generate(genConfig{clients: 5, seed: 1, ramp: 10, shape: "sawtooth"}); err == nil {
		t.Error("unknown shape accepted")
	}
}

func TestShapesDiffer(t *testing.T) {
	p := testPool(t)
	steady, err := p.generate(genConfig{clients: 300, seed: 3, ramp: 30, shape: "steady"})
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := p.generate(genConfig{clients: 300, seed: 3, ramp: 30, shape: "bursty"})
	if err != nil {
		t.Fatal(err)
	}
	// Bursty arrivals concentrate: the spread of session starts must be
	// visibly tighter than steady's uniform ramp.
	spread := func(w *workload) float64 {
		starts := map[string]float64{}
		for _, r := range w.records {
			if _, ok := starts[r.Client]; !ok {
				starts[r.Client] = r.Start
			}
		}
		var mean, n float64
		for _, s := range starts {
			mean += s
			n++
		}
		mean /= n
		var varsum float64
		for _, s := range starts {
			varsum += (s - mean) * (s - mean)
		}
		return math.Sqrt(varsum / n)
	}
	if s, b := spread(steady), spread(bursty); b >= s {
		t.Errorf("bursty start stddev %.2fs not tighter than steady %.2fs", b, s)
	}
}

func TestClientHostPortUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 30000; i++ {
		h := clientHostPort(i)
		if seen[h] {
			t.Fatalf("duplicate host %s at %d", h, i)
		}
		seen[h] = true
	}
}

const sampleScrape = `# HELP qoeproxy_transactions_total Completed.
# TYPE qoeproxy_transactions_total counter
qoeproxy_transactions_total 1234
# TYPE qoeproxy_qoe_predictions_total counter
qoeproxy_qoe_predictions_total{class="low"} 7
# TYPE qoeproxy_gc_pause_seconds_total counter
qoeproxy_gc_pause_seconds_total 0.0625
# TYPE qoeproxy_shard_classify_seconds histogram
qoeproxy_shard_classify_seconds_bucket{le="0.001"} 10
qoeproxy_shard_classify_seconds_bucket{le="0.01"} 70
qoeproxy_shard_classify_seconds_bucket{le="0.1"} 100
qoeproxy_shard_classify_seconds_bucket{le="+Inf"} 100
qoeproxy_shard_classify_seconds_sum 2.5
qoeproxy_shard_classify_seconds_count 100
`

func TestParseMetrics(t *testing.T) {
	s, err := parseMetrics(sampleScrape)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.value("qoeproxy_transactions_total"); got != 1234 {
		t.Errorf("transactions = %g", got)
	}
	if got := s.value("qoeproxy_gc_pause_seconds_total"); got != 0.0625 {
		t.Errorf("gc pause = %g", got)
	}
	h := s.hists["qoeproxy_shard_classify_seconds"]
	if h == nil {
		t.Fatal("histogram not reassembled")
	}
	if h.total != 100 || h.sum != 2.5 || len(h.bounds) != 3 {
		t.Fatalf("histogram = %+v", h)
	}
	if h.counts[1] != 70 || h.bounds[2] != 0.1 {
		t.Fatalf("histogram buckets = %+v", h)
	}
}

// TestAwaitSettled pins the settle predicate both soaks share: it wants
// exactly the expected transaction count and enough classification
// passes, words the deadline failure from the last scrape that
// answered, and — the case that used to dereference nil — reports a
// /metrics endpoint that never answered instead of panicking.
func TestAwaitSettled(t *testing.T) {
	at := func(txns, runs float64) *scrapeData {
		return &scrapeData{values: map[string]float64{
			"qoeproxy_transactions_total":        txns,
			"qoeproxy_classification_runs_total": runs,
		}}
	}
	replies := func(seq ...*scrapeData) func() *scrapeData {
		i := 0
		return func() *scrapeData {
			s := seq[min(i, len(seq)-1)]
			i++
			return s
		}
	}

	last, err := awaitSettled(replies(nil), 100, 3, 0)
	if last != nil || err == nil || !strings.Contains(err.Error(), "metrics endpoint never answered") {
		t.Errorf("silent endpoint: last = %v, err = %v", last, err)
	}
	// Unanswered scrapes and partial progress are retried.
	last, err = awaitSettled(replies(nil, at(40, 0), at(100, 2), at(100, 3)), 100, 3, time.Minute)
	if err != nil || last.value("qoeproxy_classification_runs_total") != 3 {
		t.Errorf("settling daemon: last = %+v, err = %v", last, err)
	}
	// Too many transactions is not settled either: the count must match.
	last, err = awaitSettled(replies(at(101, 9)), 100, 3, 0)
	if last == nil || err == nil || !strings.Contains(err.Error(), "transactions 101/100, runs 9") {
		t.Errorf("overcount: last = %+v, err = %v", last, err)
	}
	// The failure is worded from the last scrape that answered.
	last, err = awaitSettled(replies(at(7, 1), nil), 100, 3, 300*time.Millisecond)
	if last == nil || err == nil || !strings.Contains(err.Error(), "transactions 7/100, runs 1") {
		t.Errorf("endpoint went quiet: last = %+v, err = %v", last, err)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	if _, err := parseMetrics("qoeproxy_x notanumber\n"); err == nil {
		t.Error("bad value accepted")
	}
	if _, err := parseMetrics("lonely-token\n"); err == nil {
		t.Error("valueless line accepted")
	}
}

func TestWorkloadCSVFitsDaemonReader(t *testing.T) {
	p := testPool(t)
	w, err := p.generate(genConfig{clients: 40, seed: 9, ramp: 10, shape: "steady"})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tlsproxy.WriteWorkload(&b, w.records); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "client,sni,start_sec,end_sec,up_bytes,down_bytes\n") {
		t.Errorf("unexpected header: %q", strings.SplitN(b.String(), "\n", 2)[0])
	}
	lines := strings.Count(b.String(), "\n")
	if lines != len(w.records)+1 {
		t.Errorf("%d CSV lines, want %d", lines, len(w.records)+1)
	}
}

func TestCutLabel(t *testing.T) {
	if v, ok := cutLabel(`{le="0.5",job="x"}`, "le"); !ok || v != "0.5" {
		t.Errorf("cutLabel le = %q, %v", v, ok)
	}
	if _, ok := cutLabel(`{job="x"}`, "le"); ok {
		t.Error("missing label found")
	}
	if _, ok := cutLabel(fmt.Sprintf("{le=%q", "unterminated")[:5], "le"); ok {
		t.Error("truncated label found")
	}
}
