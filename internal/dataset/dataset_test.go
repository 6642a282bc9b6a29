package dataset

import (
	"bytes"
	"strings"
	"testing"

	"droppackets/internal/features"
	"droppackets/internal/has"
	"droppackets/internal/qoe"
	"droppackets/internal/stats"
)

func TestGenerateSessionDeterministic(t *testing.T) {
	cfg := Config{Seed: 5}
	p := has.Svc1()
	a, err := GenerateSession(cfg, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSession(cfg, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.QoE != b.QoE || a.DurationSec != b.DurationSec || len(a.Capture.TLS) != len(b.Capture.TLS) {
		t.Error("same (seed, idx) sessions differ")
	}
	for i := range a.TLSFeatures {
		if a.TLSFeatures[i] != b.TLSFeatures[i] {
			t.Fatalf("feature %d differs", i)
		}
	}
	c, err := GenerateSession(cfg, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.DurationSec == a.DurationSec && c.AvgLinkKbps == a.AvgLinkKbps {
		t.Error("different indices produced identical traces (suspicious)")
	}
}

func TestSharedTracesAcrossServices(t *testing.T) {
	cfg := Config{Seed: 6}
	a, err := GenerateSession(cfg, has.Svc1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSession(cfg, has.Svc2(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Same index -> same trace (the Figure 4 comparison depends on it).
	if a.AvgLinkKbps != b.AvgLinkKbps || a.DurationSec != b.DurationSec || a.TraceClass != b.TraceClass {
		t.Errorf("services do not share traces: %g/%g kbps, %g/%g s",
			a.AvgLinkKbps, b.AvgLinkKbps, a.DurationSec, b.DurationSec)
	}
}

func TestBuildCorpus(t *testing.T) {
	c, err := Build(Config{Seed: 7, Sessions: 40}, has.Svc3())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Records) != 40 {
		t.Fatalf("%d records", len(c.Records))
	}
	if c.Service != "Svc3" {
		t.Errorf("service %q", c.Service)
	}
	for i, r := range c.Records {
		if r.Capture == nil || len(r.Capture.TLS) == 0 {
			t.Fatalf("record %d has no TLS transactions", i)
		}
		if len(r.TLSFeatures) != features.NumTLSFeatures {
			t.Fatalf("record %d has %d features", i, len(r.TLSFeatures))
		}
		if r.Capture.HasPacketDetail() {
			t.Fatal("packet detail retained without KeepPacketDetail")
		}
	}
}

func TestBuildDefaultsToPaperCounts(t *testing.T) {
	// Do not actually build 2111 sessions here; just check the count
	// lookup logic via the exported map.
	if PaperSessionCounts["Svc1"] != 2111 || PaperSessionCounts["Svc2"] != 2216 || PaperSessionCounts["Svc3"] != 1440 {
		t.Error("paper session counts wrong (§4.1)")
	}
	if MaxPaperSessions() != 2216 {
		t.Errorf("MaxPaperSessions = %d", MaxPaperSessions())
	}
}

func TestMLDatasetLabels(t *testing.T) {
	c, err := Build(Config{Seed: 8, Sessions: 30}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []qoe.MetricKind{qoe.MetricRebuffer, qoe.MetricQuality, qoe.MetricCombined} {
		ds, err := c.MLDataset(m)
		if err != nil {
			t.Fatalf("MLDataset(%v): %v", m, err)
		}
		if ds.Len() != 30 || ds.NumFeatures() != features.NumTLSFeatures {
			t.Fatalf("dataset shape %dx%d", ds.Len(), ds.NumFeatures())
		}
		for i, y := range ds.Y {
			if y != c.Records[i].QoE.Label(m) {
				t.Fatalf("label mismatch at %d", i)
			}
		}
	}
}

func TestPacketMLDatasetNeedsDetail(t *testing.T) {
	noDetail, err := Build(Config{Seed: 9, Sessions: 5}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noDetail.PacketMLDataset(qoe.MetricCombined, 1); err == nil {
		t.Error("PacketMLDataset without detail should fail")
	}
	withDetail, err := Build(Config{Seed: 9, Sessions: 5, KeepPacketDetail: true}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := withDetail.PacketMLDataset(qoe.MetricCombined, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumFeatures() != features.NumML16Features {
		t.Errorf("packet dataset width %d", ds.NumFeatures())
	}
}

func TestCorpusAggregates(t *testing.T) {
	c, err := Build(Config{Seed: 10, Sessions: 25, KeepPacketDetail: true}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.MeanTLSPerSession(); got < 2 {
		t.Errorf("MeanTLSPerSession = %g, implausibly low", got)
	}
	if got := c.MeanHTTPPerTLS(); got < 1 {
		t.Errorf("MeanHTTPPerTLS = %g, must be >= 1", got)
	}
	if got := c.MeanPacketsPerSession(); got < 100 {
		t.Errorf("MeanPacketsPerSession = %g, implausibly low", got)
	}
	dist := c.LabelDistribution(qoe.MetricCombined)
	total := 0
	for _, n := range dist {
		total += n
	}
	if total != 25 {
		t.Errorf("label distribution sums to %d", total)
	}
}

func TestTransactionsCSVRoundTrip(t *testing.T) {
	c, err := Build(Config{Seed: 11, Sessions: 6}, has.Svc2())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTransactionsCSV(&buf, []*Corpus{c}); err != nil {
		t.Fatal(err)
	}
	sessions, order, err := ReadTransactionsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("%d sessions after round trip", len(order))
	}
	for i, rec := range c.Records {
		id := order[i]
		got := sessions[id]
		if len(got) != len(rec.Capture.TLS) {
			t.Fatalf("session %s: %d txns, want %d", id, len(got), len(rec.Capture.TLS))
		}
		for j, txn := range got {
			want := rec.Capture.TLS[j]
			if txn.SNI != want.SNI || txn.UpBytes != want.UpBytes || txn.DownBytes != want.DownBytes {
				t.Fatalf("session %s txn %d mismatch", id, j)
			}
			// Times were rounded to milliseconds.
			if diff := txn.Start - want.Start; diff > 0.001 || diff < -0.001 {
				t.Fatalf("session %s txn %d start drift %g", id, j, diff)
			}
		}
	}
}

func TestReadTransactionsCSVErrors(t *testing.T) {
	if _, _, err := ReadTransactionsCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	bad := "session,sni,start,end,up_bytes,down_bytes\nx,y,notanumber,1,2,3\n"
	if _, _, err := ReadTransactionsCSV(strings.NewReader(bad)); err == nil {
		t.Error("non-numeric start accepted")
	}
	short := "a,b,c\n"
	if _, _, err := ReadTransactionsCSV(strings.NewReader(short)); err == nil {
		t.Error("short row accepted")
	}
}

// TestReadTransactionsCSVRejectsNonFiniteTimes pins the row-numbered
// rejection of NaN, infinite and out-of-range (|t| >= MaxOffset) start
// and end times: the header is row 1, so the bad transaction on the
// second data line is row 3. Unix times stay accepted.
func TestReadTransactionsCSVRejectsNonFiniteTimes(t *testing.T) {
	const good = "session,sni,start,end,up_bytes,down_bytes\ns1,a.example,1.5,2.5,10,20\n"
	for _, tc := range []struct{ start, end, want string }{
		{"NaN", "2", "row 3 col 2"},
		{"1", "nan", "row 3 col 3"},
		{"Inf", "2", "row 3 col 2"},
		{"1", "+Inf", "row 3 col 3"},
		{"-Inf", "2", "row 3 col 2"},
		{"1", "-inf", "row 3 col 3"},
		{"-1e308", "2", "row 3 col 2"},
		{"1", "1e308", "row 3 col 3"},
	} {
		doc := good + "s1,a.example," + tc.start + "," + tc.end + ",10,20\n"
		_, _, err := ReadTransactionsCSV(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("start=%s end=%s: err %v, want a non-finite error at %s", tc.start, tc.end, err, tc.want)
		}
	}
	for _, doc := range []string{good, good + "s1,a.example,1700000000.25,1700000003.5,10,20\n"} {
		if _, _, err := ReadTransactionsCSV(strings.NewReader(doc)); err != nil {
			t.Errorf("finite control rejected: %v", err)
		}
	}
}

func TestFeaturesCSVShape(t *testing.T) {
	c, err := Build(Config{Seed: 12, Sessions: 4}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFeaturesCSV(&buf, []*Corpus{c}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("%d lines", len(lines))
	}
	header := strings.Split(lines[0], ",")
	if len(header) != 5+features.NumTLSFeatures {
		t.Fatalf("header has %d columns", len(header))
	}
	if header[5] != "SDR_DL" {
		t.Errorf("first feature column %q", header[5])
	}
}

func TestTracesCSVShape(t *testing.T) {
	c, err := Build(Config{Seed: 13, Sessions: 3}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTracesCSV(&buf, []*Corpus{c}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "service,session,class") {
		t.Errorf("header %q", lines[0])
	}
}

// TestSessionPipelineInvariants samples sessions across services and
// checks cross-layer invariants of the generation pipeline.
func TestSessionPipelineInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline sweep is slow")
	}
	cfg := Config{Seed: 77, KeepPacketDetail: true}
	for _, p := range has.Profiles() {
		for idx := 0; idx < 12; idx++ {
			rec, err := GenerateSession(cfg, p, idx)
			if err != nil {
				t.Fatalf("%s/%d: %v", p.Name, idx, err)
			}
			sc := rec.Capture
			// TLS transactions are ordered and each spans positive time.
			for i, txn := range sc.TLS {
				if txn.End <= txn.Start {
					t.Fatalf("%s/%d txn %d non-positive span", p.Name, idx, i)
				}
				if i > 0 && txn.Start < sc.TLS[i-1].Start {
					t.Fatalf("%s/%d txns unordered", p.Name, idx)
				}
				if txn.DownBytes < 0 || txn.UpBytes < 0 {
					t.Fatalf("%s/%d negative bytes", p.Name, idx)
				}
			}
			// No HTTP transaction starts after the session ended (the
			// player is closed), though TLS lingers may extend past it.
			for _, h := range sc.HTTP {
				if h.Start > rec.DurationSec+1 {
					t.Fatalf("%s/%d HTTP txn starts at %.1f after session end %.1f",
						p.Name, idx, h.Start, rec.DurationSec)
				}
			}
			// Feature vector is complete and finite (NewDataset enforces
			// finiteness; length checked here).
			if len(rec.TLSFeatures) != 38 {
				t.Fatalf("%s/%d feature vector has %d entries", p.Name, idx, len(rec.TLSFeatures))
			}
			// QoE labels are within range and consistent with the
			// combined-minimum rule.
			q := rec.QoE
			if q.Combined > q.Quality {
				t.Fatalf("%s/%d combined %v above quality %v", p.Name, idx, q.Combined, q.Quality)
			}
			if q.PlayedSeconds == 0 && q.RebufferRatio == 0 && rec.DurationSec > 60 && rec.AvgLinkKbps > 500 {
				t.Fatalf("%s/%d played nothing on a usable link", p.Name, idx)
			}
			// Packet trace is consistent with its own prediction.
			pkts, err := sc.Packetize(stats.SplitRNG(3, int64(idx)))
			if err != nil {
				t.Fatal(err)
			}
			if len(pkts) != sc.PacketCount() {
				t.Fatalf("%s/%d packet count drift", p.Name, idx)
			}
		}
	}
}
