package squidlog

import (
	"math"
	"strings"
	"testing"

	"droppackets/internal/capture"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
)

const sampleLine = "1588888888.123   5125 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT cdn-01.svc1.example:443 - HIER_DIRECT/203.0.113.9 -"

// parseLine runs the production parser on line, first holding it to the
// oracle, and returns its result as an owned Entry.
func parseLine(t *testing.T, line string) (Entry, bool, error) {
	t.Helper()
	checkLineEquivalence(t, line)
	v, ok, err := ParseLineBytes([]byte(line))
	return v.Entry(), ok, err
}

func TestParseLine(t *testing.T) {
	e, ok, err := parseLine(t, sampleLine)
	if err != nil || !ok {
		t.Fatalf("ParseLineBytes: ok=%v err=%v", ok, err)
	}
	if e.Host != "cdn-01.svc1.example" {
		t.Errorf("host %q", e.Host)
	}
	if e.Client != "10.0.0.5" || e.DownBytes != 1583231 {
		t.Errorf("entry %+v", e)
	}
	if math.Abs(e.ElapsedSec-5.125) > 1e-9 {
		t.Errorf("elapsed %g", e.ElapsedSec)
	}
	if math.Abs(e.EndUnix-1588888888.123) > 1e-6 {
		t.Errorf("end %f", e.EndUnix)
	}
	if e.UpBytes != 0 {
		t.Errorf("standard format should have no uplink, got %d", e.UpBytes)
	}
}

func TestParseLineExtendedUplink(t *testing.T) {
	e, ok, err := parseLine(t, sampleLine+" request_bytes=20480")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if e.UpBytes != 20480 {
		t.Errorf("uplink %d", e.UpBytes)
	}
}

func TestParseLineSkipsNonConnect(t *testing.T) {
	nonTunnel := "1588888888.123 12 10.0.0.5 TCP_MISS/200 3821 GET http://plain.example/x - HIER_DIRECT/203.0.113.9 text/html"
	if _, ok, err := parseLine(t, nonTunnel); ok || err != nil {
		t.Errorf("GET line: ok=%v err=%v", ok, err)
	}
	if _, ok, err := parseLine(t, "# comment"); ok || err != nil {
		t.Errorf("comment: ok=%v err=%v", ok, err)
	}
	if _, ok, err := parseLine(t, ""); ok || err != nil {
		t.Errorf("blank: ok=%v err=%v", ok, err)
	}
}

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		"too few fields",
		"notanumber 5125 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"1588888888.1 xx 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"1588888888.1 5125 10.0.0.5 TCP_TUNNEL/200 bytes CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"1588888888.1 5125 10.0.0.5 TCP_TUNNEL/200 12 CONNECT :443 - HIER_DIRECT/1.2.3.4 -",
		sampleLine + " request_bytes=abc",
		// Non-finite times: the number parsers accept these spellings.
		"nan 5125 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"inf 5125 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"+Inf 5125 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"-inf 5125 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"1588888888.1 nan 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"1588888888.1 -Inf 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
	}
	for i, line := range bad {
		if _, _, err := parseLine(t, line); err == nil {
			t.Errorf("bad line %d accepted", i)
		}
	}
	// A finite timestamp past every valid offset parses: the range is the
	// ingest path's to check (ingest.SquidSource counts it malformed).
	const far = "9e18 5125 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -"
	if e, ok, err := parseLine(t, far); err != nil || !ok || e.EndUnix != 9e18 {
		t.Errorf("%q: entry %+v ok=%v err=%v", far, e, ok, err)
	}
}

func TestParseMultiLine(t *testing.T) {
	log := sampleLine + "\n" +
		"# header comment\n" +
		"1588888890.500    800 10.0.0.6 TCP_TUNNEL/200 50000 CONNECT api.svc1.example:443 - HIER_DIRECT/203.0.113.9 -\n" +
		"1588888891.000     10 10.0.0.5 TCP_MISS/200 100 GET http://x/ - HIER_DIRECT/1.1.1.1 text/plain\n"
	entries, err := Parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2 (GET skipped)", len(entries))
	}
}

func TestParseReportsLineNumber(t *testing.T) {
	log := sampleLine + "\nbroken line here with ten fields a b c d e f\n"
	_, err := Parse(strings.NewReader(log))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %v should name line 2", err)
	}
}

func TestGroupByClient(t *testing.T) {
	log := "1000.000 2000 c1 TCP_TUNNEL/200 100 CONNECT a.example:443 - H/1 -\n" +
		"1010.000 4000 c1 TCP_TUNNEL/200 200 CONNECT b.example:443 - H/1 -\n" +
		"1005.000 1000 c2 TCP_TUNNEL/200 300 CONNECT c.example:443 - H/1 -\n"
	entries, err := Parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupByClient(entries)
	if len(groups) != 2 {
		t.Fatalf("%d clients", len(groups))
	}
	c1 := groups["c1"]
	if len(c1) != 2 {
		t.Fatalf("c1 has %d txns", len(c1))
	}
	// c1's epoch is min(start) = min(998, 1006) = 998.
	if c1[0].Start != 0 {
		t.Errorf("first txn starts at %g, want 0 (rebased)", c1[0].Start)
	}
	if c1[1].SNI != "b.example" || math.Abs(c1[1].Start-8) > 1e-9 {
		t.Errorf("second txn %+v", c1[1])
	}
	if c1[0].End != 2 {
		t.Errorf("first txn ends at %g, want 2", c1[0].End)
	}
}

// TestRoundTripThroughLogFormat exports a simulated session as a Squid
// log and parses it back; features computed both ways must agree.
func TestRoundTripThroughLogFormat(t *testing.T) {
	rec, err := dataset.GenerateSession(dataset.Config{Seed: 9}, has.Svc1(), 3)
	if err != nil {
		t.Fatal(err)
	}
	const epoch = 1700000000.0
	var sb strings.Builder
	for _, txn := range rec.Capture.TLS {
		sb.WriteString(FormatEntry("10.1.2.3", txn, epoch))
		sb.WriteByte('\n')
	}
	entries, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(rec.Capture.TLS) {
		t.Fatalf("%d entries, want %d", len(entries), len(rec.Capture.TLS))
	}
	groups := GroupByClient(entries)
	got := groups["10.1.2.3"]
	want := append([]capture.TLSTransaction(nil), rec.Capture.TLS...)
	for i := range want {
		if got[i].SNI != want[i].SNI || got[i].DownBytes != want[i].DownBytes || got[i].UpBytes != want[i].UpBytes {
			t.Fatalf("txn %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
		// Times survive within log precision (1 ms) relative to the
		// client's earliest start.
		if math.Abs(got[i].Start-want[i].Start) > 0.01 {
			t.Fatalf("txn %d start drift %g", i, got[i].Start-want[i].Start)
		}
	}
}
