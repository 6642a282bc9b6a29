package squidlog

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"droppackets/internal/capture"
)

// checkLineEquivalence asserts ParseLineBytes agrees with the oracle on
// the entry, the ok flag and error presence. Lines with non-ASCII
// whitespace are outside the contract and must not be passed.
func checkLineEquivalence(t *testing.T, line string) {
	t.Helper()
	if hasUnicodeSpace(line) {
		t.Fatalf("%q has non-ASCII whitespace: the parsers differ there by design", line)
	}
	want, wantOK, wantErr := ParseLine(line)
	gotView, gotOK, gotErr := ParseLineBytes([]byte(line))
	if gotOK != wantOK || (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("ParseLineBytes(%q) = (ok=%v, err=%v), ParseLine = (ok=%v, err=%v)",
			line, gotOK, gotErr, wantOK, wantErr)
	}
	if !gotOK || gotErr != nil {
		return
	}
	if got := gotView.Entry(); got != want {
		t.Fatalf("ParseLineBytes(%q)\n got %+v\nwant %+v", line, got, want)
	}
}

func TestParseLineBytesEquivalence(t *testing.T) {
	lines := []string{
		sampleLine,
		sampleLine + " request_bytes=20480",
		sampleLine + " request_bytes=1 request_bytes=77",
		"1588888888.123 12 10.0.0.5 TCP_MISS/200 3821 GET http://plain.example/x - HIER_DIRECT/203.0.113.9 text/html",
		"# comment",
		"#",
		"",
		"   \t  ",
		"too few fields",
		"notanumber 5125 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"1588888888.1 xx 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"1588888888.1 5125 10.0.0.5 TCP_TUNNEL/200 bytes CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"1588888888.1 5125 10.0.0.5 TCP_TUNNEL/200 12 CONNECT :443 - HIER_DIRECT/1.2.3.4 -",
		sampleLine + " request_bytes=abc",
		"1588888888.1 -50 10.0.0.5 TCP_TUNNEL/200 12 CONNECT h:443 - HIER_DIRECT/1.2.3.4 -",
		"1 2 3 4 5 CONNECT h:443 - a b c d e f g",
		"1e9 2e3 c TCP_TUNNEL/200 5 CONNECT h:443 - HIER/1.2.3.4 -",
		"\t1588888888.123\t5125\t10.0.0.5\tTCP_TUNNEL/200\t1583231\tCONNECT\tcdn.example:443\t-\tHIER_DIRECT/203.0.113.9\t-\t",
		// Non-ASCII bytes are field content, invalid UTF-8 included; the
		// second line is long enough to put them in the word-wise scan.
		"1 2 éclient TCP_TUNNEL/200 5 CONNECT hést:443 - HIER/1.2.3.4 -",
		"1588888888.123 5125 10.0.0.\xff TCP_TUNNEL/200 1583231 CONNECT cdn-\xc3.example:443 - HIER_DIRECT/1.2.3.4 - request_bytes=7",
		"1 2 c TCP_TUNNEL/200 5 CONNECT h:443 - HIER/1.2.3.4 - request_bytes=\u0663",
	}
	for _, line := range lines {
		checkLineEquivalence(t, line)
	}
}

// TestParseLineBytesNonASCII pins what replaced the string-parser
// fallback: non-ASCII bytes in a client or host are accepted and
// preserved byte for byte, and only ASCII whitespace separates — a line
// whose fields are split by U+00A0 or U+2003 is one long field, so it
// is malformed, which the ingest path counts.
func TestParseLineBytesNonASCII(t *testing.T) {
	const line = "1588888888.123 5125 клиент-7 TCP_TUNNEL/200 1583231 CONNECT vidéo.example:443 - HIER_DIRECT/203.0.113.9 -"
	v, ok, err := ParseLineBytes([]byte(line))
	if !ok || err != nil {
		t.Fatalf("non-ASCII identity fields: ok=%v err=%v", ok, err)
	}
	if string(v.Client) != "клиент-7" || string(v.Host) != "vidéo.example" {
		t.Fatalf("client %q host %q: bytes not preserved", v.Client, v.Host)
	}
	if v.DownBytes != 1583231 || v.ElapsedSec != 5.125 {
		t.Fatalf("entry %+v", v)
	}
	for _, sep := range []string{"\u00a0", "\u2003"} {
		split := strings.ReplaceAll(sampleLine+" request_bytes=1", " ", sep)
		if _, ok, err := ParseLineBytes([]byte(split)); ok || err == nil {
			t.Errorf("fields separated by %+q: ok=%v err=%v, want malformed", sep, ok, err)
		}
		// One such separator merges two fields; the line is short a field.
		one := strings.Replace("1 2 c TCP_TUNNEL/200 5 CONNECT h:443 - HIER/1.2.3.4 -", " c ", sep+"c ", 1)
		if _, ok, err := ParseLineBytes([]byte(one)); ok || err == nil {
			t.Errorf("%+q inside a 10-field line: ok=%v err=%v, want malformed", sep, ok, err)
		}
	}
}

// TestParseMatchesOracle reads a generated log of several thousand
// lines — CONNECT entries with and without request_bytes, tab-separated
// ones, skipped GETs, comments, blank lines — through Parse and through
// the oracle, and wants the same entries, floats bit for bit. The
// benchmark ledger's offline oracle re-reads its inputs through Parse,
// so this is what keeps its verdict digests where they are.
func TestParseMatchesOracle(t *testing.T) {
	state := uint64(42)
	rnd := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	var sb strings.Builder
	var want []Entry
	end := 1588888888.0
	for i := 0; i < 5000; i++ {
		end += float64(rnd(3000)) / 1000
		var line string
		switch {
		case i%53 == 5:
			line = "# rotated"
		case i%37 == 11:
			line = ""
		case i%29 == 3:
			line = fmt.Sprintf("%.3f %6d 10.0.%d.%d TCP_MISS/200 %d GET http://plain.example/%d - HIER_DIRECT/203.0.113.9 text/html",
				end, rnd(900), rnd(4), rnd(250), rnd(50000), i)
		default:
			line = fmt.Sprintf("%.3f %6d 10.0.%d.%d TCP_TUNNEL/200 %d CONNECT cdn-%02d.svc%d.example:443 - HIER_DIRECT/203.0.113.9 -",
				end, rnd(600000), rnd(4), rnd(250), rnd(90000000), rnd(20), rnd(5))
			if i%3 != 0 {
				line += fmt.Sprintf(" request_bytes=%d", rnd(100000))
			}
			if i%7 == 2 {
				line = strings.ReplaceAll(line, " ", "\t")
			}
			if i%11 == 4 {
				line = "  " + line + " \r"
			}
		}
		sb.WriteString(line + "\n")
		e, ok, err := ParseLine(strings.TrimSpace(line))
		if err != nil {
			t.Fatalf("fixture line %d %q: %v", i+1, line, err)
		}
		if ok {
			want = append(want, e)
		}
	}
	got, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 4000 || len(got) != len(want) {
		t.Fatalf("Parse returned %d entries, the oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestParseLineBytesAllocs pins the steady-state contract: a
// well-formed ASCII line parses with zero allocations.
func TestParseLineBytesAllocs(t *testing.T) {
	plain := []byte(sampleLine)
	extended := []byte(sampleLine + " request_bytes=20480")
	if n := testing.AllocsPerRun(1000, func() {
		for _, line := range [2][]byte{plain, extended} {
			if _, ok, err := ParseLineBytes(line); !ok || err != nil {
				t.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	}); n != 0 {
		t.Fatalf("ParseLineBytes allocates %v per 2 lines, want 0", n)
	}
}

// TestAppendEntryMatchesSprintf pins AppendEntry against the fmt verbs
// FormatEntry historically used, across magnitudes and padding widths.
func TestAppendEntryMatchesSprintf(t *testing.T) {
	cases := []capture.TLSTransaction{
		{SNI: "cdn.example", Start: 0, End: 5.125, UpBytes: 20480, DownBytes: 1583231},
		{SNI: "a.example", Start: 1.0005, End: 1.0005, UpBytes: 0, DownBytes: 0},
		{SNI: "b.example", Start: 3, End: 12345.678901, UpBytes: 1, DownBytes: 9_999_999_999},
		{SNI: "c.example", Start: 0.4, End: 1000000.4, UpBytes: 7, DownBytes: 3},
	}
	for _, epoch := range []float64{0, 1700000000} {
		for _, txn := range cases {
			end := epoch + txn.End
			elapsedMs := txn.Duration() * 1000
			want := fmt.Sprintf("%.3f %6.0f %s TCP_TUNNEL/200 %d CONNECT %s:443 - HIER_DIRECT/203.0.113.9 - request_bytes=%d",
				end, elapsedMs, "10.0.0.7", txn.DownBytes, txn.SNI, txn.UpBytes)
			got := string(AppendEntry(nil, "10.0.0.7", txn, epoch))
			if got != want {
				t.Fatalf("AppendEntry\n got %q\nwant %q", got, want)
			}
		}
	}
}

// TestGroupByClientStable pins the satellite fix: transactions with
// equal starts keep file order, matching the streaming path's
// (time, sequence) tie-break.
func TestGroupByClientStable(t *testing.T) {
	// Both c1 entries start at 998 (end - elapsed); file order must hold.
	log := "1000.000 2000 c1 TCP_TUNNEL/200 100 CONNECT first.example:443 - H/1 -\n" +
		"1004.000 6000 c1 TCP_TUNNEL/200 200 CONNECT second.example:443 - H/1 -\n"
	entries, err := Parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	txns := GroupByClient(entries)["c1"]
	if len(txns) != 2 {
		t.Fatalf("%d txns", len(txns))
	}
	if txns[0].Start != txns[1].Start {
		t.Fatalf("fixture drifted: starts %v and %v should tie", txns[0].Start, txns[1].Start)
	}
	if txns[0].SNI != "first.example" || txns[1].SNI != "second.example" {
		t.Fatalf("equal-start transactions reordered: %q, %q", txns[0].SNI, txns[1].SNI)
	}
	if math.Abs(txns[0].Start) > 1e-9 {
		t.Fatalf("epoch rebase drifted: start %v", txns[0].Start)
	}
}

// BenchmarkSquidParse times the parser on a representative CONNECT
// line; scripts/check.sh gates it at 0 allocs/op.
func BenchmarkSquidParse(b *testing.B) {
	line := sampleLine + " request_bytes=20480"
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		raw := []byte(line)
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, ok, err := ParseLineBytes(raw); !ok || err != nil {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
}
