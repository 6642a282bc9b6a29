package squidlog

import "testing"

// FuzzParseLine asserts the parser never panics, that accepted entries
// carry sane fields, and that it agrees with the reference parser
// (entry, ok flag, error presence) on every input without non-ASCII
// whitespace — the one place the two differ by design.
func FuzzParseLine(f *testing.F) {
	f.Add(sampleLine)
	f.Add(sampleLine + " request_bytes=123")
	f.Add("")
	f.Add("# comment")
	f.Add("1 2 3 4 5 CONNECT : - a b")
	f.Add("x y z")
	f.Add("1e9 2e3 c TCP_TUNNEL/200 5 CONNECT h:443 - HIER/1.2.3.4 -")
	f.Add("1.0 2 c TCP_TUNNEL/200 5 CONNECT h:443 - HIER/1.2.3.4 -")
	f.Add("1 2 \xe9client TCP_TUNNEL/200 5 CONNECT h\xc3\xa9st:443 - HIER/1.2.3.4 -")
	f.Add("1\u00a02 c TCP_TUNNEL/200 5 CONNECT h:443 - HIER/1.2.3.4 -")
	f.Add("nan 2 c TCP_TUNNEL/200 5 CONNECT h:443 - HIER/1.2.3.4 -")
	f.Add("+Inf 2 c TCP_TUNNEL/200 5 CONNECT h:443 - HIER/1.2.3.4 -")
	f.Add("1 NaN c TCP_TUNNEL/200 5 CONNECT h:443 - HIER/1.2.3.4 -")
	f.Add("9e18 2 c TCP_TUNNEL/200 5 CONNECT h:443 - HIER/1.2.3.4 -")
	f.Fuzz(func(t *testing.T, line string) {
		v, bok, berr := ParseLineBytes([]byte(line))
		if bok && len(v.Host) == 0 {
			t.Fatal("accepted entry with empty host")
		}
		if hasUnicodeSpace(line) {
			return
		}
		e, ok, err := ParseLine(line)
		if bok != ok || (berr != nil) != (err != nil) {
			t.Fatalf("ParseLineBytes(%q) = (ok=%v, err=%v), ParseLine = (ok=%v, err=%v)",
				line, bok, berr, ok, err)
		}
		if err != nil || !ok {
			return
		}
		if got := v.Entry(); got != e {
			t.Fatalf("ParseLineBytes(%q)\n got %+v\nwant %+v", line, got, e)
		}
		if e.Host == "" {
			t.Fatal("accepted entry with empty host")
		}
		if e.ElapsedSec < 0 {
			t.Fatalf("negative elapsed %g", e.ElapsedSec)
		}
		if !finite(e.EndUnix) || !finite(e.ElapsedSec) {
			t.Fatalf("accepted non-finite times %+v", e)
		}
	})
}
