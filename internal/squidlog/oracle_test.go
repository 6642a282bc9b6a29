package squidlog

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// ParseLine is the reference parser the differential tests hold
// ParseLineBytes to: the same grammar written the obvious way, over
// strings.Fields and strconv. It returns ok == false for well-formed
// lines that are not CONNECT tunnels (plain HTTP, ICP queries, etc.),
// and an error for malformed lines. It differs from ParseLineBytes by
// design in one place only: strings.Fields also separates on non-ASCII
// Unicode whitespace (U+0085, U+00A0, U+2000..U+200A, ...), which the
// byte parser treats as field content.
func ParseLine(line string) (Entry, bool, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return Entry{}, false, nil
	}
	if len(fields) < 10 {
		return Entry{}, false, fmt.Errorf("squidlog: %d fields, want >= 10", len(fields))
	}
	var e Entry
	var err error
	if e.EndUnix, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return Entry{}, false, fmt.Errorf("squidlog: bad timestamp %q: %w", fields[0], err)
	}
	if math.IsNaN(e.EndUnix) || math.IsInf(e.EndUnix, 0) {
		return Entry{}, false, fmt.Errorf("squidlog: non-finite timestamp %q", fields[0])
	}
	elapsedMs, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Entry{}, false, fmt.Errorf("squidlog: bad elapsed %q: %w", fields[1], err)
	}
	if math.IsNaN(elapsedMs) || math.IsInf(elapsedMs, 0) {
		return Entry{}, false, fmt.Errorf("squidlog: non-finite elapsed %q", fields[1])
	}
	if elapsedMs < 0 {
		elapsedMs = 0
	}
	e.ElapsedSec = elapsedMs / 1000
	e.Client = fields[2]
	e.Action = fields[3]
	if e.DownBytes, err = strconv.ParseInt(fields[4], 10, 64); err != nil {
		return Entry{}, false, fmt.Errorf("squidlog: bad bytes %q: %w", fields[4], err)
	}
	if fields[5] != "CONNECT" {
		return Entry{}, false, nil
	}
	host := fields[6]
	if i := strings.LastIndex(host, ":"); i >= 0 {
		host = host[:i]
	}
	if host == "" {
		return Entry{}, false, fmt.Errorf("squidlog: empty CONNECT host")
	}
	e.Host = host
	// Optional extension fields.
	for _, f := range fields[10:] {
		if v, ok := strings.CutPrefix(f, "request_bytes="); ok {
			if e.UpBytes, err = strconv.ParseInt(v, 10, 64); err != nil {
				return Entry{}, false, fmt.Errorf("squidlog: bad request_bytes %q: %w", v, err)
			}
		}
	}
	return e, true, nil
}

// hasUnicodeSpace reports whether line contains a non-ASCII whitespace
// rune — the inputs on which the oracle and ParseLineBytes are allowed
// to disagree. Invalid UTF-8 decodes to U+FFFD, which is not a space,
// so arbitrary bytes stay comparable.
func hasUnicodeSpace(line string) bool {
	for _, r := range line {
		if r >= 0x80 && unicode.IsSpace(r) {
			return true
		}
	}
	return false
}
