package squidlog

// This file is the line parser. The streaming ingest path
// (internal/ingest.SquidSource) reads lines into reused buffers, and
// fielding them through strings.Fields would allocate a field slice plus
// one substring per field per line. ParseLineBytes scans fields in place
// and returns views into the caller's buffer, deferring the only
// unavoidable string allocations (client and host identity) to the
// caller's intern table, which pays them once per distinct value rather
// than once per line.
//
// Fields are separated by ASCII whitespace (space, \t, \n, \v, \f,
// \r), which is all Squid writes; every other byte, non-ASCII included,
// is field content and is preserved. The string-based reference parser
// in oracle_test.go separates on Unicode whitespace as well; the
// differential fuzz test pins the two together on every input free of
// non-ASCII whitespace.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"

	"droppackets/internal/bytesconv"
	"droppackets/internal/capture"
)

// EntryView is one parsed CONNECT tunnel whose identity fields are byte
// views into the parsed line (valid only while the caller's buffer is).
// Convert with Entry, or intern Client and Host directly.
type EntryView struct {
	// EndUnix is the completion time (Squid logs at connection end).
	EndUnix float64
	// ElapsedSec is the tunnel lifetime.
	ElapsedSec float64
	// Client is the client address.
	Client []byte
	// Action is the Squid action tag (e.g. TCP_TUNNEL/200).
	Action []byte
	// Host is the CONNECT target without the port.
	Host []byte
	// DownBytes is bytes delivered to the client.
	DownBytes int64
	// UpBytes is request bytes when the log carries them, else 0.
	UpBytes int64
}

// Entry copies the view into an owned Entry.
func (v EntryView) Entry() Entry {
	return Entry{
		EndUnix:    v.EndUnix,
		ElapsedSec: v.ElapsedSec,
		Client:     string(v.Client),
		Action:     string(v.Action),
		Host:       string(v.Host),
		DownBytes:  v.DownBytes,
		UpBytes:    v.UpBytes,
	}
}

// asciiSpace marks the separator bytes — the same table the standard
// library keeps for ASCII input.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField returns the next whitespace-separated field of line at or
// after *pos, advancing *pos past it. ok is false at end of line.
func nextField(line []byte, pos *int) (field []byte, ok bool) {
	i := *pos
	for i < len(line) && asciiSpace[line[i]] {
		i++
	}
	if i == len(line) {
		*pos = i
		return nil, false
	}
	start := i
	for i < len(line) && !asciiSpace[line[i]] {
		i++
	}
	*pos = i
	return line[start:i], true
}

// fieldSplit accumulates a line's whitespace-separated fields: the
// first seven (everything an entry names) plus the total count, with
// extension fields (index 11 onward, where Squid appends key=value
// annotations) processed as they stream past so no second scan is
// needed. Extension errors are recorded, not returned, so the mandatory
// fields' errors take precedence — the caller consults extErr only
// after those validate.
type fieldSplit struct {
	f       [7][]byte
	nFields int
	upBytes int64
	extErr  error
}

// emit appends one field.
func (s *fieldSplit) emit(field []byte) {
	if s.nFields < len(s.f) {
		s.f[s.nFields] = field
	}
	s.nFields++
	if s.nFields >= 11 && s.extErr == nil {
		if val, found := bytes.CutPrefix(field, requestBytesPrefix); found {
			if n, err := bytesconv.ParseInt(val); err != nil {
				s.extErr = fmt.Errorf("squidlog: bad request_bytes %q: %w", val, err)
			} else {
				s.upBytes = n
			}
		}
	}
}

// splitGeneric fields the line with the table-driven scanner — the
// slow path for lines containing control whitespace (\t..\r) or
// pathological space counts.
func (s *fieldSplit) splitGeneric(line []byte) {
	pos := 0
	for {
		field, ok := nextField(line, &pos)
		if !ok {
			return
		}
		s.emit(field)
	}
}

// split fields a plain line in one word-wise pass, doing the work of
// two byte-at-a-time scans at once: spot control whitespace \t..\r (an
// exact SWAR range test — per-byte operands never carry, and a byte
// with its high bit set is never flagged) and collect every space
// position via an exact zero-byte mask on x ^ '  ...'. Fields are then
// cut between the recorded spaces without touching the line again. It
// reports false, having emitted nothing, for the unusual line — control
// whitespace, or more spaces than it tracks — that splitGeneric must
// field instead. Real Squid log lines — space separated, ~a dozen
// fields — always take this path.
func (s *fieldSplit) split(line []byte) bool {
	const (
		lo = 0x0101010101010101
		hi = 0x8080808080808080
	)
	var spaces [64]int32
	ns := 0
	n := len(line)
	off := 0
	for ; n-off >= 8; off += 8 {
		x := binary.LittleEndian.Uint64(line[off:])
		low7 := x & (lo * 127)
		if (lo*(127+14)-low7)&^x&(low7+lo*(127-8))&hi != 0 {
			return false
		}
		xs := x ^ (lo * ' ')
		z := ^(((xs & ^uint64(hi)) + ^uint64(hi)) | xs | ^uint64(hi)) & hi
		for z != 0 {
			if ns == len(spaces) {
				return false
			}
			spaces[ns] = int32(off + bits.TrailingZeros64(z)>>3)
			ns++
			z &= z - 1
		}
	}
	for ; off < n; off++ {
		switch c := line[off]; {
		case c >= '\t' && c <= '\r':
			return false
		case c == ' ':
			if ns == len(spaces) {
				return false
			}
			spaces[ns] = int32(off)
			ns++
		}
	}
	prev := 0
	for k := 0; k < ns; k++ {
		sp := int(spaces[k])
		if sp > prev {
			s.emit(line[prev:sp])
		}
		prev = sp + 1
	}
	if prev < n {
		s.emit(line[prev:])
	}
	return true
}

// ParseLineBytes parses a single access.log line in place. It returns
// ok == false without error for well-formed lines that are not CONNECT
// tunnels (plain HTTP, ICP queries, comments), and an error for
// malformed ones. The returned view borrows line's bytes; it is valid
// until the caller reuses the buffer. On well-formed lines it performs
// no allocations.
func ParseLineBytes(line []byte) (EntryView, bool, error) {
	var s fieldSplit
	if !s.split(line) {
		s.splitGeneric(line)
	}
	if s.nFields == 0 || s.f[0][0] == '#' {
		return EntryView{}, false, nil
	}
	if s.nFields < 10 {
		return EntryView{}, false, fmt.Errorf("squidlog: %d fields, want >= 10", s.nFields)
	}
	var v EntryView
	var err error
	if v.EndUnix, err = bytesconv.ParseFloat(s.f[0]); err != nil {
		return EntryView{}, false, fmt.Errorf("squidlog: bad timestamp %q: %w", s.f[0], err)
	}
	if !finite(v.EndUnix) {
		return EntryView{}, false, fmt.Errorf("squidlog: non-finite timestamp %q", s.f[0])
	}
	elapsedMs, err := bytesconv.ParseFloat(s.f[1])
	if err != nil {
		return EntryView{}, false, fmt.Errorf("squidlog: bad elapsed %q: %w", s.f[1], err)
	}
	if !finite(elapsedMs) {
		return EntryView{}, false, fmt.Errorf("squidlog: non-finite elapsed %q", s.f[1])
	}
	if elapsedMs < 0 {
		elapsedMs = 0
	}
	v.ElapsedSec = elapsedMs / 1000
	v.Client = s.f[2]
	v.Action = s.f[3]
	if v.DownBytes, err = bytesconv.ParseInt(s.f[4]); err != nil {
		return EntryView{}, false, fmt.Errorf("squidlog: bad bytes %q: %w", s.f[4], err)
	}
	if !bytes.Equal(s.f[5], connectVerb) {
		return EntryView{}, false, nil
	}
	host := s.f[6]
	if i := bytes.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	if len(host) == 0 {
		return EntryView{}, false, fmt.Errorf("squidlog: empty CONNECT host")
	}
	v.Host = host
	if s.extErr != nil {
		return EntryView{}, false, s.extErr
	}
	v.UpBytes = s.upBytes
	return v, true, nil
}

// finite reports whether x is neither NaN nor infinite. The number
// parsers accept "nan" and "inf"; no Squid clock or duration is either.
func finite(x float64) bool { return x-x == 0 }

var (
	connectVerb        = []byte("CONNECT")
	requestBytesPrefix = []byte("request_bytes=")
)

// AppendEntry renders a transaction in Squid's log format onto dst and
// returns the extended buffer — FormatEntry without the fmt machinery,
// so the daemon's squid-log sink can build lines into a reused buffer
// with one final string copy instead of one allocation per verb.
func AppendEntry(dst []byte, client string, txn capture.TLSTransaction, epochUnix float64) []byte {
	end := epochUnix + txn.End
	elapsedMs := txn.Duration() * 1000
	dst = bytesconv.AppendFixed3(dst, end)
	dst = append(dst, ' ')
	// %6.0f: right-justified in a 6-column field.
	var tmp [32]byte
	el := strconv.AppendFloat(tmp[:0], elapsedMs, 'f', 0, 64)
	for pad := 6 - len(el); pad > 0; pad-- {
		dst = append(dst, ' ')
	}
	dst = append(dst, el...)
	dst = append(dst, ' ')
	dst = append(dst, client...)
	dst = append(dst, " TCP_TUNNEL/200 "...)
	dst = strconv.AppendInt(dst, txn.DownBytes, 10)
	dst = append(dst, " CONNECT "...)
	dst = append(dst, txn.SNI...)
	dst = append(dst, ":443 - HIER_DIRECT/203.0.113.9 - request_bytes="...)
	dst = strconv.AppendInt(dst, txn.UpBytes, 10)
	return dst
}
