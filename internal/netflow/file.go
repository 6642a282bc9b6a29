package netflow

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"droppackets/internal/bytesconv"
	"droppackets/internal/intern"
	"droppackets/internal/tlsproxy"
)

// This file gives flow records a collector-export serialization so the
// ingest pipeline can consume them from disk: one CSV row per
// client-attributed flow, host left empty when DNS visibility missed
// the server (the consumer decides whether to drop or count those).

// ClientFlow is one flow record attributed to a client address — the
// shape a collector export carries after pairing unidirectional
// records and joining DNS visibility.
type ClientFlow struct {
	// Client is the subscriber-side address the flow belongs to.
	Client string
	// Flow is the exported record; Flow.Host may be "" for flows DNS
	// augmentation could not resolve.
	Flow Record
}

// flowHeader is the CSV header row of a flow-record file.
var flowHeader = []string{"client", "host", "start_sec", "end_sec", "up_bytes", "down_bytes"}

// WriteFlows serializes client-attributed flow records as CSV with a
// fixed header.
func WriteFlows(w io.Writer, flows []ClientFlow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(flowHeader); err != nil {
		return fmt.Errorf("netflow: write flow header: %w", err)
	}
	row := make([]string, 6)
	for i, cf := range flows {
		row[0] = cf.Client
		row[1] = cf.Flow.Host
		row[2] = strconv.FormatFloat(cf.Flow.Start, 'g', -1, 64)
		row[3] = strconv.FormatFloat(cf.Flow.End, 'g', -1, 64)
		row[4] = strconv.FormatInt(cf.Flow.UpBytes, 10)
		row[5] = strconv.FormatInt(cf.Flow.DownBytes, 10)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("netflow: write flow row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadFlows parses a flow-record CSV, validating the header and every
// row. An empty host is legal (an unresolved flow); an empty client or
// an inverted, negative or out-of-range time span is not.
//
// The scanner works on raw line bytes (splitting on commas and parsing
// numbers in place) and interns client and host strings, so a
// million-row export allocates per distinct endpoint rather than per
// field. Rows containing a quote character fall back to encoding/csv
// line by line; quoted fields spanning multiple lines are not
// supported and report an error. readFlowsCSV keeps the encoding/csv
// implementation as the equivalence reference for tests.
func ReadFlows(r io.Reader) ([]ClientFlow, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	names := intern.NewTable()
	var (
		flows []ClientFlow
		carry []byte
		f     [6][]byte
	)
	rec := 0
	for {
		raw, rerr := readFlowLine(br, &carry)
		if rerr != nil && rerr != io.EOF {
			return nil, fmt.Errorf("netflow: reading flows: %w", rerr)
		}
		if n := len(raw); n > 0 && raw[n-1] == '\n' {
			raw = raw[:n-1]
		}
		if n := len(raw); n > 0 && raw[n-1] == '\r' {
			raw = raw[:n-1]
		}
		if len(raw) > 0 { // encoding/csv skips blank lines; so do we
			rec++
			if err := parseFlowFields(raw, rec, &f); err != nil {
				return nil, err
			}
			if rec == 1 {
				for i, want := range flowHeader {
					if string(f[i]) != want {
						return nil, fmt.Errorf("netflow: flow header column %d is %q, want %q", i, f[i], want)
					}
				}
			} else {
				cf := ClientFlow{}
				cf.Client, _ = names.Bytes(f[0])
				cf.Flow.Host, _ = names.Bytes(f[1])
				var err error
				if cf.Flow.Start, err = bytesconv.ParseFloat(f[2]); err != nil {
					return nil, fmt.Errorf("netflow: flow line %d start: %w", rec, err)
				}
				if cf.Flow.End, err = bytesconv.ParseFloat(f[3]); err != nil {
					return nil, fmt.Errorf("netflow: flow line %d end: %w", rec, err)
				}
				if cf.Flow.UpBytes, err = bytesconv.ParseInt(f[4]); err != nil {
					return nil, fmt.Errorf("netflow: flow line %d up_bytes: %w", rec, err)
				}
				if cf.Flow.DownBytes, err = bytesconv.ParseInt(f[5]); err != nil {
					return nil, fmt.Errorf("netflow: flow line %d down_bytes: %w", rec, err)
				}
				if cf.Client == "" || !validSpan(cf.Flow.Start, cf.Flow.End) {
					return nil, fmt.Errorf("netflow: flow line %d invalid (client=%q start=%v end=%v)",
						rec, cf.Client, cf.Flow.Start, cf.Flow.End)
				}
				flows = append(flows, cf)
			}
		}
		if rerr == io.EOF {
			if rec == 0 {
				return nil, fmt.Errorf("netflow: read flow header: %w", io.EOF)
			}
			return flows, nil
		}
	}
}

// readFlowLine returns the next line (through its '\n' if present),
// borrowing the reader's buffer in the common case and accumulating
// into carry only when a line straddles buffer boundaries.
func readFlowLine(br *bufio.Reader, carry *[]byte) ([]byte, error) {
	*carry = (*carry)[:0]
	for {
		chunk, err := br.ReadSlice('\n')
		if len(*carry) == 0 && err != bufio.ErrBufferFull {
			return chunk, err
		}
		*carry = append(*carry, chunk...)
		if err == bufio.ErrBufferFull {
			continue
		}
		return *carry, err
	}
}

// parseFlowFields splits one physical line into exactly len(f) comma
// separated fields, in place for quote-free lines and through
// encoding/csv otherwise (so quoting semantics match the reference
// reader, minus multi-line quoted fields).
func parseFlowFields(raw []byte, rec int, f *[6][]byte) error {
	if bytes.IndexByte(raw, '"') >= 0 {
		cr := csv.NewReader(bytes.NewReader(raw))
		cr.FieldsPerRecord = len(f)
		row, err := cr.Read()
		if err != nil {
			return fmt.Errorf("netflow: read flow line %d: %w", rec, err)
		}
		for i := range f {
			f[i] = []byte(row[i])
		}
		return nil
	}
	n, start := 0, 0
	for i := 0; i <= len(raw); i++ {
		if i == len(raw) || raw[i] == ',' {
			if n == len(f) {
				return fmt.Errorf("netflow: read flow line %d: wrong number of fields", rec)
			}
			f[n] = raw[start:i]
			n++
			start = i + 1
		}
	}
	if n != len(f) {
		return fmt.Errorf("netflow: read flow line %d: wrong number of fields", rec)
	}
	return nil
}

// validSpan reports whether a flow's times are non-negative, in order
// and below tlsproxy.MaxOffset, where replay's time.Duration conversion
// would overflow. NaN fails every comparison, so it is rejected too.
func validSpan(start, end float64) bool {
	return start >= 0 && end >= start && end < tlsproxy.MaxOffset
}

// readFlowsCSV is the encoding/csv reference implementation ReadFlows
// is pinned against.
func readFlowsCSV(r io.Reader) ([]ClientFlow, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(flowHeader)
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("netflow: read flow header: %w", err)
	}
	for i, want := range flowHeader {
		if head[i] != want {
			return nil, fmt.Errorf("netflow: flow header column %d is %q, want %q", i, head[i], want)
		}
	}
	var flows []ClientFlow
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return flows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("netflow: read flow line %d: %w", line, err)
		}
		cf := ClientFlow{Client: row[0], Flow: Record{Host: row[1]}}
		if cf.Flow.Start, err = strconv.ParseFloat(row[2], 64); err != nil {
			return nil, fmt.Errorf("netflow: flow line %d start: %w", line, err)
		}
		if cf.Flow.End, err = strconv.ParseFloat(row[3], 64); err != nil {
			return nil, fmt.Errorf("netflow: flow line %d end: %w", line, err)
		}
		if cf.Flow.UpBytes, err = strconv.ParseInt(row[4], 10, 64); err != nil {
			return nil, fmt.Errorf("netflow: flow line %d up_bytes: %w", line, err)
		}
		if cf.Flow.DownBytes, err = strconv.ParseInt(row[5], 10, 64); err != nil {
			return nil, fmt.Errorf("netflow: flow line %d down_bytes: %w", line, err)
		}
		if cf.Client == "" || !validSpan(cf.Flow.Start, cf.Flow.End) {
			return nil, fmt.Errorf("netflow: flow line %d invalid (client=%q start=%v end=%v)",
				line, cf.Client, cf.Flow.Start, cf.Flow.End)
		}
		flows = append(flows, cf)
	}
}
