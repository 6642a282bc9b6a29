package tlsproxy

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"droppackets/internal/intern"
)

// This file is the replay workload format: connections as CSV rows, the
// file load harnesses and the daemon exchange. ingest.BatchSource
// delivers a loaded workload, as it does every other file format.

// ReplayRecord is one connection of a replayable workload, with times
// as offsets in seconds from the replay's base instant. Workloads
// serialize as CSV (WriteWorkload/ReadWorkload) so load harnesses and
// the daemon exchange them through a file.
type ReplayRecord struct {
	// Client is the logical client address ("ip:port"); the per-client
	// session key upstream consumers group by.
	Client string
	// SNI is the hostname the connection asked for.
	SNI string
	// Start and End are the connection's open and close offsets in
	// seconds from the replay base. A negative, inverted or
	// out-of-range (NaN, or at or beyond MaxOffset) span is rejected at
	// load.
	Start, End float64
	// UpBytes and DownBytes are the relayed byte counts.
	UpBytes, DownBytes int64
}

// MaxOffset is the exclusive upper bound, in seconds, on a workload
// offset: the ingest sources convert offsets to time.Duration, which
// overflows at 2^63 ns (about 292 years). It is rounded down to a whole
// second so that no offset below it reaches the overflow after
// microsecond quantization either.
const MaxOffset = float64(math.MaxInt64 / int64(time.Second))

// replayHeader is the CSV header row of a workload file.
var replayHeader = []string{"client", "sni", "start_sec", "end_sec", "up_bytes", "down_bytes"}

// WriteWorkload serializes records as CSV with a fixed header.
func WriteWorkload(w io.Writer, recs []ReplayRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(replayHeader); err != nil {
		return fmt.Errorf("tlsproxy: write workload header: %w", err)
	}
	row := make([]string, 6)
	for i, r := range recs {
		row[0] = r.Client
		row[1] = r.SNI
		row[2] = strconv.FormatFloat(r.Start, 'g', -1, 64)
		row[3] = strconv.FormatFloat(r.End, 'g', -1, 64)
		row[4] = strconv.FormatInt(r.UpBytes, 10)
		row[5] = strconv.FormatInt(r.DownBytes, 10)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("tlsproxy: write workload row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadWorkload parses a workload CSV, validating the header and every
// row so a malformed file fails at load time rather than mid-replay.
// Client and SNI values are interned, so the loaded workload holds one
// copy of each distinct value instead of every row's text.
func ReadWorkload(r io.Reader) ([]ReplayRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(replayHeader)
	cr.ReuseRecord = true
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("tlsproxy: read workload header: %w", err)
	}
	for i, want := range replayHeader {
		if head[i] != want {
			return nil, fmt.Errorf("tlsproxy: workload header column %d is %q, want %q", i, head[i], want)
		}
	}
	names := intern.NewTable()
	var recs []ReplayRecord
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("tlsproxy: read workload line %d: %w", line, err)
		}
		var rec ReplayRecord
		rec.Client, _ = names.String(row[0])
		rec.SNI, _ = names.String(row[1])
		if rec.Start, err = strconv.ParseFloat(row[2], 64); err != nil {
			return nil, fmt.Errorf("tlsproxy: workload line %d start: %w", line, err)
		}
		if rec.End, err = strconv.ParseFloat(row[3], 64); err != nil {
			return nil, fmt.Errorf("tlsproxy: workload line %d end: %w", line, err)
		}
		if rec.UpBytes, err = strconv.ParseInt(row[4], 10, 64); err != nil {
			return nil, fmt.Errorf("tlsproxy: workload line %d up_bytes: %w", line, err)
		}
		if rec.DownBytes, err = strconv.ParseInt(row[5], 10, 64); err != nil {
			return nil, fmt.Errorf("tlsproxy: workload line %d down_bytes: %w", line, err)
		}
		// NaN fails every comparison, so it is rejected with the rest.
		if rec.Client == "" || !(rec.Start >= 0 && rec.End >= rec.Start && rec.End < MaxOffset) {
			return nil, fmt.Errorf("tlsproxy: workload line %d invalid (client=%q start=%v end=%v)", line, rec.Client, rec.Start, rec.End)
		}
		recs = append(recs, rec)
	}
}
