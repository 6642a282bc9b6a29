package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"droppackets/internal/capture"
	"droppackets/internal/features"
	"droppackets/internal/qoe"
	"droppackets/internal/tlsproxy"
)

// Transaction CSV column layout shared by the CLI tools:
// session,sni,start,end,up_bytes,down_bytes.
var txnHeader = []string{"session", "sni", "start", "end", "up_bytes", "down_bytes"}

// WriteTransactionsCSV exports every session's TLS transactions, one
// row per transaction tagged with its session id.
func WriteTransactionsCSV(w io.Writer, corpora []*Corpus) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(txnHeader); err != nil {
		return fmt.Errorf("dataset: csv header: %w", err)
	}
	for _, c := range corpora {
		for _, r := range c.Records {
			id := fmt.Sprintf("%s-%d", c.Service, r.Capture.ID)
			for _, t := range r.Capture.TLS {
				row := []string{
					id, t.SNI,
					strconv.FormatFloat(t.Start, 'f', 3, 64),
					strconv.FormatFloat(t.End, 'f', 3, 64),
					strconv.FormatInt(t.UpBytes, 10),
					strconv.FormatInt(t.DownBytes, 10),
				}
				if err := cw.Write(row); err != nil {
					return fmt.Errorf("dataset: csv row: %w", err)
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTransactionsCSV parses the transaction CSV format, returning the
// transactions grouped by session id in file order. A start or end that
// is NaN, infinite or at least tlsproxy.MaxOffset in magnitude is
// rejected with its row and column, like every other transaction
// reader.
func ReadTransactionsCSV(r io.Reader) (map[string][]capture.TLSTransaction, []string, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: reading transactions csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("dataset: empty transactions csv")
	}
	start := 0
	if rows[0][0] == txnHeader[0] {
		start = 1
	}
	sessions := map[string][]capture.TLSTransaction{}
	var order []string
	for i, row := range rows[start:] {
		if len(row) != len(txnHeader) {
			return nil, nil, fmt.Errorf("dataset: csv row %d has %d columns, want %d", i+start+1, len(row), len(txnHeader))
		}
		txn := capture.TLSTransaction{SNI: row[1]}
		fields := []struct {
			dst *float64
			col int
		}{{&txn.Start, 2}, {&txn.End, 3}}
		for _, f := range fields {
			v, err := strconv.ParseFloat(row[f.col], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("dataset: csv row %d col %d: %w", i+start+1, f.col, err)
			}
			if !(math.Abs(v) < tlsproxy.MaxOffset) {
				return nil, nil, fmt.Errorf("dataset: csv row %d col %d: non-finite or out-of-range time %v (want |t| < %.0f)", i+start+1, f.col, v, tlsproxy.MaxOffset)
			}
			*f.dst = v
		}
		up, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: csv row %d up_bytes: %w", i+start+1, err)
		}
		down, err := strconv.ParseInt(row[5], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: csv row %d down_bytes: %w", i+start+1, err)
		}
		txn.UpBytes, txn.DownBytes = up, down
		id := row[0]
		if _, seen := sessions[id]; !seen {
			order = append(order, id)
		}
		sessions[id] = append(sessions[id], txn)
	}
	return sessions, order, nil
}

// WriteFeaturesCSV exports the labeled feature matrix of the corpora:
// service, session, the three labels, then the 38 TLS features.
func WriteFeaturesCSV(w io.Writer, corpora []*Corpus) error {
	cw := csv.NewWriter(w)
	header := []string{"service", "session", "label_rebuffer", "label_quality", "label_combined"}
	header = append(header, features.TLSNames...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: csv header: %w", err)
	}
	for _, c := range corpora {
		for _, r := range c.Records {
			row := []string{
				c.Service,
				strconv.Itoa(r.Capture.ID),
				strconv.Itoa(r.QoE.Label(qoe.MetricRebuffer)),
				strconv.Itoa(r.QoE.Label(qoe.MetricQuality)),
				strconv.Itoa(r.QoE.Label(qoe.MetricCombined)),
			}
			for _, v := range r.TLSFeatures {
				row = append(row, strconv.FormatFloat(v, 'g', 8, 64))
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("dataset: csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTracesCSV exports a trace pool in long format:
// trace,class,sample_start,duration,kbps.
func WriteTracesCSV(w io.Writer, corpora []*Corpus) error {
	// The corpora share traces by index; export each distinct session's
	// link ground truth instead (trace-level data lives in cmd/tracegen,
	// which generates pools directly).
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"service", "session", "class", "avg_kbps", "duration_sec"}); err != nil {
		return fmt.Errorf("dataset: csv header: %w", err)
	}
	for _, c := range corpora {
		for _, r := range c.Records {
			row := []string{
				c.Service,
				strconv.Itoa(r.Capture.ID),
				r.TraceClass.String(),
				strconv.FormatFloat(r.AvgLinkKbps, 'f', 1, 64),
				strconv.FormatFloat(r.DurationSec, 'f', 1, 64),
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("dataset: csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
