// Package squidlog parses Squid access logs into TLS transactions. The
// paper's coarse-grained data source is exactly this (§1, §2.2): most
// cellular ISPs already run a transparent proxy such as Squid, whose
// off-the-shelf log reports one line per TLS connection. This package
// is the ingestion path from a real deployment into the estimator.
//
// Supported format: Squid's native access.log layout,
//
//	time.ms elapsed client action/code bytes method URL user hier/peer type
//
// e.g.
//
//	1588888888.123  5125 10.0.0.5 TCP_TUNNEL/200 1583231 CONNECT cdn.example:443 - HIER_DIRECT/203.0.113.9 -
//
// Only CONNECT tunnels (TLS) are kept. The standard format carries one
// byte counter (bytes to the client); deployments that add Squid's
// %>st format code get uplink bytes from an extra trailing
// "request_bytes=N" field.
//
// ParseLineBytes parses one line in place and is what the streaming
// ingest path calls; Parse reads a whole bounded log through it.
package squidlog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"

	"droppackets/internal/capture"
)

// Entry is one parsed CONNECT tunnel.
type Entry struct {
	// EndUnix is the completion time (Squid logs at connection end).
	EndUnix float64
	// ElapsedSec is the tunnel lifetime.
	ElapsedSec float64
	// Client is the client address.
	Client string
	// Action is the Squid action tag (e.g. TCP_TUNNEL/200).
	Action string
	// Host is the CONNECT target without the port.
	Host string
	// DownBytes is bytes delivered to the client.
	DownBytes int64
	// UpBytes is request bytes when the log carries them, else 0.
	UpBytes int64
}

// Parse reads a whole log, returning CONNECT entries in file order.
// Malformed lines abort with an error naming the line number.
func Parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		v, ok, err := ParseLineBytes(line)
		if err != nil {
			return nil, fmt.Errorf("squidlog: line %d: %w", lineNo, err)
		}
		if ok {
			out = append(out, v.Entry())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("squidlog: reading: %w", err)
	}
	return out, nil
}

// Transaction converts an entry to the capture transaction type with
// times relative to epochUnix.
func (e Entry) Transaction(epochUnix float64) capture.TLSTransaction {
	start := e.EndUnix - e.ElapsedSec
	return capture.TLSTransaction{
		SNI:       e.Host,
		Start:     start - epochUnix,
		End:       e.EndUnix - epochUnix,
		DownBytes: e.DownBytes,
		UpBytes:   e.UpBytes,
	}
}

// GroupByClient buckets entries per client address and converts them to
// time-ordered transactions, each client's clock rebased to its own
// earliest connection start. This is the unit the QoE estimator (after
// session identification) consumes.
func GroupByClient(entries []Entry) map[string][]capture.TLSTransaction {
	byClient := map[string][]Entry{}
	for _, e := range entries {
		byClient[e.Client] = append(byClient[e.Client], e)
	}
	out := make(map[string][]capture.TLSTransaction, len(byClient))
	for client, es := range byClient {
		epoch := es[0].EndUnix - es[0].ElapsedSec
		for _, e := range es[1:] {
			if s := e.EndUnix - e.ElapsedSec; s < epoch {
				epoch = s
			}
		}
		txns := make([]capture.TLSTransaction, len(es))
		for i, e := range es {
			txns[i] = e.Transaction(epoch)
		}
		// Stable: equal-start transactions keep file order, the same
		// (time, sequence) tie-break the streaming ingest path applies.
		sort.SliceStable(txns, func(a, b int) bool { return txns[a].Start < txns[b].Start })
		out[client] = txns
	}
	return out
}

// FormatEntry renders a transaction back into Squid's log format,
// letting the simulator export realistic access logs for testing
// downstream tooling (the inverse of Parse).
func FormatEntry(client string, txn capture.TLSTransaction, epochUnix float64) string {
	return string(AppendEntry(nil, client, txn, epochUnix))
}
