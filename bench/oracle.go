package main

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/ingest"
	"droppackets/internal/sessionid"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

// maxSessionTxns is the daemon's default -max-session-txns: the final
// verdict classifies at most this many of a client's latest records.
const maxSessionTxns = 4096

// minClassAgreement gates the Squid workloads; replay_resident must
// agree with the oracle exactly.
const minClassAgreement = 0.99

// verification is the outcome of checking one daemon run.
type verification struct {
	clients int
	// One operation is one client's final verdict. failed counts clients
	// whose verdict is missing, has the wrong transaction count or the
	// wrong class — and, on replay_resident, the wrong boundary count.
	failed            int
	missing           int
	wrongTransactions int
	wrongClass        int
	wrongBoundaries   int
	digest            string
	sinkBytes         int64 // size of the daemon's -out CSV, header included
}

func (v *verification) classAgreement() float64 {
	return 1 - float64(v.wrongClass)/float64(v.clients)
}

func (v *verification) boundaryMismatchShare() float64 {
	return float64(v.wrongBoundaries) / float64(v.clients)
}

// daemonSeconds maps an event offset to the value the daemon computes
// with it: ingest sources snap offsets to the microsecond grid, carry
// them as time.Time, and the serving path converts back through a
// time.Duration.
func daemonSeconds(off float64) float64 {
	return time.Duration(ingest.QuantizeMicros(off) * float64(time.Second)).Seconds()
}

// rereadInput loads the records the daemon was actually given — through
// the input format's public reader, because Squid's format rounds to
// milliseconds and the generator's floats are therefore not the input —
// and returns them per client in delivery order: by end time, ties in
// file order. ends lists every record's end offset on the microsecond
// grid, the value the Squid source's reorder buffer compares.
func rereadInput(pr *prepared) (per [][]capture.TLSTransaction, ends []float64, err error) {
	f, err := os.Open(pr.input)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	per = make([][]capture.TLSTransaction, len(pr.clients))
	add := func(client string, t capture.TLSTransaction) error {
		i, ok := pr.index[client]
		if !ok {
			return fmt.Errorf("input names unknown client %q", client)
		}
		ends = append(ends, ingest.QuantizeMicros(t.End))
		t.Start, t.End = daemonSeconds(t.Start), daemonSeconds(t.End)
		if t.End < t.Start {
			t.End = t.Start
		}
		per[i] = append(per[i], t)
		return nil
	}
	if pr.w.source == "replay" {
		recs, err := tlsproxy.ReadWorkload(f)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range recs {
			if err := add(r.Client, capture.TLSTransaction{SNI: r.SNI, Start: r.Start, End: r.End, UpBytes: r.UpBytes, DownBytes: r.DownBytes}); err != nil {
				return nil, nil, err
			}
		}
		// The CSV is in client-then-start order; replay delivers by end.
		for _, txns := range per {
			slices.SortStableFunc(txns, func(a, b capture.TLSTransaction) int { return cmp.Compare(a.End, b.End) })
		}
		return per, ends, nil
	}
	entries, err := squidlog.Parse(f)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if err := add(e.Client, e.Transaction(0)); err != nil {
			return nil, nil, err
		}
	}
	return per, ends, nil
}

// deliverable counts the records a tailing Squid source hands on before
// its shutdown flush: those whose end is at least the reorder horizon
// behind the newest end in the log.
func deliverable(ends []float64) int64 {
	wm := slices.Max(ends) - ingestHorizon
	n := int64(0)
	for _, e := range ends {
		if e <= wm {
			n++
		}
	}
	return n
}

// verify runs the hard checks and the offline oracle over one daemon
// run. A non-nil error means the run must not be reported; the
// verification still carries the operation counts.
func verify(pr *prepared, ob *observed) (*verification, error) {
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	per, ends, err := rereadInput(pr)
	if err != nil {
		return nil, fmt.Errorf("re-reading the rendered input: %w", err)
	}
	sinkLines, sinkBytes, err := countSink(ob.sinkPath)
	if err != nil {
		return nil, err
	}
	if sinkLines != int64(pr.records) {
		fail("record conservation: sink holds %d data lines, %d records were generated", sinkLines, pr.records)
	}
	want := int64(pr.records)
	if pr.w.paced {
		want = deliverable(ends)
	}
	if got, _ := ob.final.value("qoeproxy_transactions_total"); int64(got) != want {
		fail("record conservation: qoeproxy_transactions_total = %d, want %d", int64(got), want)
	}
	for _, name := range []string{"qoeproxy_classification_errors_total", "qoeproxy_sink_write_failures_total"} {
		if got, ok := ob.final.value(name); !ok || got != 0 {
			fail("%s = %v (exported: %v), want 0", name, got, ok)
		}
	}
	if ob.healthz != "ok" {
		fail("/healthz status %q, want ok", ob.healthz)
	}
	if ob.errorLines != 0 {
		fail("daemon logged %d error lines", ob.errorLines)
	}

	v := &verification{clients: len(pr.clients), sinkBytes: sinkBytes}
	for i, txns := range per {
		got := ob.verdicts[i]
		if !got.have {
			v.missing++
			v.failed++
			continue
		}
		ring := txns[max(0, len(txns)-maxSessionTxns):]
		class, err := pr.est.Classify(ring)
		if err != nil {
			return nil, err
		}
		byStart := make([]sessionid.Transaction, len(txns))
		for j, t := range txns {
			byStart[j] = sessionid.Transaction{Start: t.Start, End: t.End, SNI: t.SNI}
		}
		sort.SliceStable(byStart, func(a, b int) bool { return byStart[a].Start < byStart[b].Start })
		boundaries := int64(0)
		for _, isNew := range sessionid.Detect(byStart, sessionid.PaperParams) {
			if isNew {
				boundaries++
			}
		}
		bad := false
		if got.transactions != int64(len(txns)) {
			v.wrongTransactions++
			bad = true
		}
		if got.class != class {
			v.wrongClass++
			bad = true
		}
		if got.boundaries != boundaries {
			v.wrongBoundaries++
			bad = bad || pr.w.source == "replay"
		}
		if bad {
			v.failed++
		}
	}
	v.digest = verdictDigest(pr, ob)

	if v.missing > 0 {
		fail("%d of %d clients have no final verdict", v.missing, v.clients)
	}
	if v.wrongTransactions > 0 {
		fail("%d of %d clients' final verdicts carry the wrong transaction count", v.wrongTransactions, v.clients)
	}
	if pr.w.source == "replay" && v.failed > 0 {
		fail("replay must match the oracle exactly: %d of %d clients differ (%d class, %d boundaries)",
			v.failed, v.clients, v.wrongClass, v.wrongBoundaries)
	}
	if a := v.classAgreement(); a < minClassAgreement {
		fail("class agreement with the oracle %.4f, want >= %.2f", a, minClassAgreement)
	}
	if len(problems) > 0 {
		return v, fmt.Errorf("%s: %d checks failed:\n  %s", pr.w.name, len(problems), strings.Join(problems, "\n  "))
	}
	return v, nil
}

// verdictDigest hashes the daemon's per-client final tuples in client
// order; two runs of one commit on one seed must print the same digest.
func verdictDigest(pr *prepared, ob *observed) string {
	order := make([]int, len(pr.clients))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pr.clients[order[a]] < pr.clients[order[b]] })
	h := sha256.New()
	for _, i := range order {
		v := ob.verdicts[i]
		fmt.Fprintf(h, "%s %d %d %d\n", pr.clients[i], v.transactions, v.boundaries, v.class)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
