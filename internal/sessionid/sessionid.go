// Package sessionid implements the paper's session-identification
// heuristic (§4.2, Table 5). Back-to-back videos from the same service
// produce overlapping TLS transactions — connections from the previous
// session linger past the player closing — so timeout-based splitting
// fails. The heuristic instead detects session starts from two signals:
// (i) a session beginning opens several TLS connections nearly at once,
// and (ii) the set of servers changes when a new video starts.
package sessionid

import (
	"sort"

	"droppackets/internal/capture"
	"droppackets/internal/ml/eval"
)

// Params are the heuristic thresholds. For each transaction the set of
// succeeding transactions starting within WindowSec is examined: the
// transaction starts a new session when at least MinCount transactions
// follow it in the window and at least MinNewFrac of the windowed
// transactions contact servers unseen in the current session.
type Params struct {
	WindowSec  float64
	MinCount   int
	MinNewFrac float64
}

// PaperParams are the values used in §4.2: W = 3 s, Nmin = 2,
// δmin = 0.5.
var PaperParams = Params{WindowSec: 3, MinCount: 2, MinNewFrac: 0.5}

// Transaction is one TLS transaction in a concatenated stream, labeled
// with ground truth for evaluation.
type Transaction struct {
	Start, End float64
	SNI        string
	// SessionIdx is the ground-truth session the transaction belongs to.
	SessionIdx int
	// First marks the ground-truth first transaction of its session.
	First bool
}

// Bytes are one transaction's byte counts.
type Bytes struct{ Up, Down int64 }

// Concat splices per-session TLS transaction lists into one stream as a
// proxy would observe back-to-back playback: session k begins the
// moment session k-1's player closes, while session k-1's connections
// keep lingering. durations[k] is session k's wall-clock length.
//
// Because the device reuses connections that are still open, a new
// session's request to a host whose connection from the previous
// session has not yet timed out rides that connection instead of
// opening a new one; Concat models this by merging such transactions
// into the earlier one (this is exactly why the service's API and
// telemetry hosts rarely signal session boundaries, and why the
// heuristic leans on CDN-host changes). The result is ordered by start
// time, with First recomputed on the merged stream.
//
// bytes[i] holds out[i]'s byte counts, a folded transaction's added to
// the one it rides; they stay out of Transaction, which the Streamer
// buffers for every pending transaction and Detect never reads.
func Concat(sessions [][]capture.TLSTransaction, durations []float64) (out []Transaction, bytes []Bytes) {
	type item struct {
		Transaction
		Bytes
	}
	var all []item
	offset := 0.0
	for k, txns := range sessions {
		for _, t := range txns {
			all = append(all, item{Transaction{
				Start:      offset + t.Start,
				End:        offset + t.End,
				SNI:        t.SNI,
				SessionIdx: k,
			}, Bytes{Up: t.UpBytes, Down: t.DownBytes}})
		}
		if k < len(durations) {
			offset += durations[k]
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Start < all[b].Start })

	// Cross-session connection reuse: fold a transaction into the latest
	// still-open transaction of an earlier session on the same host.
	out = make([]Transaction, 0, len(all))
	bytes = make([]Bytes, 0, len(all))
	lastByHost := map[string]int{} // host -> index into out
	for _, t := range all {
		if i, ok := lastByHost[t.SNI]; ok {
			prev := &out[i]
			if prev.SessionIdx < t.SessionIdx && prev.End >= t.Start {
				prev.End = max(prev.End, t.End)
				bytes[i].Up += t.Up
				bytes[i].Down += t.Down
				continue
			}
		}
		out = append(out, t.Transaction)
		bytes = append(bytes, t.Bytes)
		lastByHost[t.SNI] = len(out) - 1
	}
	// Recompute ground-truth session starts on the merged stream.
	markFirst(out)
	return out, bytes
}

// markFirst marks each session's first transaction in a start-ordered
// stream.
func markFirst(txns []Transaction) {
	seen := map[int]bool{}
	for i := range txns {
		if k := txns[i].SessionIdx; !seen[k] {
			seen[k], txns[i].First = true, true
		}
	}
}

// Detect classifies every transaction in the (start-ordered) stream as
// starting a new session (true) or belonging to the current one
// (false). The server set of the "current session" is reset whenever a
// new session is declared.
func Detect(txns []Transaction, p Params) []bool {
	isNew := make([]bool, len(txns))
	seen := map[string]bool{}
	// One scratch list for the windowed hosts, reused across the scan
	// instead of reallocated per transaction.
	var windowHosts []string
	for i, t := range txns {
		// Succeeding transactions starting within the window.
		windowHosts = windowHosts[:0]
		for j := i + 1; j < len(txns) && txns[j].Start-t.Start <= p.WindowSec; j++ {
			windowHosts = append(windowHosts, txns[j].SNI)
		}
		n := len(windowHosts)
		// δ is the fraction of the succeeding windowed transactions that
		// contact servers unseen in the current session (§4.2).
		unseen := 0
		for _, h := range windowHosts {
			if !seen[h] {
				unseen++
			}
		}
		delta := 0.0
		if n > 0 {
			delta = float64(unseen) / float64(n)
		}
		if n >= p.MinCount && delta >= p.MinNewFrac {
			isNew[i] = true
			// The windowed transactions belong to the newly started
			// session: reset the server set to them so they do not
			// immediately re-trigger.
			seen = map[string]bool{}
			for _, h := range windowHosts {
				seen[h] = true
			}
		}
		seen[t.SNI] = true
	}
	return isNew
}

// Class indices of the Table 5 confusion matrix.
const (
	ClassExisting = 0
	ClassNew      = 1
)

// ClassNames label the Table 5 confusion matrix.
var ClassNames = []string{"existing", "new"}

// Evaluate runs Detect and scores it against ground truth, returning
// the Table 5 confusion matrix (rows: actual existing/new).
func Evaluate(txns []Transaction, p Params) *eval.Confusion {
	pred := Detect(txns, p)
	conf := eval.NewConfusion(2)
	for i, t := range txns {
		actual := ClassExisting
		if t.First {
			actual = ClassNew
		}
		got := ClassExisting
		if pred[i] {
			got = ClassNew
		}
		conf.Add(actual, got)
	}
	return conf
}

// SessionsRecovered returns how many ground-truth session starts were
// correctly identified (the paper's headline: 89% of consecutive
// sessions).
func SessionsRecovered(txns []Transaction, p Params) (correct, total int) {
	return Recovered(txns, Detect(txns, p))
}

// Recovered counts the ground-truth session starts that pred, the
// output of Detect or TimeoutDetect over txns, marks.
func Recovered(txns []Transaction, pred []bool) (correct, total int) {
	for i, t := range txns {
		if t.First {
			total++
			if pred[i] {
				correct++
			}
		}
	}
	return correct, total
}

// TimeoutDetect is the baseline the paper argues cannot work (§2.2): a
// transaction starts a new session iff the stream was idle — no earlier
// transaction active or recently ended — for at least gapSec before it.
// Because TLS connections linger past the player closing and the next
// video starts immediately, back-to-back sessions present no idle gap
// and this heuristic detects almost nothing after the first session.
func TimeoutDetect(txns []Transaction, gapSec float64) []bool {
	isNew := make([]bool, len(txns))
	maxEnd := 0.0
	for i, t := range txns {
		if i == 0 || t.Start-maxEnd >= gapSec {
			isNew[i] = true
		}
		if t.End > maxEnd {
			maxEnd = t.End
		}
	}
	return isNew
}
