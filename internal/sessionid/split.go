package sessionid

import (
	"cmp"
	"slices"

	"droppackets/internal/capture"
)

// Session is one session Split found in a client's transactions.
type Session struct {
	// Index counts the session starts Detect marked at or before the
	// session's first transaction, so the last session's Index equals
	// the boundaries the online sessionizer counts for the client.
	Index int
	// Start is the first transaction's start; End is the latest end.
	Start, End float64
	// Txns are the session's transactions in Sorted order.
	Txns []capture.TLSTransaction
}

// Sorted returns a copy of txns ordered by start, then end, with equal
// pairs in input order: the order the online service commits a
// client's transactions in, and the order Split reads them.
func Sorted(txns []capture.TLSTransaction) []capture.TLSTransaction {
	out := slices.Clone(txns)
	slices.SortStableFunc(out, func(a, b capture.TLSTransaction) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
	})
	return out
}

// Split cuts one client's complete transactions into sessions: it
// orders them as Sorted does, runs Detect, and starts a session at the
// first transaction and at every detected start. The sessions' Txns
// share one backing array.
func Split(txns []capture.TLSTransaction, p Params) []Session {
	ordered := Sorted(txns)
	stream := make([]Transaction, len(ordered))
	for i, t := range ordered {
		stream[i] = Transaction{Start: t.Start, End: t.End, SNI: t.SNI}
	}
	marks := Detect(stream, p)
	var out []Session
	index := 0
	for lo := 0; lo < len(ordered); {
		if marks[lo] {
			index++
		}
		hi := lo + 1
		for hi < len(ordered) && !marks[hi] {
			hi++
		}
		s := Session{Index: index, Start: ordered[lo].Start, End: ordered[lo].End, Txns: ordered[lo:hi:hi]}
		for _, t := range s.Txns {
			s.End = max(s.End, t.End)
		}
		out = append(out, s)
		lo = hi
	}
	return out
}

// Truth flattens ground-truth sessions into the labelled stream
// Evaluate and SessionsRecovered score Split's cuts on: their
// concatenation in the order Split reads it, SessionIdx the session's
// position in sessions and First on each session's earliest start.
func Truth(sessions [][]capture.TLSTransaction) []Transaction {
	var out []Transaction
	for k, txns := range sessions {
		for _, t := range txns {
			out = append(out, Transaction{Start: t.Start, End: t.End, SNI: t.SNI, SessionIdx: k})
		}
	}
	slices.SortStableFunc(out, func(a, b Transaction) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
	})
	markFirst(out)
	return out
}
