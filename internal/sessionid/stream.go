package sessionid

// Streamer is the online form of Detect: it consumes a live,
// start-ordered transaction stream one transaction at a time and emits
// session-boundary decisions as soon as they are final, instead of
// requiring the finished slice the batch API takes. Replaying any
// stream through Push followed by one Flush yields exactly the
// decisions Detect returns on the same slice (the replay-equivalence
// tests assert this), so the online service and the offline evaluation
// share one heuristic.
//
// The heuristic looks ahead: transaction i is classified from the
// transactions that start within WindowSec after it (§4.2). A decision
// therefore becomes final only once a transaction arrives that starts
// more than WindowSec later — until then the transaction is buffered.
// Push returns the newly finalized decisions, oldest first (often
// none); Flush finalizes whatever is still buffered when the stream
// ends. Buffering is bounded by the number of transactions a client
// starts within one window, not by stream length.
//
// A Streamer is not safe for concurrent use; the caller (one per
// client in cmd/qoeproxy) serializes access.
type Streamer struct {
	p    Params
	seen map[string]bool
	// pending holds transactions whose look-ahead window is still open,
	// in arrival (= start) order. pending[0] is the next to be decided.
	pending []Transaction
}

// Decision is the finalized verdict on one transaction of the stream.
type Decision struct {
	// Txn is the transaction the decision is about, as pushed.
	Txn Transaction
	// NewSession reports that Txn starts a new session (the batch
	// Detect's true value at this position).
	NewSession bool
}

// NewStreamer returns an online sessionizer with the given thresholds
// (use PaperParams for the §4.2 values).
func NewStreamer(p Params) *Streamer {
	return &Streamer{p: p, seen: map[string]bool{}}
}

// Push feeds the next transaction of the stream. Transactions must
// arrive in nondecreasing Start order — the same precondition Detect
// places on its input slice. It returns the decisions that this
// arrival made final, in a fresh slice (nil when there are none):
// every buffered transaction whose WindowSec look-ahead the new arrival
// closes.
func (s *Streamer) Push(t Transaction) []Decision {
	return s.PushInto(nil, t)
}

// PushInto is Push appending the decisions to dst, for callers that
// reuse one scratch slice across pushes. Once dst, the look-ahead
// buffer and the server set have grown to the stream's steady size it
// allocates nothing.
func (s *Streamer) PushInto(dst []Decision, t Transaction) []Decision {
	s.pending = append(s.pending, t)
	for len(s.pending) > 1 && s.pending[len(s.pending)-1].Start-s.pending[0].Start > s.p.WindowSec {
		dst = append(dst, s.decideHead())
	}
	return dst
}

// Flush finalizes all still-buffered transactions, as at end of
// stream, and resets nothing else: the server-set state carries over,
// so a caller may keep pushing afterwards if more traffic appears
// (Flush is then equivalent to having temporarily reached the end of
// the slice).
func (s *Streamer) Flush() []Decision {
	var out []Decision
	for len(s.pending) > 0 {
		out = append(out, s.decideHead())
	}
	return out
}

// Pending reports how many transactions are buffered awaiting their
// look-ahead window to close.
func (s *Streamer) Pending() int { return len(s.pending) }

// decideHead finalizes pending[0] against its windowed successors,
// mirroring one iteration of Detect's loop. It counts the window in
// place and reuses the server set's map, so it allocates nothing once
// the map has grown to the client's server count.
func (s *Streamer) decideHead() Decision {
	head := s.pending[0]
	window := s.pending[1:]
	n, unseen := 0, 0
	for _, t := range window {
		if t.Start-head.Start <= s.p.WindowSec {
			n++
			if !s.seen[t.SNI] {
				unseen++
			}
		}
	}
	delta := 0.0
	if n > 0 {
		delta = float64(unseen) / float64(n)
	}
	isNew := n >= s.p.MinCount && delta >= s.p.MinNewFrac
	if isNew {
		// The windowed transactions belong to the newly started session:
		// reset the server set to them so they do not immediately
		// re-trigger (same as Detect).
		clear(s.seen)
		for _, t := range window {
			if t.Start-head.Start <= s.p.WindowSec {
				s.seen[t.SNI] = true
			}
		}
	}
	s.seen[head.SNI] = true
	// Shift in place; the buffer is at most one window's worth of
	// transactions, so the copy is cheap.
	s.pending = append(s.pending[:0], s.pending[1:]...)
	return Decision{Txn: head, NewSession: isNew}
}
