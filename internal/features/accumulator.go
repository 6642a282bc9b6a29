package features

import (
	"math"
	"sort"

	"droppackets/internal/capture"
	"droppackets/internal/stats"
)

// Accumulator maintains the TLS feature vector of one ongoing session
// online: transactions are ingested one at a time and every feature —
// session-level totals, exact min/median/max over the six
// per-transaction metrics (via binary-insert sorted buffers) and the
// cumulative temporal counters — is kept current, so reading the
// vector after n new transactions costs O(n log s + features) rather
// than O(session length). Vectors are bit-identical to
// FromTLSWithIntervals over the same transactions in the same order:
// every metric value is computed with the same expressions, sums fold
// in ingest order, and a transaction that moves the session start
// anchor backwards triggers a full temporal replay so the counters
// match a batch run anchored at the true minimum.
//
// An Accumulator is not safe for concurrent use.
type Accumulator struct {
	intervals []float64
	ascending bool

	txns []capture.TLSTransaction

	start, end       float64
	totalDL, totalUL float64
	lastStart        float64

	// Sorted (ascending) per-metric value buffers.
	dl, ul, dur, tdr, d2u, iat []float64

	// Temporal cumulative byte counters, one per interval.
	cdl, cul []float64

	mark accMark
}

// Overlay holds the reusable buffers of VectorWithPending: sorted
// per-metric values of the pending transactions plus temporal-counter
// copies, so a speculative read never touches (or resizes with) the
// committed state. It is read-time scratch, not session state: one
// Overlay serves any number of Accumulators read one after another, so
// a service keeps one per reading goroutine rather than one per
// session. The zero value is ready to use.
type Overlay struct {
	dl, ul, dur, tdr, d2u, iat []float64
	cdl, cul                   []float64
}

// accMark snapshots the scalar state and temporal counters at Save so
// Rollback can restore them without float subtraction.
type accMark struct {
	valid            bool
	n                int
	start, end       float64
	totalDL, totalUL float64
	lastStart        float64
	cdl, cul         []float64
}

// NewAccumulator returns an Accumulator over the paper's default
// temporal grid (TemporalIntervals).
func NewAccumulator() *Accumulator {
	return NewAccumulatorWithIntervals(TemporalIntervals)
}

// NewAccumulatorWithIntervals returns an Accumulator over a custom
// temporal-interval grid. The caller must not mutate intervals while
// the Accumulator is in use.
func NewAccumulatorWithIntervals(intervals []float64) *Accumulator {
	return &Accumulator{
		intervals: intervals,
		ascending: intervalsAscending(intervals),
		cdl:       make([]float64, len(intervals)),
		cul:       make([]float64, len(intervals)),
	}
}

// Ingest folds one transaction into the running feature state.
// Transactions should arrive in the same order a batch extraction
// would see them; the vector is then bit-identical to the batch one.
func (a *Accumulator) Ingest(t capture.TLSTransaction) {
	first := len(a.txns) == 0
	a.txns = append(a.txns, t)
	if first {
		a.start, a.end = t.Start, t.End
	} else if t.End > a.end {
		a.end = t.End
	}
	a.totalDL += float64(t.DownBytes)
	a.totalUL += float64(t.UpBytes)

	// Per-transaction metric values, identical expressions to the batch
	// path, binary-inserted so each buffer is the sorted multiset a
	// batch sort would produce.
	a.dl = insertSorted(a.dl, float64(t.DownBytes))
	a.ul = insertSorted(a.ul, float64(t.UpBytes))
	d := t.Duration()
	if d <= 0 {
		d = 1e-9
	}
	a.dur = insertSorted(a.dur, d)
	a.tdr = insertSorted(a.tdr, float64(t.DownBytes)*8/d/1000)
	up := float64(t.UpBytes)
	if up <= 0 {
		up = 1
	}
	a.d2u = insertSorted(a.d2u, float64(t.DownBytes)/up)
	if !first {
		a.iat = insertSorted(a.iat, t.Start-a.lastStart)
	}
	a.lastStart = t.Start

	// Temporal counters: a transaction that starts before the current
	// anchor shifts every prior contribution, so replay the retained
	// transactions against the new anchor (the batch fold over the
	// prefix); otherwise add just this transaction's terms.
	if !first && t.Start < a.start {
		a.start = t.Start
		a.replayTemporal()
	} else {
		addTemporal(a.cdl, a.cul, a.intervals, a.ascending, t, a.start)
	}
}

// replayTemporal recomputes the cumulative counters from the retained
// transactions in ingest order against the current anchor.
func (a *Accumulator) replayTemporal() {
	clear(a.cdl)
	clear(a.cul)
	for _, t := range a.txns {
		addTemporal(a.cdl, a.cul, a.intervals, a.ascending, t, a.start)
	}
}

// Reset clears all state for reuse on the next session, keeping the
// interval grid and buffer capacity.
func (a *Accumulator) Reset() {
	a.txns = a.txns[:0]
	a.start, a.end = 0, 0
	a.totalDL, a.totalUL = 0, 0
	a.lastStart = 0
	a.dl, a.ul = a.dl[:0], a.ul[:0]
	a.dur, a.tdr = a.dur[:0], a.tdr[:0]
	a.d2u, a.iat = a.d2u[:0], a.iat[:0]
	clear(a.cdl)
	clear(a.cul)
	a.mark.valid = false
}

// Len reports how many transactions have been ingested since the last
// Reset.
func (a *Accumulator) Len() int { return len(a.txns) }

// Transactions exposes the retained transactions in ingest order. The
// returned slice is the Accumulator's own storage: callers must not
// mutate it, and it is only valid until the next Ingest, Rollback or
// Reset.
func (a *Accumulator) Transactions() []capture.TLSTransaction { return a.txns }

// Vector materializes the current feature vector
// (22 + 2*len(intervals) entries, zero for an empty session).
func (a *Accumulator) Vector() []float64 { return a.VectorInto(nil) }

// VectorInto materializes the feature vector into dst, reusing its
// backing array when large enough (nil allocates an exact-size one).
func (a *Accumulator) VectorInto(dst []float64) []float64 {
	need := 22 + 2*len(a.intervals)
	if cap(dst) < need {
		dst = make([]float64, need)
	} else {
		dst = dst[:need]
		clear(dst)
	}
	if len(a.txns) == 0 {
		return dst
	}
	dur := a.end - a.start
	if dur <= 0 {
		dur = 1e-9
	}
	dst[0] = a.totalDL * 8 / dur / 1000
	dst[1] = a.totalUL * 8 / dur / 1000
	dst[2] = dur
	dst[3] = float64(len(a.txns)) / dur
	pos := 4
	for _, m := range [...][]float64{a.dl, a.ul, a.dur, a.tdr, a.d2u, a.iat} {
		// Only the IAT buffer can be empty (single transaction); the
		// batch path summarizes [0] there, so the zeros already in dst
		// match.
		if len(m) > 0 {
			dst[pos] = m[0]
			dst[pos+1] = stats.PercentileSorted(m, 50)
			dst[pos+2] = m[len(m)-1]
		}
		pos += 3
	}
	k := len(a.intervals)
	copy(dst[pos:pos+k], a.cdl)
	copy(dst[pos+k:pos+2*k], a.cul)
	return dst
}

// Save marks the current state so a run of speculative Ingest calls
// (e.g. classifying a session mid-flight including not-yet-released
// transactions) can be undone with Rollback. Only one mark is held;
// a second Save replaces it.
func (a *Accumulator) Save() {
	a.mark.valid = true
	a.mark.n = len(a.txns)
	a.mark.start, a.mark.end = a.start, a.end
	a.mark.totalDL, a.mark.totalUL = a.totalDL, a.totalUL
	a.mark.lastStart = a.lastStart
	a.mark.cdl = append(a.mark.cdl[:0], a.cdl...)
	a.mark.cul = append(a.mark.cul[:0], a.cul...)
}

// Rollback undoes every Ingest since the last Save. Sorted-buffer
// entries are located by recomputing each speculative transaction's
// metric values (bit-identical to what Ingest inserted) and removed by
// binary search; scalars and temporal counters restore from the saved
// snapshot, so no floating-point subtraction ever runs. A Rollback
// without a preceding Save is a no-op.
func (a *Accumulator) Rollback() {
	if !a.mark.valid {
		return
	}
	for i := len(a.txns) - 1; i >= a.mark.n; i-- {
		t := a.txns[i]
		a.dl = removeSorted(a.dl, float64(t.DownBytes))
		a.ul = removeSorted(a.ul, float64(t.UpBytes))
		d := t.Duration()
		if d <= 0 {
			d = 1e-9
		}
		a.dur = removeSorted(a.dur, d)
		a.tdr = removeSorted(a.tdr, float64(t.DownBytes)*8/d/1000)
		up := float64(t.UpBytes)
		if up <= 0 {
			up = 1
		}
		a.d2u = removeSorted(a.d2u, float64(t.DownBytes)/up)
		if i > 0 {
			a.iat = removeSorted(a.iat, t.Start-a.txns[i-1].Start)
		}
	}
	a.txns = a.txns[:a.mark.n]
	a.start, a.end = a.mark.start, a.mark.end
	a.totalDL, a.totalUL = a.mark.totalDL, a.mark.totalUL
	a.lastStart = a.mark.lastStart
	copy(a.cdl, a.mark.cdl)
	copy(a.cul, a.mark.cul)
	a.mark.valid = false
}

// VectorWithPending materializes the feature vector the session would
// have if the pending transactions (in order) were ingested after the
// committed ones, without mutating any committed state; ov supplies the
// scratch buffers and carries nothing between calls. Medians over
// the combined multisets come from rank selection across the sorted
// committed buffer and a small sorted pending buffer, so the cost is
// O(len(pending)) plus the vector write — independent of how many
// transactions are already committed — versus the O(session) buffer
// shifts a Save/Ingest/Rollback cycle would pay. The result is
// bit-identical to a batch extraction over committed++pending. The one
// slow path is a pending transaction that starts before the committed
// session anchor: that shifts every temporal contribution, so the
// counters replay over all transactions (callers feeding
// start-ordered pending, like the proxy, never hit it).
func (a *Accumulator) VectorWithPending(ov *Overlay, dst []float64, pending []capture.TLSTransaction) []float64 {
	if len(pending) == 0 {
		return a.VectorInto(dst)
	}
	need := 22 + 2*len(a.intervals)
	if cap(dst) < need {
		dst = make([]float64, need)
	} else {
		dst = dst[:need]
		clear(dst)
	}

	// Session sweep continued over the pending tail: the committed fold
	// already lives in a.start/a.end/a.totalDL/a.totalUL, and min/max/sum
	// folds extend one element at a time exactly as the batch loop does.
	n := len(a.txns)
	start, end := a.start, a.end
	totalDL, totalUL := a.totalDL, a.totalUL
	if n == 0 {
		start, end = pending[0].Start, pending[0].End
	}
	for i, t := range pending {
		if !(n == 0 && i == 0) {
			if t.Start < start {
				start = t.Start
			}
			if t.End > end {
				end = t.End
			}
		}
		totalDL += float64(t.DownBytes)
		totalUL += float64(t.UpBytes)
	}

	// Pending per-metric values, same expressions as Ingest, sorted into
	// the overlay buffers.
	ov.dl, ov.ul = ov.dl[:0], ov.ul[:0]
	ov.dur, ov.tdr = ov.dur[:0], ov.tdr[:0]
	ov.d2u, ov.iat = ov.d2u[:0], ov.iat[:0]
	for i, t := range pending {
		ov.dl = append(ov.dl, float64(t.DownBytes))
		ov.ul = append(ov.ul, float64(t.UpBytes))
		d := t.Duration()
		if d <= 0 {
			d = 1e-9
		}
		ov.dur = append(ov.dur, d)
		ov.tdr = append(ov.tdr, float64(t.DownBytes)*8/d/1000)
		up := float64(t.UpBytes)
		if up <= 0 {
			up = 1
		}
		ov.d2u = append(ov.d2u, float64(t.DownBytes)/up)
		switch {
		case i > 0:
			ov.iat = append(ov.iat, t.Start-pending[i-1].Start)
		case n > 0:
			ov.iat = append(ov.iat, t.Start-a.lastStart)
		}
	}
	for _, m := range [...][]float64{ov.dl, ov.ul, ov.dur, ov.tdr, ov.d2u, ov.iat} {
		sort.Float64s(m)
	}

	// Temporal counters: extend the committed fold with the pending
	// terms, or replay everything when a pending transaction moved the
	// anchor backwards.
	k := len(a.intervals)
	if cap(ov.cdl) < k {
		ov.cdl = make([]float64, k)
		ov.cul = make([]float64, k)
	}
	ov.cdl, ov.cul = ov.cdl[:k], ov.cul[:k]
	if n > 0 && start == a.start {
		copy(ov.cdl, a.cdl)
		copy(ov.cul, a.cul)
		for _, t := range pending {
			addTemporal(ov.cdl, ov.cul, a.intervals, a.ascending, t, start)
		}
	} else {
		clear(ov.cdl)
		clear(ov.cul)
		for _, t := range a.txns {
			addTemporal(ov.cdl, ov.cul, a.intervals, a.ascending, t, start)
		}
		for _, t := range pending {
			addTemporal(ov.cdl, ov.cul, a.intervals, a.ascending, t, start)
		}
	}

	dur := end - start
	if dur <= 0 {
		dur = 1e-9
	}
	dst[0] = totalDL * 8 / dur / 1000
	dst[1] = totalUL * 8 / dur / 1000
	dst[2] = dur
	dst[3] = float64(n+len(pending)) / dur
	pos := 4
	committed := [...][]float64{a.dl, a.ul, a.dur, a.tdr, a.d2u, a.iat}
	overlayed := [...][]float64{ov.dl, ov.ul, ov.dur, ov.tdr, ov.d2u, ov.iat}
	for i := range committed {
		c, p := committed[i], overlayed[i]
		if len(c)+len(p) > 0 {
			dst[pos] = unionAt(c, p, 0)
			dst[pos+1] = unionPercentile50(c, p)
			dst[pos+2] = unionAt(c, p, len(c)+len(p)-1)
		}
		pos += 3
	}
	copy(dst[pos:pos+k], ov.cdl)
	copy(dst[pos+k:pos+2*k], ov.cul)
	return dst
}

// unionAt returns the element at index r of the merged sorted order of
// two ascending-sorted slices, without materializing the merge. Cost is
// O(len(b)), so callers keep b as the small side. r must be in
// [0, len(a)+len(b)).
func unionAt(a, b []float64, r int) float64 {
	for t := 0; t <= len(b); t++ {
		// Candidate a[r-t]: correct iff exactly t pending values sort at
		// or before it.
		i := r - t
		if i < 0 || i >= len(a) {
			continue
		}
		if (t == 0 || b[t-1] <= a[i]) && (t == len(b) || a[i] <= b[t]) {
			return a[i]
		}
	}
	for j := 0; j < len(b); j++ {
		i := r - j
		if i < 0 || i > len(a) {
			continue
		}
		if (i == 0 || a[i-1] <= b[j]) && (i == len(a) || b[j] <= a[i]) {
			return b[j]
		}
	}
	panic("features: unionAt rank out of range")
}

// unionPercentile50 is stats.PercentileSorted(merge(a, b), 50) with the
// same interpolation arithmetic, evaluated via unionAt so the merge is
// never built.
func unionPercentile50(a, b []float64) float64 {
	n := len(a) + len(b)
	if n == 1 {
		return unionAt(a, b, 0)
	}
	rank := 50.0 / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return unionAt(a, b, lo)
	}
	frac := rank - float64(lo)
	return unionAt(a, b, lo)*(1-frac) + unionAt(a, b, hi)*frac
}

// insertSorted places v into ascending-sorted s, keeping it sorted.
func insertSorted(s []float64, v float64) []float64 {
	i := sort.SearchFloat64s(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeSorted deletes one occurrence of v from ascending-sorted s.
// v must be present (callers recompute previously inserted values
// bit-identically).
func removeSorted(s []float64, v float64) []float64 {
	i := sort.SearchFloat64s(s, v)
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}
