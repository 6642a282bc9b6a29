package features

import (
	"math"
	"math/bits"
	"sort"

	"droppackets/internal/capture"
	"droppackets/internal/stats"
)

// Scratch holds the reusable working buffers of the batch TLS feature
// extractor: one value buffer per summarized metric, from which a row
// takes minimum, median and maximum by a scan and a selection (see
// orderStats), so its cost grows linearly with the session. Extracting
// through a shared Scratch avoids re-allocating and re-copying the
// six per-metric slices on every session, following the tree.Scratch
// convention — keep one Scratch per goroutine (it is not safe for
// concurrent use) and reuse it across any number of sessions and
// interval grids. Results are bit-identical to extraction through a
// fresh Scratch.
type Scratch struct {
	dl, ul, dur, tdr, d2u, iat []float64
}

// NewScratch returns an empty Scratch ready for reuse across
// extractions.
func NewScratch() *Scratch { return &Scratch{} }

// FromTLS extracts the paper's 38 TLS features using the scratch
// buffers, allocating only the result vector.
func (s *Scratch) FromTLS(txns []capture.TLSTransaction) []float64 {
	return s.FromTLSInto(nil, txns, TemporalIntervals)
}

// FromTLSWithIntervals is FromTLS over a custom temporal-interval
// grid.
func (s *Scratch) FromTLSWithIntervals(txns []capture.TLSTransaction, intervals []float64) []float64 {
	return s.FromTLSInto(nil, txns, intervals)
}

// FromTLSInto extracts the TLS feature vector into dst, reusing dst's
// backing array when it has capacity for the 22+2*len(intervals)
// entries (a nil dst allocates an exact-size one). Callers that hold
// both a Scratch and a result buffer extract with zero allocations.
func (s *Scratch) FromTLSInto(dst []float64, txns []capture.TLSTransaction, intervals []float64) []float64 {
	need := 22 + 2*len(intervals)
	if cap(dst) < need {
		dst = make([]float64, need)
	} else {
		dst = dst[:need]
		clear(dst)
	}
	if len(txns) == 0 {
		return dst
	}

	// Session level: one sweep for span and totals.
	start := txns[0].Start
	end := txns[0].End
	var totalDL, totalUL float64
	for _, t := range txns {
		if t.Start < start {
			start = t.Start
		}
		if t.End > end {
			end = t.End
		}
		totalDL += float64(t.DownBytes)
		totalUL += float64(t.UpBytes)
	}
	dur := end - start
	if dur <= 0 {
		dur = 1e-9
	}
	dst[0] = totalDL * 8 / dur / 1000
	dst[1] = totalUL * 8 / dur / 1000
	dst[2] = dur
	dst[3] = float64(len(txns)) / dur

	// Per-transaction metrics, collected into the reusable buffers and
	// summarized in place.
	s.dl, s.ul = s.dl[:0], s.ul[:0]
	s.dur, s.tdr = s.dur[:0], s.tdr[:0]
	s.d2u, s.iat = s.d2u[:0], s.iat[:0]
	for i, t := range txns {
		s.dl = append(s.dl, float64(t.DownBytes))
		s.ul = append(s.ul, float64(t.UpBytes))
		d := t.Duration()
		if d <= 0 {
			d = 1e-9
		}
		s.dur = append(s.dur, d)
		s.tdr = append(s.tdr, float64(t.DownBytes)*8/d/1000)
		up := float64(t.UpBytes)
		if up <= 0 {
			up = 1
		}
		s.d2u = append(s.d2u, float64(t.DownBytes)/up)
		if i > 0 {
			s.iat = append(s.iat, t.Start-txns[i-1].Start)
		}
	}
	if len(s.iat) == 0 {
		s.iat = append(s.iat, 0)
	}
	pos := 4
	for _, m := range [...][]float64{s.dl, s.ul, s.dur, s.tdr, s.d2u, s.iat} {
		dst[pos], dst[pos+1], dst[pos+2] = orderStats(m)
		pos += 3
	}

	// Temporal counters in a single sweep over the transactions.
	k := len(intervals)
	temporalSweep(dst[pos:pos+k], dst[pos+k:pos+2*k], intervals, intervalsAscending(intervals), txns, start)
	return dst
}

// selectCutoff is the array length at or below which orderStats sorts:
// there sort.Float64s's insertion sort costs no more than a min/max
// scan plus a selection (BenchmarkFeatureRow).
const selectCutoff = 24

// orderStats returns the minimum, the median and the maximum of m —
// bit for bit m[0], stats.PercentileSorted(m, 50) and m[len(m)-1]
// after sort.Float64s(m) — and may reorder m. A long array costs a
// linear scan and, unless the scan found it ascending already (a run
// of equal values, say), an introselect instead of a sort. Sorting
// decides the result where equal-comparing values differ in their bits
// (a −0 beside a +0, NaN payloads), so an array holding a NaN or a −0
// is sorted, as is a short one.
func orderStats(m []float64) (lo, med, hi float64) {
	if len(m) > selectCutoff {
		lo, hi = m[0], m[0]
		exact := true
		for _, x := range m {
			if x != x || math.Float64bits(x) == 1<<63 { // NaN or −0
				exact = false
				break
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if exact && sort.Float64sAreSorted(m) {
			return lo, stats.PercentileSorted(m, 50), hi
		}
		if exact {
			return lo, median(m), hi
		}
	}
	sort.Float64s(m)
	return m[0], stats.PercentileSorted(m, 50), m[len(m)-1]
}

// median is stats.PercentileSorted(m, 50) of m sorted, with the same
// rank, neighbours and interpolation expression, found by selection.
// m holds neither NaN nor −0, so every value that sorts at a rank has
// the same bits.
func median(m []float64) float64 {
	rank := 50.0 / 100 * float64(len(m)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	x := selectKth(m, lo)
	if lo == hi {
		return x
	}
	// Selection left every value above rank lo after it, so the value
	// at rank hi is their minimum.
	y := m[hi]
	for _, v := range m[hi+1:] {
		if v < y {
			y = v
		}
	}
	frac := rank - float64(lo)
	return x*(1-frac) + y*frac
}

// selectKth reorders a so that a[k] holds the value of rank k, nothing
// before it is greater and nothing after it is smaller, and returns
// a[k]. Each round splits the range around a median-of-three pivot
// into the values below it, equal to it and above it, in branch-free
// sweeps; what is left once the range is short or 2⌈log₂ n⌉ rounds
// have passed is sorted, so an adversarial order costs O(n log n),
// never O(n²). a must hold neither NaN nor −0.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)
	for rounds := 2 * bits.Len(uint(len(a)-1)); rounds > 0 && hi-lo > 12; rounds-- {
		p := median3(a[lo], a[int(uint(lo+hi)>>1)], a[hi-1])
		lt := lo + partitionBelow(a[lo:hi], orderKey(p))
		if k < lt {
			hi = lt
			continue
		}
		// No value's key is the largest uint64, so key+1 is exact.
		le := lt + partitionBelow(a[lt:hi], orderKey(p)+1)
		if k < le {
			return p
		}
		lo = le
	}
	sort.Float64s(a[lo:hi])
	return a[k]
}

// partitionBelow moves the values of a whose orderKey is below key to
// its front and returns how many there are.
func partitionBelow(a []float64, key uint64) int {
	j := 0
	for i, x := range a {
		a[i] = a[j]
		a[j] = x
		_, below := bits.Sub64(orderKey(x), key, 0) // 1 when below
		j += int(below)
	}
	return j
}

// orderKey maps a float64 that is neither NaN nor −0 to an integer with
// the same order, so that comparisons compile to arithmetic instead of
// a branch the CPU mispredicts half the time on unsorted data.
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// median3 returns the middle value of three.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// intervalsAscending reports whether the grid is sorted ascending, the
// precondition for binary-searching a transaction's straddled
// intervals.
func intervalsAscending(intervals []float64) bool {
	for i := 1; i < len(intervals); i++ {
		if intervals[i] < intervals[i-1] {
			return false
		}
	}
	return true
}

// temporalSweep accumulates every transaction's cumulative-byte
// contributions into cdl/cul (one entry per interval, pre-zeroed or
// carrying earlier transactions' partial sums). The sweep visits each
// transaction once, classifying each interval as before the
// transaction (no contribution), straddling it (proportional share) or
// past its end (precomputed full share); per-interval terms accumulate
// in transaction order, so the sums are bit-identical to the reference
// per-interval loop of §3.
func temporalSweep(cdl, cul, intervals []float64, ascending bool, txns []capture.TLSTransaction, start float64) {
	if len(intervals) == 0 {
		return
	}
	for _, t := range txns {
		addTemporal(cdl, cul, intervals, ascending, t, start)
	}
}

// addTemporal adds one transaction's contribution to every interval's
// cumulative DL/UL counters, anchored at the session start.
func addTemporal(cdl, cul, intervals []float64, ascending bool, t capture.TLSTransaction, start float64) {
	d := maxf(t.Duration(), 1e-9)
	t0 := maxf(t.Start-start, 0)
	t1 := t.End - start
	oFull := t1 - t0
	if oFull <= 0 {
		return
	}
	shareFull := oFull / d
	if shareFull > 1 {
		shareFull = 1
	}
	fullDL := shareFull * float64(t.DownBytes)
	fullUL := shareFull * float64(t.UpBytes)
	if !ascending {
		// Arbitrary grid order: fall back to the direct per-interval
		// overlap computation.
		for i, iv := range intervals {
			o := minf(t1, iv) - t0
			if o <= 0 {
				continue
			}
			share := o / d
			if share > 1 {
				share = 1
			}
			cdl[i] += share * float64(t.DownBytes)
			cul[i] += share * float64(t.UpBytes)
		}
		return
	}
	// Ascending grid: intervals at or before t0 see nothing, intervals
	// past t1 see the full share, only the straddled run in between
	// needs per-interval arithmetic.
	lo := sort.SearchFloat64s(intervals, t0)
	for lo < len(intervals) && intervals[lo] <= t0 {
		lo++
	}
	hi := sort.SearchFloat64s(intervals, t1)
	for i := lo; i < hi; i++ {
		share := (intervals[i] - t0) / d
		if share > 1 {
			share = 1
		}
		cdl[i] += share * float64(t.DownBytes)
		cul[i] += share * float64(t.UpBytes)
	}
	for i := hi; i < len(intervals); i++ {
		cdl[i] += fullDL
		cul[i] += fullUL
	}
}
