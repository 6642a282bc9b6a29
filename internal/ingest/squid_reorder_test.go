package ingest

import (
	"math"
	"math/rand"
	"testing"

	"droppackets/internal/tlsproxy"
)

// squidHeap is the reference reorder buffer the tests hold squidReorder
// to: a binary min-heap of keys in (time, sequence) order over the same
// slab-and-free-list record store.
type squidHeap struct {
	keys []squidKey
	slab []tlsproxy.Record
	free []int32
}

func (h *squidHeap) add(rec tlsproxy.Record, i int64, openAt, closeAt float64) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = rec
	} else {
		slot = int32(len(h.slab))
		h.slab = append(h.slab, rec)
	}
	h.push(squidKey{eventKey{openAt, 2 * i}, slot})
	h.push(squidKey{eventKey{closeAt, 2*i + 1}, slot})
}

func (h *squidHeap) push(k squidKey) {
	q := append(h.keys, k)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(q[parent].eventKey) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
	h.keys = q
}

// pop removes and returns the earliest key if it lies at or before wm.
func (h *squidHeap) pop(wm float64) (squidKey, bool) {
	q := h.keys
	if len(q) == 0 || q[0].at > wm {
		return squidKey{}, false
	}
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].before(q[m].eventKey) {
			m = r
		}
		if !q[m].before(last.eventKey) {
			break
		}
		q[i] = q[m]
		i = m
	}
	if n > 0 {
		q[i] = last
	}
	h.keys = q
	return top, true
}

func (h *squidHeap) release(slot int32) {
	h.slab[slot] = tlsproxy.Record{}
	h.free = append(h.free, slot)
}

// reorderCase describes one random add/emit stream: how entries' end
// times advance and how long connections last, the horizon, and how
// often (and how far behind the newest end) the watermark is applied.
type reorderCase struct {
	name      string
	horizon   float64
	entries   int
	start     float64 // the first end time
	step      float64 // mean gap between successive end times
	jitter    float64 // end times move back by up to this much
	maxDur    float64
	grid      float64 // > 0 rounds every time to this grid: ties
	gapEvery  int     // > 0 jumps the clock by gap every gapEvery entries
	gap       float64
	emitEvery int     // emit after about one in emitEvery entries
	lag       float64 // emits trail the watermark by up to this much
	lateEvery int     // > 0: one entry in lateEvery ends lateBy behind the newest end
	lateBy    float64
	longEvery int // > 0: one entry in longEvery lasts long seconds
	long      float64
}

var reorderCases = []reorderCase{
	{name: "end-ordered", horizon: 30, entries: 6000, step: 0.05, maxDur: 60, emitEvery: 1},
	{name: "jittered closes", horizon: 30, entries: 6000, step: 0.05, jitter: 20, maxDur: 60, emitEvery: 3, lag: 5},
	{name: "late opens and closes", horizon: 5, entries: 6000, step: 0.05, jitter: 2, maxDur: 120,
		emitEvery: 1, lateEvery: 7, lateBy: 40},
	{name: "ties and negative offsets", horizon: 4, entries: 6000, start: -200, step: 0.05, jitter: 3,
		maxDur: 10, grid: 0.5, emitEvery: 2, lag: 1},
	{name: "horizon 0", horizon: 0, entries: 4000, step: 0.05, jitter: 1, maxDur: 20, emitEvery: 1},
	{name: "horizon beyond the input", horizon: 1e6, entries: 4000, step: 0.05, jitter: 5, maxDur: 60, emitEvery: 1},
	{name: "gap beyond the ring", horizon: 2, entries: 6000, step: 0.05, jitter: 3, maxDur: 30,
		gapEvery: 500, gap: 5000, emitEvery: 40, lag: 50},
	{name: "connections longer than the ring", horizon: 30, entries: 6000, step: 0.05, jitter: 3, maxDur: 20,
		emitEvery: 1, longEvery: 97, long: 1e4},
}

// TestSquidReorderMatchesHeap drives the reorder buffer and the binary
// heap it replaced with the same random interleaving of adds and
// emits: every emit must release the same keys in the same order, each
// with its record intact at its slot. The buffer's slab must never
// outgrow the peak number of pending records, and freed slots must be
// reused.
func TestSquidReorderMatchesHeap(t *testing.T) {
	for ci, c := range reorderCases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ci + 1)))
			q := newSquidReorder(c.horizon)
			var h squidHeap
			pending, peak := 0, 0 // records with their transaction event still queued
			released := 0
			snap := func(at float64) float64 {
				if c.grid > 0 {
					return math.Round(at/c.grid) * c.grid
				}
				return QuantizeMicros(at)
			}
			emit := func(wm float64) {
				for {
					k, ok := q.pop(wm)
					hk, hok := h.pop(wm)
					if ok != hok || k != hk {
						t.Fatalf("after %d keys at watermark %v: buffer gave (%v, %d, %v), heap (%v, %d, %v)",
							released, wm, k.at, k.seq, ok, hk.at, hk.seq, hok)
					}
					if !ok {
						return
					}
					released++
					if got := q.slab[k.slot].ConnID; got != uint64(k.seq/2+1) {
						t.Fatalf("event seq %d found record %d at slot %d", k.seq, got, k.slot)
					}
					if !k.open() {
						q.release(k.slot)
						h.release(hk.slot)
						pending--
					}
				}
			}
			maxEnd, end := math.Inf(-1), c.start
			for i := 0; i < c.entries; i++ {
				end += rng.ExpFloat64() * c.step
				if c.gapEvery > 0 && i > 0 && i%c.gapEvery == 0 {
					end += c.gap
				}
				e := end - rng.Float64()*c.jitter
				if c.lateEvery > 0 && i%c.lateEvery == 0 {
					e = end - c.lateBy
				}
				closeAt := snap(e)
				openAt := snap(e - rng.Float64()*c.maxDur)
				if c.longEvery > 0 && i%c.longEvery == 0 {
					openAt = snap(e - c.long)
				}
				rec := tlsproxy.Record{ConnID: uint64(i + 1)}
				q.add(rec, int64(i), openAt, closeAt)
				h.add(rec, int64(i), openAt, closeAt)
				pending++
				peak = max(peak, pending)
				maxEnd = max(maxEnd, closeAt)
				if rng.Intn(c.emitEvery) == 0 {
					emit(maxEnd - c.horizon - rng.Float64()*c.lag)
				}
			}
			emit(math.Inf(1))
			if released != 2*c.entries || pending != 0 {
				t.Fatalf("released %d of %d keys; %d records still pending", released, 2*c.entries, pending)
			}
			if len(q.slab) > peak {
				t.Errorf("slab grew to %d slots, peak pending records was %d", len(q.slab), peak)
			}
			if len(q.slab) >= c.entries && c.horizon < 1e6 {
				t.Errorf("slab holds %d slots for %d records: slots were not recycled", len(q.slab), c.entries)
			}
			if len(q.free) != len(q.slab) {
				t.Errorf("%d of %d slots on the free list after draining", len(q.free), len(q.slab))
			}
			// Emitting at the watermark after every entry, as squidDelivery
			// does, keeps the buckets in use within one horizon whatever the
			// times; only a watermark held back lets them spread.
			grew := len(q.buckets.ring) > 2*bucketsPerHorizon
			if c.emitEvery == 1 && c.lag == 0 && grew {
				t.Errorf("the ring grew to %d buckets", len(q.buckets.ring))
			}
			if c.gapEvery > 0 && !grew {
				t.Errorf("the ring never grew past %d buckets", len(q.buckets.ring))
			}
		})
	}
}

// reorderStream is a backlog-shaped delivery stream for
// BenchmarkSquidReorder: end-ordered, about 100 records per
// event-second, connections up to 600 s, most of them short.
func reorderStream(n int) (opens, closes []float64, span float64) {
	rng := rand.New(rand.NewSource(1))
	opens, closes = make([]float64, n), make([]float64, n)
	end := 0.0
	for i := range closes {
		end += rng.ExpFloat64() / 100
		u := rng.Float64()
		closes[i] = QuantizeMicros(end)
		opens[i] = QuantizeMicros(end - 600*u*u)
	}
	return opens, closes, end + 600
}

// BenchmarkSquidReorder measures one record through the reorder buffer
// with a 300 s horizon, as squidDelivery drives it: add its two
// events, release everything behind the watermark, recycle the slots
// of released transactions. The stream repeats, shifted in time, so
// the buffer is in steady state; scripts/check.sh gates it at 0
// allocs/op.
func BenchmarkSquidReorder(b *testing.B) {
	const horizon = 300
	opens, closes, span := reorderStream(1 << 17)
	q := newSquidReorder(horizon)
	b.ReportAllocs()
	b.ResetTimer()
	shift, j := 0.0, 0
	for i := 0; i < b.N; i++ {
		if j == len(closes) {
			shift, j = shift+span, 0
		}
		closeAt := closes[j] + shift
		q.add(tlsproxy.Record{}, int64(i), opens[j]+shift, closeAt)
		j++
		for {
			k, ok := q.pop(closeAt - horizon)
			if !ok {
				break
			}
			if !k.open() {
				q.release(k.slot)
			}
		}
	}
}
