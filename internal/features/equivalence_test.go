package features

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"droppackets/internal/capture"
)

// testGrids are the interval grids the equivalence suite sweeps: the
// paper default, the ablation shapes, plus degenerate (empty, single),
// non-ascending and duplicate-endpoint grids that force the
// non-binary-search fallback.
var testGrids = [][]float64{
	nil,
	{60},
	{30, 60, 120, 240, 480, 720, 960, 1200},
	{15, 30, 45, 60, 90, 120, 240, 360, 480, 720, 960, 1200},
	{600, 60, 1200, 30},
	{60, 60, 120},
	{0.5, 1, 2, 1e9},
}

// randSession generates a session that exercises the extractor's edge
// branches: zero gaps, out-of-order starts (anchor replay), zero and
// negative durations, zero byte counters.
func randSession(rng *rand.Rand, n int) []capture.TLSTransaction {
	txns := make([]capture.TLSTransaction, n)
	now := rng.Float64() * 100
	for i := range txns {
		switch rng.Intn(6) {
		case 0: // simultaneous start
		case 1:
			now -= rng.Float64() * 20 // out-of-order: starts before a prior txn
		default:
			now += rng.Float64() * 50
		}
		d := rng.Float64() * 40
		switch rng.Intn(10) {
		case 0:
			d = 0
		case 1:
			d = -rng.Float64() * 5 // End before Start
		}
		dl := int64(rng.Intn(5_000_000))
		ul := int64(rng.Intn(20_000))
		if rng.Intn(10) == 0 {
			dl = 0
		}
		if rng.Intn(10) == 0 {
			ul = 0
		}
		txns[i] = capture.TLSTransaction{
			SNI:       fmt.Sprintf("h%d.example", rng.Intn(5)),
			Start:     now,
			End:       now + d,
			DownBytes: dl,
			UpBytes:   ul,
			HTTPCount: 1 + rng.Intn(4),
		}
	}
	return txns
}

func bitsEqual(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func requireBitsEqual(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if i, ok := bitsEqual(got, want); !ok {
		if i < 0 {
			t.Fatalf("%s: length mismatch got %d want %d", ctx, len(got), len(want))
		}
		t.Fatalf("%s: feature %d differs: got %v (%#x) want %v (%#x)",
			ctx, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// TestScratchMatchesReference proves the rewritten batch path is
// bit-identical to the pre-optimization extractor across randomized
// sessions and every test grid, with one Scratch reused throughout.
// Session lengths reach the daemon's 4,096-transaction cap and straddle
// the length at which order statistics switch from sorting to
// selection; every other session draws its byte counts and durations
// from a handful of values, so the selected ranks sit among ties.
func TestScratchMatchesReference(t *testing.T) {
	s := NewScratch()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80)
		switch seed % 4 {
		case 1:
			n = rng.Intn(4097)
		case 2:
			n = max(0, selectCutoff-1+rng.Intn(3))
		}
		txns := randSession(rng, n)
		if seed%2 == 1 {
			for i := range txns {
				txns[i].End = txns[i].Start + float64(rng.Intn(3))
				txns[i].DownBytes = int64(rng.Intn(4)) * 1000
				txns[i].UpBytes = int64(rng.Intn(3)) * 100
			}
		}
		for gi, grid := range testGrids {
			want := referenceFromTLSWithIntervals(txns, grid)
			got := s.FromTLSWithIntervals(txns, grid)
			requireBitsEqual(t, fmt.Sprintf("seed %d grid %d scratch", seed, gi), got, want)
			got2 := FromTLSWithIntervals(txns, grid)
			requireBitsEqual(t, fmt.Sprintf("seed %d grid %d package", seed, gi), got2, want)
		}
	}
}

// TestAccumulatorPrefixReplay is the strongest accumulator contract:
// after every single Ingest, the online vector must equal a batch
// extraction over the prefix ingested so far, bit for bit.
func TestAccumulatorPrefixReplay(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		txns := randSession(rng, 1+rng.Intn(60))
		for gi, grid := range testGrids {
			acc := NewAccumulatorWithIntervals(grid)
			var buf []float64
			for p := range txns {
				acc.Ingest(txns[p])
				want := referenceFromTLSWithIntervals(txns[:p+1], grid)
				buf = acc.VectorInto(buf)
				requireBitsEqual(t, fmt.Sprintf("seed %d grid %d prefix %d", seed, gi, p+1), buf, want)
			}
			if acc.Len() != len(txns) {
				t.Fatalf("Len = %d, want %d", acc.Len(), len(txns))
			}
		}
	}
}

// TestAccumulatorSaveRollback ingests a committed prefix, saves,
// speculatively ingests a suffix, rolls back, and requires the state
// to match the committed prefix exactly — then keeps ingesting real
// transactions to prove the rolled-back accumulator is still live.
func TestAccumulatorSaveRollback(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		txns := randSession(rng, 3+rng.Intn(50))
		spec := randSession(rng, 1+rng.Intn(10))
		cut := 1 + rng.Intn(len(txns)-1)

		acc := NewAccumulator()
		for _, tx := range txns[:cut] {
			acc.Ingest(tx)
		}
		committed := acc.Vector()

		acc.Save()
		for _, tx := range spec {
			acc.Ingest(tx)
		}
		specWant := referenceFromTLSWithIntervals(append(append([]capture.TLSTransaction(nil), txns[:cut]...), spec...), TemporalIntervals)
		requireBitsEqual(t, fmt.Sprintf("seed %d speculative", seed), acc.Vector(), specWant)

		acc.Rollback()
		requireBitsEqual(t, fmt.Sprintf("seed %d rolled back", seed), acc.Vector(), committed)
		if acc.Len() != cut {
			t.Fatalf("Len after rollback = %d, want %d", acc.Len(), cut)
		}

		for _, tx := range txns[cut:] {
			acc.Ingest(tx)
		}
		want := referenceFromTLSWithIntervals(txns, TemporalIntervals)
		requireBitsEqual(t, fmt.Sprintf("seed %d after rollback+continue", seed), acc.Vector(), want)
	}
}

// TestAccumulatorVectorWithPending sweeps random committed/pending
// splits across every grid: the overlay read must be bit-identical to
// a batch extraction over committed++pending AND must leave the
// committed state untouched. Pending suffixes that start before the
// committed anchor are generated too (randSession emits out-of-order
// starts), covering the temporal replay path. One Overlay serves every
// accumulator and grid in turn, as a service's per-reader scratch does.
func TestAccumulatorVectorWithPending(t *testing.T) {
	var ov Overlay
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		txns := randSession(rng, 1+rng.Intn(60))
		cut := rng.Intn(len(txns) + 1)
		for gi, grid := range testGrids {
			acc := NewAccumulatorWithIntervals(grid)
			for _, tx := range txns[:cut] {
				acc.Ingest(tx)
			}
			committed := acc.Vector()

			var buf []float64
			buf = acc.VectorWithPending(&ov, buf, txns[cut:])
			want := referenceFromTLSWithIntervals(txns, grid)
			requireBitsEqual(t, fmt.Sprintf("seed %d grid %d cut %d overlay", seed, gi, cut), buf, want)

			requireBitsEqual(t, fmt.Sprintf("seed %d grid %d cut %d committed intact", seed, gi, cut), acc.Vector(), committed)
			if acc.Len() != cut {
				t.Fatalf("Len after overlay read = %d, want %d", acc.Len(), cut)
			}

			// A second overlay read with warm buffers must not allocate
			// beyond the result it already owns.
			buf2 := acc.VectorWithPending(&ov, buf, txns[cut:])
			requireBitsEqual(t, fmt.Sprintf("seed %d grid %d cut %d overlay warm", seed, gi, cut), buf2, want)
		}
	}
}

// TestAccumulatorVectorWithPendingAllocs checks a warm overlay read is
// allocation-free.
func TestAccumulatorVectorWithPendingAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	txns := randSession(rng, 60)
	acc := NewAccumulator()
	for _, tx := range txns[:40] {
		acc.Ingest(tx)
	}
	pending := txns[40:]
	var ov Overlay
	var dst []float64
	dst = acc.VectorWithPending(&ov, dst, pending)
	allocs := testing.AllocsPerRun(20, func() {
		dst = acc.VectorWithPending(&ov, dst, pending)
	})
	if allocs != 0 {
		t.Fatalf("VectorWithPending with warm buffers allocated %.1f times per run, want 0", allocs)
	}
}

// TestAccumulatorReset reuses one accumulator across sessions and
// checks the second session is untainted by the first.
func TestAccumulatorReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	acc := NewAccumulator()
	for round := 0; round < 5; round++ {
		txns := randSession(rng, 1+rng.Intn(40))
		acc.Reset()
		for _, tx := range txns {
			acc.Ingest(tx)
		}
		want := referenceFromTLSWithIntervals(txns, TemporalIntervals)
		requireBitsEqual(t, fmt.Sprintf("round %d", round), acc.Vector(), want)
	}
}

// TestEquivalenceEdgeCases pins the empty- and single-transaction
// behavior of all three paths.
func TestEquivalenceEdgeCases(t *testing.T) {
	single := []capture.TLSTransaction{{SNI: "a.example", Start: 5, End: 9, DownBytes: 1000, UpBytes: 0}}
	cases := [][]capture.TLSTransaction{nil, {}, single}
	s := NewScratch()
	for ci, txns := range cases {
		for gi, grid := range testGrids {
			want := referenceFromTLSWithIntervals(txns, grid)
			requireBitsEqual(t, fmt.Sprintf("case %d grid %d scratch", ci, gi), s.FromTLSWithIntervals(txns, grid), want)
			acc := NewAccumulatorWithIntervals(grid)
			for _, tx := range txns {
				acc.Ingest(tx)
			}
			requireBitsEqual(t, fmt.Sprintf("case %d grid %d accumulator", ci, gi), acc.Vector(), want)
		}
	}
	// Rollback with no Save must be a no-op.
	acc := NewAccumulator()
	acc.Ingest(single[0])
	before := acc.Vector()
	acc.Rollback()
	requireBitsEqual(t, "rollback without save", acc.Vector(), before)
}

// TestFromTLSIntoReusesBuffer checks the scratch+dst combination is
// allocation-free once the buffers have grown to the workload size.
func TestFromTLSIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	txns := randSession(rng, 50)
	s := NewScratch()
	var dst []float64
	dst = s.FromTLSInto(dst, txns, TemporalIntervals)
	allocs := testing.AllocsPerRun(20, func() {
		dst = s.FromTLSInto(dst, txns, TemporalIntervals)
	})
	if allocs != 0 {
		t.Fatalf("FromTLSInto with warm buffers allocated %.1f times per run, want 0", allocs)
	}
	requireBitsEqual(t, "warm reuse", dst, referenceFromTLSWithIntervals(txns, TemporalIntervals))
}

// TestAccumulatorVectorIntoReuse checks a warm accumulator read is
// allocation-free.
func TestAccumulatorVectorIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	txns := randSession(rng, 30)
	acc := NewAccumulator()
	for _, tx := range txns {
		acc.Ingest(tx)
	}
	var dst []float64
	dst = acc.VectorInto(dst)
	allocs := testing.AllocsPerRun(20, func() {
		dst = acc.VectorInto(dst)
	})
	if allocs != 0 {
		t.Fatalf("VectorInto with warm buffer allocated %.1f times per run, want 0", allocs)
	}
}
