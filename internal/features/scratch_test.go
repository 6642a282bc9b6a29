package features

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"droppackets/internal/capture"
	"droppackets/internal/stats"
)

// sortedStats is the reference orderStats must match: minimum, median
// and maximum read off a sorted copy.
func sortedStats(m []float64) [3]float64 {
	s := append([]float64(nil), m...)
	sort.Float64s(s)
	return [3]float64{s[0], stats.PercentileSorted(s, 50), s[len(s)-1]}
}

// requireStatsBits checks orderStats and, when m holds no NaN and no
// −0, the selection path itself against sortedStats, bit for bit.
func requireStatsBits(t *testing.T, ctx string, m []float64) {
	t.Helper()
	want := sortedStats(m)
	var got [3]float64
	got[0], got[1], got[2] = orderStats(append([]float64(nil), m...))
	requireBitsEqual(t, ctx+" orderStats", got[:], want[:])
	for _, x := range m {
		if x != x || math.Float64bits(x) == 1<<63 {
			return
		}
	}
	sel := median(append([]float64(nil), m...))
	requireBitsEqual(t, ctx+" median", []float64{sel}, want[1:2])
}

// med3Killer is Musser's median-of-three killer: the ordering that
// drives a median-of-three quickselect to quadratic time.
func med3Killer(n int) []float64 {
	a := make([]float64, n)
	k := n / 2
	for i := 1; i <= k; i++ {
		if i%2 == 1 {
			a[i-1] = float64(i)
			a[i] = float64(k + i)
		}
		a[k+i-1] = float64(2 * i)
	}
	if n%2 == 1 {
		a[n-1] = float64(n)
	}
	return a
}

// orderStatsPatterns builds the adversarial orderings of n values.
func orderStatsPatterns(rng *rand.Rand, n int) map[string][]float64 {
	p := map[string][]float64{}
	fill := func(name string, f func(i int) float64) {
		a := make([]float64, n)
		for i := range a {
			a[i] = f(i)
		}
		p[name] = a
	}
	fill("random", func(int) float64 { return rng.NormFloat64() * 1e6 })
	fill("sorted", func(i int) float64 { return float64(i) })
	fill("reversed", func(i int) float64 { return float64(n - i) })
	fill("all-equal", func(int) float64 { return 7.5 })
	fill("organ-pipe", func(i int) float64 { return float64(min(i, n-1-i)) })
	fill("few-distinct", func(int) float64 { return float64(rng.Intn(3)) * 0.1 })
	fill("byte-counts", func(int) float64 { return float64(rng.Intn(4) * 1000) })
	p["med3-killer"] = med3Killer(n)
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	for _, s := range special {
		a := append([]float64(nil), p["few-distinct"]...)
		a[rng.Intn(n)] = s
		p[fmt.Sprintf("with %v (signbit %v)", s, math.Signbit(s))] = a
	}
	fill("signed zeros", func(int) float64 { return math.Copysign(0, float64(rng.Intn(2)*2-1)) })
	fill("infinities", func(i int) float64 { return math.Inf(1 - 2*(i%2)) })
	return p
}

// TestOrderStatsMatchesSort pins orderStats to the sort it replaced,
// bit for bit, on orderings chosen to break a selection: presorted,
// reversed, all-equal, organ-pipe, few-distinct and median-of-three
// killer arrays, arrays holding NaN, ±0 or ±Inf, at lengths on both
// sides of the sort cutoff up to the daemon's 4,096-transaction cap.
func TestOrderStatsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 11, 12, 13, selectCutoff - 1, selectCutoff, selectCutoff + 1, selectCutoff + 2, 64, 100, 525, 1000, 4095, 4096} {
		if n < 1 {
			continue
		}
		for name, m := range orderStatsPatterns(rng, n) {
			requireStatsBits(t, fmt.Sprintf("n=%d %s", n, name), m)
		}
	}
}

// TestSelectKthPartitions checks selectKth's contract at every rank of
// a tie-heavy array: a[k] is the rank-k value, nothing before it is
// greater and nothing after it smaller.
func TestSelectKthPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 13, 100, 777} {
		src := make([]float64, n)
		for i := range src {
			src[i] = float64(rng.Intn(n/3 + 1))
		}
		ref := append([]float64(nil), src...)
		sort.Float64s(ref)
		for k := 0; k < n; k++ {
			a := append([]float64(nil), src...)
			if got := selectKth(a, k); got != ref[k] || a[k] != ref[k] {
				t.Fatalf("n=%d k=%d: selected %v, want %v", n, k, got, ref[k])
			}
			for i, x := range a {
				if (i < k && x > a[k]) || (i > k && x < a[k]) {
					t.Fatalf("n=%d k=%d: a[%d]=%v on the wrong side of %v", n, k, i, x, a[k])
				}
			}
		}
	}
}

// FuzzOrderStats feeds arbitrary float64 bit patterns, tiled past the
// sort cutoff, through orderStats and the selection path.
func FuzzOrderStats(f *testing.F) {
	word := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(word(1, 2, 3), uint8(9))
	f.Add(word(0, math.Copysign(0, -1), 5), uint8(12))
	f.Add(word(math.NaN(), 1, math.Inf(-1)), uint8(20))
	f.Add(word(3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5), uint8(0))
	f.Add(word(med3Killer(64)...), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, reps uint8) {
		var vals []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		if len(vals) == 0 {
			return
		}
		m := make([]float64, 0, len(vals)*(1+int(reps%64)))
		for r := 0; r <= int(reps%64); r++ {
			m = append(m, vals...)
		}
		requireStatsBits(t, fmt.Sprintf("%d values", len(m)), m)
	})
}

// TestRowIgnoresSNIAndHTTPCount pins what lets the serving layer retain
// transactions without their SNI or HTTP count: a row reads Start, End
// and the byte counters only, so scrambling the other two fields leaves
// every bit of it unchanged.
func TestRowIgnoresSNIAndHTTPCount(t *testing.T) {
	s := NewScratch()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		txns := randSession(rng, 1+rng.Intn(200))
		want := s.FromTLSInto(nil, txns, TemporalIntervals)
		for i := range txns {
			txns[i].SNI = fmt.Sprintf("scrambled-%d.example", rng.Int63())
			txns[i].HTTPCount = rng.Intn(1000) - 500
		}
		requireBitsEqual(t, fmt.Sprintf("seed %d scrambled", seed), s.FromTLSInto(nil, txns, TemporalIntervals), want)
		for i := range txns {
			txns[i].SNI, txns[i].HTTPCount = "", 0
		}
		requireBitsEqual(t, fmt.Sprintf("seed %d stripped", seed), s.FromTLSInto(nil, txns, TemporalIntervals), want)
	}
}

// benchSession is a well-formed session of n transactions: starts
// ascending, positive durations, video-sized byte counts.
func benchSession(rng *rand.Rand, n int) []capture.TLSTransaction {
	txns := make([]capture.TLSTransaction, n)
	now := 0.0
	for i := range txns {
		now += rng.Float64() * 4
		txns[i] = capture.TLSTransaction{
			Start:     now,
			End:       now + 0.1 + rng.Float64()*8,
			DownBytes: int64(10_000 + rng.Intn(2_000_000)),
			UpBytes:   int64(500 + rng.Intn(5_000)),
		}
	}
	return txns
}

// rowSink keeps BenchmarkFeatureRow's result alive.
var rowSink []float64

// BenchmarkFeatureRow is one row build (Scratch.FromTLSInto with warm
// buffers) over a session of n transactions: paper-sized sessions, a
// squid_backlog retained ring (~525), 1,000 and the 4,096-transaction
// cap, plus a 4,096 session whose byte counts follow the
// median-of-three killer order. It picks selectCutoff: below it the
// sort path is kept.
func BenchmarkFeatureRow(b *testing.B) {
	type rowCase struct {
		name string
		txns []capture.TLSTransaction
	}
	var cases []rowCase
	for _, n := range []int{10, 30, 100, 525, 1000, 4096} {
		cases = append(cases, rowCase{fmt.Sprintf("n=%d", n), benchSession(rand.New(rand.NewSource(int64(n))), n)})
	}
	killer := benchSession(rand.New(rand.NewSource(3)), 4096)
	for i, v := range med3Killer(len(killer)) {
		killer[i].DownBytes = int64(v) * 1000
		killer[i].UpBytes = int64(v)
	}
	cases = append(cases, rowCase{"n=4096/med3-killer", killer})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := NewScratch()
			dst := s.FromTLSInto(nil, c.txns, TemporalIntervals)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.FromTLSInto(dst, c.txns, TemporalIntervals)
			}
			rowSink = dst
		})
	}
}
