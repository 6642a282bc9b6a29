package bytesconv

import (
	"math"
	"strconv"
	"testing"
)

// diffFloat asserts ParseFloat(b) == strconv.ParseFloat(string(b), 64)
// in value, NaN-ness and error presence.
func diffFloat(t *testing.T, in string) {
	t.Helper()
	got, gotErr := ParseFloat([]byte(in))
	want, wantErr := strconv.ParseFloat(in, 64)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("ParseFloat(%q) err = %v, strconv err = %v", in, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if math.IsNaN(want) {
		if !math.IsNaN(got) {
			t.Fatalf("ParseFloat(%q) = %v, want NaN", in, got)
		}
		return
	}
	if got != want || math.Signbit(got) != math.Signbit(want) {
		t.Fatalf("ParseFloat(%q) = %v (signbit %v), strconv = %v (signbit %v)",
			in, got, math.Signbit(got), want, math.Signbit(want))
	}
}

// diffInt asserts ParseInt(b) == strconv.ParseInt(string(b), 10, 64) in
// value and error presence (including the saturated overflow value).
func diffInt(t *testing.T, in string) {
	t.Helper()
	got, gotErr := ParseInt([]byte(in))
	want, wantErr := strconv.ParseInt(in, 10, 64)
	if (gotErr != nil) != (wantErr != nil) || got != want {
		t.Fatalf("ParseInt(%q) = (%v, %v), strconv = (%v, %v)", in, got, gotErr, want, wantErr)
	}
}

var floatCases = []string{
	"0", "1", "-1", "+1", "1588888888.123", "-0.0", "0.0", ".5", "-.5", "1.",
	"5125", "0.001", "123.456789", "999999999999999", "9007199254740991",
	"9007199254740993", "1e5", "-1E-3", "0x1p4", "Inf", "-inf", "NaN", "nan",
	"1_000", "1.2.3", "", "+", "-", ".", "+.", "abc", "12a", " 1", "1 ",
	"184467440737095516150.5", "0.0000000000000000000000000001",
	"1.00000000000000000000000000", "00000000000000000001.5",
}

func TestParseFloatDifferential(t *testing.T) {
	for _, c := range floatCases {
		diffFloat(t, c)
	}
}

var intCases = []string{
	"0", "1", "-1", "+1", "1583231", "-999999999999999999", "999999999999999999",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808",
	"-9223372036854775809", "18446744073709551615", "", "+", "-", "1.5",
	"abc", "1_0", " 1", "07", "000000000000000000000001",
}

func TestParseIntDifferential(t *testing.T) {
	for _, c := range intCases {
		diffInt(t, c)
	}
}

// FuzzParseFloat proves the strconv equivalence on arbitrary input.
func FuzzParseFloat(f *testing.F) {
	for _, c := range floatCases {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, in string) { diffFloat(t, in) })
}

// FuzzParseInt proves the strconv equivalence on arbitrary input.
func FuzzParseInt(f *testing.F) {
	for _, c := range intCases {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, in string) { diffInt(t, in) })
}

// TestFastPathAllocs pins the hot path at zero allocations: the whole
// point of the package.
func TestFastPathAllocs(t *testing.T) {
	ts := []byte("1588888888.123")
	bytes := []byte("1583231")
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := ParseFloat(ts); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseInt(bytes); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("fast path allocates %v per line", n)
	}
}

func BenchmarkParseFloatBytes(b *testing.B) {
	b.ReportAllocs()
	in := []byte("1588888888.123")
	for i := 0; i < b.N; i++ {
		if _, err := ParseFloat(in); err != nil {
			b.Fatal(err)
		}
	}
}

// diffFixed3 asserts AppendFixed3 renders v exactly as strconv's
// explicit-precision 'f' does, onto a non-empty prefix.
func diffFixed3(t *testing.T, v float64) {
	t.Helper()
	got := string(AppendFixed3([]byte("x,"), v))
	want := string(strconv.AppendFloat([]byte("x,"), v, 'f', 3, 64))
	if got != want {
		t.Fatalf("AppendFixed3(%v = %#x) = %q, strconv = %q", v, math.Float64bits(v), got, want)
	}
}

var fixed3Cases = []float64{
	// Exact binary ties at the fourth decimal: round half to even.
	0.0625, 0.1875, 0.0005, 0.5, 0.4375, 999.9995, 2.0625, 1023.9375, 4398046511103.9375,
	// Carries out of the fraction and across digit counts.
	0.9995, 0.99951, 9.9996, 99.9999, 999.9994999999999, 0.0004999999999999999, 0.00050000000000000001,
	// Timestamp-shaped values.
	1588888888.123, 1700000000.9995, 12.345, 3600, 1, 1e-3, 1e-9, 123456.7895,
	// The 2^43 edge: the last fast-path value, the first fallback ones.
	math.Nextafter(1<<43, 0), 1 << 43, math.Nextafter(1<<43, math.Inf(1)), 1 << 52, 1 << 53, 1e22, math.MaxFloat64,
	// Smallest normal and a shift of 64 and beyond (rounds to 0.000).
	0x1p-1022, 0x1p-11, 0x1p-12, 0x1.fffffffffffffp-12, 0x1p-54, 0x1p-55,
	// Fallback classes: zero, subnormal, negative, non-finite.
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1023, -1.5, -0.0004, -1e-320,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestAppendFixed3MatchesStrconv(t *testing.T) {
	for _, v := range fixed3Cases {
		diffFixed3(t, v)
	}
	// Every millisecond tick around a carry, as sums and as literals.
	for i := 0; i < 4000; i++ {
		diffFixed3(t, float64(i)/1000)
		diffFixed3(t, 1588888887+float64(i)*0.0005)
	}
}

// FuzzAppendFixed3MatchesStrconv proves the strconv equivalence on
// arbitrary bit patterns.
func FuzzAppendFixed3MatchesStrconv(f *testing.F) {
	for _, v := range fixed3Cases {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) { diffFixed3(t, math.Float64frombits(bits)) })
}

func TestAppendFixed3Allocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(1000, func() { buf = AppendFixed3(buf[:0], 1588888888.123) }); n != 0 {
		t.Fatalf("AppendFixed3 allocates %v per call", n)
	}
}

func BenchmarkAppendFixed3(b *testing.B) {
	b.ReportAllocs()
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = AppendFixed3(buf[:0], 1588888888.123+float64(i&1023))
	}
}

func BenchmarkAppendFloatStrconv(b *testing.B) {
	b.ReportAllocs()
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = strconv.AppendFloat(buf[:0], 1588888888.123+float64(i&1023), 'f', 3, 64)
	}
}
