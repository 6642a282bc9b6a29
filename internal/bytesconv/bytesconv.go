// Package bytesconv parses numbers directly from byte slices without
// the string conversion strconv requires. The ingest hot path reads log
// lines into reused buffers (bufio.ReadSlice); converting each numeric
// field to a string just to call strconv.ParseFloat would allocate once
// per field per line, which at millions of lines per second is the
// difference between a parser that keeps up with the NIC and one that
// keeps the garbage collector busy (the paper's premise — coarse logs
// are cheap to process at ISP scale — only holds if the processing is).
//
// Both parsers take a fast path that is bit-identical to strconv for
// plain decimal inputs — the only shapes Squid logs and flow CSVs ever
// carry — and fall back to strconv itself (paying the one string
// allocation) for anything exotic: exponents, hex floats, inf/NaN,
// underscores, or mantissas too long for exact float conversion. The
// fallback keeps the contract simple: ParseFloat and ParseInt return
// exactly what strconv.ParseFloat(string(b), 64) and
// strconv.ParseInt(string(b), 10, 64) would, on every input, proven by
// differential fuzzing.
//
// AppendFixed3 is the same bargain in the other direction: the sinks
// render two "%.3f" timestamps per record, and an integer fast path
// replaces strconv's arbitrary-precision decimal for the values
// timestamps actually take, byte for byte.
package bytesconv

import (
	"math"
	"strconv"
)

// pow10 holds the powers of ten exactly representable as float64;
// dividing an exact integer mantissa by one of these is a single
// correctly-rounded operation (Clinger's fast path, the same shortcut
// strconv takes for short decimals).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// exactMantissaMax is 2^53: integer mantissas below it convert to
// float64 without rounding, the precondition for the exact fast path.
const exactMantissaMax = 1 << 53

// ParseFloat parses b as a 64-bit float, returning exactly what
// strconv.ParseFloat(string(b), 64) would. Plain decimals — optional
// sign, digits, one optional dot — convert without allocating; anything
// else falls back to strconv.
func ParseFloat(b []byte) (float64, error) {
	if f, ok := parseFloatFast(b); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseFloatFast handles [+-]?digits[.digits?] and [+-]?.digits with a
// mantissa small enough for exact conversion. ok reports whether the
// fast path applied; callers must fall back to strconv otherwise.
func parseFloatFast(b []byte) (float64, bool) {
	i, n := 0, len(b)
	if n == 0 {
		return 0, false
	}
	neg := false
	switch b[0] {
	case '+':
		i++
	case '-':
		neg = true
		i++
	}
	var mant uint64
	digits, nfrac := 0, 0
	sawDot := false
	for ; i < n; i++ {
		c := b[i]
		switch {
		case c >= '0' && c <= '9':
			mant = mant*10 + uint64(c-'0')
			if mant >= exactMantissaMax {
				// Past 2^53 float64(mant) rounds (and the next multiply
				// could overflow uint64); let strconv do correct rounding.
				return 0, false
			}
			digits++
			if sawDot {
				nfrac++
			}
		case c == '.':
			if sawDot {
				return 0, false
			}
			sawDot = true
		default:
			return 0, false
		}
	}
	if digits == 0 || nfrac >= len(pow10) {
		return 0, false
	}
	f := float64(mant)
	if nfrac > 0 {
		f /= pow10[nfrac]
	}
	if neg {
		f = -f
	}
	return f, true
}

// ParseInt parses b as a base-10 64-bit integer, returning exactly what
// strconv.ParseInt(string(b), 10, 64) would. Signed decimals up to 18
// digits convert without allocating; longer or irregular inputs fall
// back to strconv (which also produces the exact overflow behavior).
func ParseInt(b []byte) (int64, error) {
	i, n := 0, len(b)
	if n == 0 {
		return strconv.ParseInt("", 10, 64)
	}
	neg := false
	switch b[0] {
	case '+':
		i++
	case '-':
		neg = true
		i++
	}
	// 18 digits can never overflow int64 (max 999999999999999999);
	// anything longer takes the slow path for exact overflow semantics.
	if digits := n - i; digits == 0 || digits > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for ; i < n; i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, nil
}

// fixed3Limit is 2^43: below it v*1000 rounds to an integer under 2^53,
// so the whole conversion stays in uint64 arithmetic.
const fixed3Limit = 1 << 43

// AppendFixed3 appends v in fixed-point notation with three fractional
// digits, returning exactly what strconv.AppendFloat(dst, v, 'f', 3, 64)
// would. strconv renders explicit-precision 'f' through its
// arbitrary-precision decimal; for the positive normal values below
// 2^43 that timestamps and offsets are, the same digits fall out of
// integer arithmetic: v is mant·2^-sh exactly, so v·1000 rounded
// half-to-even is (mant·1000) >> sh with the shifted-out bits deciding
// the round. Everything else — zero, subnormals, negatives, NaN, ±Inf,
// values of 2^43 and up — takes strconv itself.
func AppendFixed3(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp := int(bits >> 52) // sign bit included: negatives fail the range test
	if exp == 0 || exp >= 1023+43 {
		return strconv.AppendFloat(dst, v, 'f', 3, 64)
	}
	// v = mant * 2^(exp-1075) with mant in [2^52, 2^53); v < 2^43 makes
	// the shift at least 10, and mant*1000 < 2^63 cannot overflow.
	p := (bits&(1<<52-1) | 1<<52) * 1000
	var n uint64
	if sh := uint(1075 - exp); sh < 64 {
		n = p >> sh
		rem, half := p&(1<<sh-1), uint64(1)<<(sh-1)
		if rem > half || (rem == half && n&1 == 1) {
			n++
		}
	} // else v*1000 < 1/2: rounds to zero
	dst = strconv.AppendUint(dst, n/1000, 10)
	frac := n % 1000
	return append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
