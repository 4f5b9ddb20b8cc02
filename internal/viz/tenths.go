package viz

import (
	"math"
	"strconv"
)

// AppendTenths appends x with one decimal, byte for byte what fmt's
// %.1f prints: the exact binary value of x rounded to tenths, ties to
// even, with the sign of a negative x kept even when it rounds to zero
// ("-0.0"). fmt gets there through strconv's arbitrary-precision
// decimal conversion, which dominates an SVG made of coordinates; this
// rounds in integers instead.
//
// t = ⌊10|x|⌋ is taken from the rounded product, and whether to round
// up from the sign of 20|x| − (2t+1), computed exactly by one FMA:
// positive above the tie, zero on it. The product can round up onto
// the next integer, making t one too high, but then the exact value
// lies within half an ulp of t, far above the tie below it, so t is
// the answer all the same. 2t+1 must be exact, below 2^53, which
// |x| < 1e14 keeps with room to spare; at 1e15 it is not (6.44e14
// prints wrong). Larger magnitudes, NaN and ±Inf take strconv's path,
// which is fmt's.
func AppendTenths(b []byte, x float64) []byte {
	a := math.Abs(x)
	if !(a < 1e14) {
		return strconv.AppendFloat(b, x, 'f', 1, 64)
	}
	t := math.Floor(a * 10)
	u := uint64(t)
	if r := math.FMA(a, 20, -(2*t + 1)); r > 0 || r == 0 && u&1 == 1 {
		u++
	}
	if math.Signbit(x) {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, u/10, 10)
	return append(b, '.', byte('0'+u%10))
}

// appendAttr appends ` name="x"` with x in tenths.
func appendAttr(b []byte, name string, x float64) []byte {
	b = append(b, ' ')
	b = append(b, name...)
	b = append(b, '=', '"')
	b = AppendTenths(b, x)
	return append(b, '"')
}

// appendPoint appends one "x,y" coordinate pair in tenths.
func appendPoint(b []byte, x, y float64) []byte {
	b = AppendTenths(b, x)
	b = append(b, ',')
	return AppendTenths(b, y)
}
