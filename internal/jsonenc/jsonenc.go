// Package jsonenc appends JSON scalars byte for byte as encoding/json
// renders them, without reflection: the one float printer and string
// quoter behind the query encoder (internal/api) and the TTN uplink
// document (internal/ttn).
package jsonenc

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// AppendString appends s as encoding/json renders a string. Series
// names, device IDs and gateway IDs are plain ASCII, which is quoted
// as is; anything that needs escaping takes the library's path.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendFloat appends a float the way encoding/json renders float64
// values (shortest round-trip digits in 'f' format, switching to
// exponent form outside [1e-6, 1e21) and trimming the two-digit
// exponent's leading zero), so hand-built documents stay
// byte-compatible with reflective marshaling. NaN and ±Inf are an
// error, as they are to encoding/json.
//
// Sensor readings are decimals of at most three places, and for those
// the shortest form needs no search: when f is exactly the double
// nearest r/1000 for an integer r below 1e15, the at most 15
// significant digits of r/1000 are the only decimal that short to
// round-trip to f, hence what strconv's shortest formatter prints —
// r with a point three from the right, trailing zeros cut. Those
// digits are written here, two per read of the digit-pair table,
// straight into b's spare capacity. Everything else (−0, which prints
// its sign; values under 1e-3, whose digits sit further right;
// non-decimal values) goes through strconv.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	abs := math.Abs(f)
	r := math.Round(abs * 1000)
	if !(r < 1e15 && r/1000 == abs && (abs >= 1e-3 || (f == 0 && !math.Signbit(f)))) {
		return appendShortest(b, f)
	}
	u := uint64(r)
	q, frac := u/1000, u%1000
	w := 1 // integer digits; q is below 1e12
	for p := uint64(10); q >= p; p *= 10 {
		w++
	}
	fw := 0 // "", ".d", ".dd" or ".ddd": frac without trailing zeros
	if frac != 0 {
		fw = 4
		if frac%100 == 0 {
			fw = 2
		} else if frac%10 == 0 {
			fw = 3
		}
	}
	if f < 0 {
		b = append(b, '-')
	}
	n := len(b)
	b = slices.Grow(b, w+fw)[:n+w+fw]
	d := b[n:]
	switch fw {
	case 2:
		d[w], d[w+1] = '.', byte('0'+frac/100)
	case 3:
		d[w] = '.'
		*(*[2]byte)(d[w+1:]) = digitPairs[frac/10]
	case 4:
		d[w], d[w+1] = '.', byte('0'+frac/100)
		*(*[2]byte)(d[w+2:]) = digitPairs[frac%100]
	}
	for q >= 100 {
		w -= 2
		*(*[2]byte)(d[w:]) = digitPairs[q%100]
		q /= 100
	}
	if q >= 10 {
		*(*[2]byte)(d[w-2:]) = digitPairs[q]
	} else {
		d[w-1] = byte('0' + q)
	}
	return b, nil
}

// appendShortest is AppendFloat outside the exact-decimal path:
// strconv's shortest digits, in exponent form outside [1e-6, 1e21).
func appendShortest(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// digitPairs holds the two decimal digits of 0 through 99.
var digitPairs = func() (t [100][2]byte) {
	for i := range t {
		t[i] = [2]byte{byte('0' + i/10), byte('0' + i%10)}
	}
	return t
}()

// PutDigits8 writes v, which must be below 1e8, as exactly eight
// decimal digits, zero-padded, from the digit-pair table AppendFloat
// reads. It inlines: the query encoder writes the low digits of every
// timestamp key with it.
func PutDigits8(d *[8]byte, v uint32) {
	hi, lo := v/10000, v%10000
	*(*[2]byte)(d[0:]) = digitPairs[hi/100%100]
	*(*[2]byte)(d[2:]) = digitPairs[hi%100]
	*(*[2]byte)(d[4:]) = digitPairs[lo/100]
	*(*[2]byte)(d[6:]) = digitPairs[lo%100]
}
