// Package jsonenc appends JSON scalars byte for byte as encoding/json
// renders them, without reflection: the one float printer and string
// quoter behind the query encoder (internal/api) and the TTN uplink
// document (internal/ttn).
package jsonenc

import (
	"encoding/json"
	"fmt"
	"math"
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
// r with a point three from the right, trailing zeros cut. Everything
// else (−0, which prints its sign; values under 1e-3, whose digits sit
// further right) goes through strconv.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("unsupported value: %v", f)
	}
	abs := math.Abs(f)
	if r := math.Round(abs * 1000); r < 1e15 && r/1000 == abs && (abs >= 1e-3 || (f == 0 && !math.Signbit(f))) {
		if f < 0 {
			b = append(b, '-')
		}
		u := uint64(r)
		b = strconv.AppendUint(b, u/1000, 10)
		if frac := u % 1000; frac != 0 {
			b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
			for b[len(b)-1] == '0' {
				b = b[:len(b)-1]
			}
		}
		return b, nil
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
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
