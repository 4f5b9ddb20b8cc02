package jsonenc

// The printers against the references they claim to match. Run
//
//	go test -fuzz FuzzAppendFloat ./internal/jsonenc
//
// to search for a float the exact-decimal fast path prints differently
// from strconv's shortest form or encoding/json; the seed corpus runs
// in every plain `go test`.

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1e-3, -1e-3, 999999999999.999, -999999999999.999,
		1e15 / 1000, math.Nextafter(1e12, 0), math.Nextafter(1e12, 2e12),
		0.1 + 0.2, 1e21, math.Nextafter(1e21, 0), 1e-6, math.Nextafter(1e-6, 0), 1e-7,
		5e-324, 2.2250738585072009e-308, // subnormals
		412.5, -17.25, 400, 435.875, 17.3, 0.0005, 0.0015, 0.001 + 1e-19,
		8.41e21, 123456789012.345, 1234567890123.456, 4503599627370.496, 4503599627370.497,
		math.MaxFloat64, math.NaN(), math.Inf(1),
	} {
		f.Add(math.Float64bits(v))
	}
	// Where the digit-pair path changes the number of integer or
	// fraction digits it writes.
	for _, v := range []float64{9.999, 10, 99.999, 100, 999.999, 1000, 9999.999, 10000, 99999.999, 999999999999.999} {
		f.Add(math.Float64bits(v))
		f.Add(math.Float64bits(-v))
	}
	f.Add(math.Float64bits(0.001))
	f.Add(math.Float64bits(0.01))
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		// A decimal reading near the fuzzed value: what the fast path
		// exists for, and what raw bit patterns almost never are.
		for _, v := range []float64{v, math.Round(v*1000) / 1000, math.Round(v*100) / 100} {
			got, err := AppendFloat([]byte("x"), v)
			want, jerr := json.Marshal(v)
			if (err != nil) != (jerr != nil) {
				t.Fatalf("%v (%#x): error %v, encoding/json %v", v, bits, err, jerr)
			}
			if err != nil {
				continue
			}
			if string(got[1:]) != string(want) {
				t.Fatalf("%v (%#x): %q, encoding/json renders %q", v, math.Float64bits(v), got[1:], want)
			}
			if string(got[1:]) != string(strconvJSONFloat(v)) {
				t.Fatalf("%v (%#x): %q, strconv renders %q", v, math.Float64bits(v), got[1:], strconvJSONFloat(v))
			}
			if back, err := strconv.ParseFloat(string(got[1:]), 64); err != nil || math.Float64bits(back) != math.Float64bits(v) {
				t.Fatalf("%v (%#x): %q parses back as %v (%v)", v, math.Float64bits(v), got[1:], back, err)
			}
		}
	})
}

// strconvJSONFloat is the encoder before its fast path: strconv's
// shortest digits, 'e' outside [1e-6, 1e21) with the exponent's leading
// zero trimmed.
func strconvJSONFloat(f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(nil, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func TestAppendString(t *testing.T) {
	for _, s := range []string{"", "ctt-node-07", "gw-01", `we"ird<&>\`, "\x01é ", "\u2028\u2029", "\xff\xfe", "tab\there"} {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("x"), s); string(got[1:]) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json renders %s", s, got[1:], want)
		}
	}
}
