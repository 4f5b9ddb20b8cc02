package viz

import (
	"fmt"
	"math"
	"testing"
)

// FuzzAppendTenths holds the integer formatter to fmt's %.1f, which
// rounds the exact binary value half to even: any float, and the
// nearby values a chart coordinate is made of (ties at x.x5, values
// one ulp around a tie, the bound where the formatter hands over to
// strconv), must print the same bytes.
func FuzzAppendTenths(f *testing.F) {
	for _, v := range []float64{
		0.05, 0.25, 0.35, -0.04, 0.15, 0.45, 0.75, 2.5, -2.25, 1.05, 9.95, 9.96, 99.95,
		50.25, 50.75, 306.25, -306.75,
		math.Copysign(0, -1), 0, 5e-324, 2.2250738585072009e-308,
		1e14, math.Nextafter(1e14, 0), math.Nextafter(1e14, 2e14),
		-1e14, math.Nextafter(-1e14, 0), math.Nextafter(-1e14, -2e14),
		-8.96e14, 4503599627370495.5, 1e15, 1e300,
		// Past 1e14, 2t+1 is no longer exact in the tie test.
		math.Float64frombits(0x43024f214fe102cd), math.Float64frombits(0xc2fc13d0341013a3),
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		tie := (math.Floor(v*10) + 0.5) / 10
		for _, v := range []float64{v, tie, math.Nextafter(tie, math.Inf(1)), math.Nextafter(tie, math.Inf(-1)), v / 1024, math.Round(v*4) / 4} {
			got := AppendTenths([]byte("x"), v)
			if want := fmt.Sprintf("%.1f", v); string(got[1:]) != want {
				t.Fatalf("%v (%#x): %q, fmt renders %q", v, math.Float64bits(v), got[1:], want)
			}
		}
	})
}
