package emissions

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/traffic"
	"repro/internal/weather"
)

var center = geo.LatLon{Lat: 63.4305, Lon: 10.3951}

func testField(t *testing.T) *Field {
	t.Helper()
	w := weather.NewModel(center.Lat, center.Lon, 1)
	tr := traffic.NewNetwork(traffic.GenerateGridNetwork(center, 3000, 1), 1)
	return NewField(w, tr)
}

func at(mo time.Month, d, h int) time.Time {
	return time.Date(2017, mo, d, h, 0, 0, 0, time.UTC)
}

func TestSpeciesStrings(t *testing.T) {
	cases := map[Species][2]string{
		CO2:  {"co2", "ppm"},
		NO2:  {"no2", "ug/m3"},
		PM10: {"pm10", "ug/m3"},
		PM25: {"pm25", "ug/m3"},
	}
	for sp, want := range cases {
		if sp.String() != want[0] || sp.Unit() != want[1] {
			t.Errorf("%v: got (%s,%s) want %v", sp, sp.String(), sp.Unit(), want)
		}
	}
	if Species(42).String() != "unknown" {
		t.Error("unknown species should say so")
	}
}

func TestConcentrationAboveBackground(t *testing.T) {
	f := testField(t)
	for _, sp := range AllSpecies {
		c := f.Concentration(sp, center, at(time.March, 7, 8))
		if c <= f.Background[sp]*0.8 {
			t.Errorf("%v concentration %v below background %v", sp, c, f.Background[sp])
		}
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Errorf("%v concentration not finite: %v", sp, c)
		}
	}
}

func TestWeekdayRushElevatesCO2OverWeekend(t *testing.T) {
	// Note: comparing 08:00 against 03:00 does NOT show higher CO2 at
	// rush hour here, because the shallow nocturnal mixing layer
	// concentrates pollution at night — exactly the confounding the
	// paper reports in Fig. 5 ("traffic is not the only factor").
	// To isolate the traffic term we compare the same hour of day
	// (same dilution in expectation) across weekdays vs weekends.
	f := testField(t)
	var weekday, weekend float64
	var nWD, nWE int
	// Average over all of March at the morning rush hours to drown the
	// synoptic weather noise that moves any single day by ±10 ppm.
	for d := 1; d <= 31; d++ {
		for _, h := range []int{7, 8, 9} {
			ts := at(time.March, d, h)
			c := f.Concentration(CO2, center, ts)
			if wd := ts.Weekday(); wd == time.Saturday || wd == time.Sunday {
				weekend += c
				nWE++
			} else {
				weekday += c
				nWD++
			}
		}
	}
	if weekday/float64(nWD) <= weekend/float64(nWE) {
		t.Fatalf("weekday morning CO2 %v not above weekend %v", weekday/float64(nWD), weekend/float64(nWE))
	}
}

func TestWinterAboveSummerCO2(t *testing.T) {
	// Heating demand should push winter CO2 above summer at same hour.
	f := testField(t)
	var winter, summer float64
	for d := 1; d <= 20; d++ {
		winter += f.Concentration(CO2, center, at(time.January, d, 12))
		summer += f.Concentration(CO2, center, at(time.July, d, 12))
	}
	if winter <= summer {
		t.Fatalf("winter CO2 %v not above summer %v", winter/20, summer/20)
	}
}

func TestCityCenterDirtierThanOutskirts(t *testing.T) {
	f := testField(t)
	far := geo.Destination(center, 45, 15000)
	var c0, c1 float64
	for d := 6; d <= 10; d++ {
		c0 += f.Concentration(NO2, center, at(time.March, d, 8))
		c1 += f.Concentration(NO2, far, at(time.March, d, 8))
	}
	if c0 <= c1 {
		t.Fatalf("center NO2 %v not above outskirts %v", c0/5, c1/5)
	}
}

func TestPointSourceDownwind(t *testing.T) {
	f := testField(t)
	src := PointSource{
		ID:       "factory",
		Pos:      geo.Destination(center, 270, 2000), // 2 km west
		Strength: map[Species]float64{PM10: 120},
	}
	f.AddSource(src)
	// Find an instant where wind blows roughly from the west (225-315).
	var when time.Time
	for h := 0; h < 24*30; h++ {
		ts := at(time.March, 1, 0).Add(time.Duration(h) * time.Hour)
		dir := f.Weather.At(ts).WindDirDeg
		if dir > 240 && dir < 300 {
			when = ts
			break
		}
	}
	if when.IsZero() {
		t.Skip("no westerly wind found in a month of simulation")
	}
	downwind := f.Concentration(PM10, geo.Destination(src.Pos, 90, 300), when) // east of source
	upwind := f.Concentration(PM10, geo.Destination(src.Pos, 270, 300), when)  // west of source
	if downwind <= upwind {
		t.Fatalf("downwind PM10 %v not above upwind %v", downwind, upwind)
	}
}

func TestPointSourceActiveWindow(t *testing.T) {
	f := testField(t)
	on := at(time.March, 7, 12)
	off := at(time.March, 8, 12)
	f.AddSource(PointSource{
		ID:       "burst",
		Pos:      center,
		Strength: map[Species]float64{NO2: 500},
		Active:   func(ts time.Time) bool { return ts.Day() == 7 },
	})
	// The plume only reaches receptors downwind; probe a ring around
	// the source and compare the maximum enhancement.
	maxAt := func(ts time.Time) float64 {
		var best float64
		for brg := 0.0; brg < 360; brg += 30 {
			p := geo.Destination(center, brg, 120)
			if c := f.Concentration(NO2, p, ts); c > best {
				best = c
			}
		}
		return best
	}
	cOn := maxAt(on)
	cOff := maxAt(off)
	if cOn <= cOff+5 {
		t.Fatalf("active source should raise downwind NO2: on=%v off=%v", cOn, cOff)
	}
}

func TestPlumeKernelGeometry(t *testing.T) {
	src := center
	// Wind from north (0) → plume travels south (180).
	south := geo.Destination(src, 180, 500)
	north := geo.Destination(src, 0, 500)
	kS := plumeKernel(src, south, 0, 3)
	kN := plumeKernel(src, north, 0, 3)
	if kS <= kN {
		t.Fatalf("downwind kernel %v not above upwind %v", kS, kN)
	}
	// Decays with distance.
	farther := geo.Destination(src, 180, 2000)
	if plumeKernel(src, farther, 0, 3) >= kS {
		t.Fatal("kernel should decay with distance")
	}
	// More wind → more dilution.
	if plumeKernel(src, south, 0, 10) >= kS {
		t.Fatal("kernel should shrink with wind speed")
	}
	// Beyond cutoff.
	if plumeKernel(src, geo.Destination(src, 180, 30000), 0, 3) != 0 {
		t.Fatal("kernel should be zero beyond cutoff")
	}
}

func TestNocturnalInversionConcentrates(t *testing.T) {
	// Same traffic flow should yield higher concentration under the
	// shallow nocturnal mixing layer than under daytime convection.
	f := testField(t)
	dilution := func(ts time.Time) float64 { return f.dilution(f.Weather.At(ts), ts) }
	day := dilution(at(time.June, 15, 12))
	night := dilution(at(time.June, 15, 0))
	if night >= day {
		t.Fatalf("night dilution %v should be below day %v", night, day)
	}
}

func TestDeterministicField(t *testing.T) {
	f1 := testField(t)
	f2 := testField(t)
	ts := at(time.April, 2, 9)
	if f1.Concentration(CO2, center, ts) != f2.Concentration(CO2, center, ts) {
		t.Fatal("field should be deterministic")
	}
}

func TestFieldWithoutTraffic(t *testing.T) {
	w := weather.NewModel(center.Lat, center.Lon, 2)
	f := NewField(w, nil)
	c := f.Concentration(CO2, center, at(time.March, 7, 8))
	if c < 380 || c > 480 {
		t.Fatalf("no-traffic CO2 %v outside plausible range", c)
	}
}
