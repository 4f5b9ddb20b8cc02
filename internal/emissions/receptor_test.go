package emissions

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/traffic"
	"repro/internal/weather"
)

// referenceConcentration is the field's arithmetic as it stood before
// receptors and shared drivers: every term evaluates the weather
// itself, and the traffic term scans every segment, recomputing its
// midpoint and looking it up by ID. The receptor path must reproduce
// it bit for bit.
func referenceConcentration(f *Field, sp Species, p geo.LatLon, t time.Time) float64 {
	bg := f.backgroundAt(sp, t)
	c := f.Weather.At(t)
	sun := weather.SunAt(f.Weather.Lat, f.Weather.Lon, t)
	mix := 0.45 + 0.8*math.Max(0, math.Sin(sun.Elevation*math.Pi/180))
	wind := 0.5 + c.WindSpeedMS/3.5
	dil := mix * wind

	var trafficTerm float64
	if f.Traffic != nil {
		var flow float64
		for _, s := range f.Traffic.Segments {
			if geo.Distance(s.Midpoint(), p) <= f.TrafficRadius {
				if obs, err := f.Traffic.At(s.ID, t); err == nil {
					flow += obs.FlowVPH
				}
			}
		}
		trafficTerm = flow * trafficFactor(sp) / dil
	}

	heat := math.Max(0, 15-f.Weather.At(t).TemperatureC) / 15
	heating := heat * heatingFactor(sp) / dil

	var point float64
	if len(f.Sources) > 0 {
		c := f.Weather.At(t)
		for _, src := range f.Sources {
			if src.Active != nil && !src.Active(t) {
				continue
			}
			strength, ok := src.Strength[sp]
			if !ok || strength == 0 {
				continue
			}
			point += plumeKernel(src.Pos, p, c.WindDirDeg, c.WindSpeedMS) * strength
		}
	}
	return bg + trafficTerm + heating + point
}

// checkReceptor holds one receptor to four Concentration calls and
// to the reference, and its segment set's flow to the full scan.
func checkReceptor(t *testing.T, f *Field, r *Receptor, at time.Time) {
	t.Helper()
	lv, c := r.At(at)
	if want := f.Weather.At(at); c != want {
		t.Fatalf("%v at %v: receptor weather %+v, model says %+v", r.pos, at, c, want)
	}
	for _, sp := range AllSpecies {
		conc := f.Concentration(sp, r.pos, at)
		ref := referenceConcentration(f, sp, r.pos, at)
		if math.Float64bits(lv[sp]) != math.Float64bits(conc) || math.Float64bits(conc) != math.Float64bits(ref) {
			t.Fatalf("%v at %v, %v: receptor %v, Concentration %v, reference %v", r.pos, at, sp, lv[sp], conc, ref)
		}
	}
	if f.Traffic == nil {
		return
	}
	var scan float64
	for _, s := range f.Traffic.Segments {
		if geo.Distance(s.Midpoint(), r.pos) <= f.TrafficRadius {
			obs, err := f.Traffic.At(s.ID, at)
			if err != nil {
				t.Fatal(err)
			}
			scan += obs.FlowVPH
		}
	}
	if got := f.Traffic.FlowOver(r.segments(), at); math.Float64bits(got) != math.Float64bits(scan) {
		t.Fatalf("%v at %v: receptor flow %v, full segment scan %v", r.pos, at, got, scan)
	}
}

// TestReceptorMatchesConcentration: the shared-driver path is
// bit-identical to four Concentration calls at random places and
// times, including what changes after a receptor is built — point
// sources, closures, incidents — and without a traffic network.
func TestReceptorMatchesConcentration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randPos := func() geo.LatLon { return geo.Destination(center, rng.Float64()*360, rng.Float64()*4000) }
	year := time.Date(2017, time.January, 1, 0, 0, 0, 0, time.UTC)
	randTime := func() time.Time { return year.Add(time.Duration(rng.Int63n(int64(365 * 24 * time.Hour)))) }

	f := testField(t)
	w := f.Weather
	bare := NewField(w, nil)
	var rs, bareRs []*Receptor
	for i := 0; i < 40; i++ {
		p := randPos()
		rs = append(rs, f.Receptor(p))
		bareRs = append(bareRs, bare.Receptor(p))
	}
	check := func(stage string) {
		t.Run(stage, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				at := randTime()
				checkReceptor(t, f, rs[i%len(rs)], at)
				checkReceptor(t, bare, bareRs[i%len(bareRs)], at)
			}
		})
	}
	near := 0
	for _, r := range rs {
		if len(r.segments()) > 0 {
			near++
		}
	}
	if near == 0 {
		t.Fatal("no receptor has a road segment in range; the traffic comparison is vacuous")
	}
	check("built")

	// Point sources after the receptors: one always on with every
	// species, one on in daytime with some species and a zero.
	for _, fld := range []*Field{f, bare} {
		fld.AddSource(PointSource{ID: "harbor", Pos: randPos(),
			Strength: map[Species]float64{CO2: 40, NO2: 12, PM10: 9, PM25: 5}})
		fld.AddSource(PointSource{ID: "site", Pos: randPos(),
			Strength: map[Species]float64{PM10: 30, PM25: 0, NO2: 2.5},
			Active:   func(t time.Time) bool { return t.Hour() >= 7 && t.Hour() < 17 }})
	}
	check("sources")

	// Closures and incidents the whole year, on segments near the
	// receptors, so the rerouting and capacity terms are live.
	for i, seg := range f.Traffic.Segments {
		switch i % 4 {
		case 0:
			f.Traffic.AddClosure(traffic.Closure{SegmentID: seg.ID, Start: year, End: year.AddDate(1, 0, 0)})
		case 1:
			f.Traffic.AddIncident(traffic.Incident{SegmentID: seg.ID, Start: year, End: year.AddDate(1, 0, 0), CapacityFactor: 0.4})
		}
	}
	check("closures")

	// A receptor whose field changes radius or loses its network after
	// the receptor was built finds its segments again.
	f.TrafficRadius = 1500
	check("radius")
	f.Traffic = nil
	check("no traffic")
}
