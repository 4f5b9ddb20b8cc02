// Package emissions models the "true" urban pollutant field that the
// low-cost sensor network observes. The paper's analyses — calibration
// against official stations, CO2-vs-traffic dynamics (Fig. 5), and the
// demo's synthetic pollution-injection scenarios — all need an
// underlying field with realistic structure:
//
//   - a traffic source term taken from the traffic simulator,
//   - a residential/commercial heating term that grows as temperature
//     falls (a major CO2/PM confounder in Nordic cities),
//   - optional industrial point sources with Gaussian-plume–style
//     downwind spread,
//   - a regional background with seasonal and synoptic variation,
//   - wind- and stability-dependent dilution (low wind + shallow
//     nocturnal mixing concentrates pollution; the classic reason
//     morning rush hour is dirtier than the evening one).
//
// Concentrations: CO2 in ppm; NO2, PM10, PM2.5 in µg/m³.
package emissions

import (
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/traffic"
	"repro/internal/weather"
)

// Species enumerates the pollutants the CTT sensor units measure.
type Species int

const (
	// CO2 in parts per million.
	CO2 Species = iota
	// NO2 in µg/m³.
	NO2
	// PM10 in µg/m³.
	PM10
	// PM25 is PM2.5 in µg/m³.
	PM25

	numSpecies
)

// AllSpecies lists every modeled pollutant.
var AllSpecies = []Species{CO2, NO2, PM10, PM25}

// String returns the conventional label.
func (s Species) String() string {
	switch s {
	case CO2:
		return "co2"
	case NO2:
		return "no2"
	case PM10:
		return "pm10"
	case PM25:
		return "pm25"
	default:
		return "unknown"
	}
}

// Unit returns the measurement unit for the species.
func (s Species) Unit() string {
	if s == CO2 {
		return "ppm"
	}
	return "ug/m3"
}

// PointSource is an industrial emitter (factory, harbor, construction
// site) with a fixed location and per-species emission strengths.
// The demo scenario in the paper injects synthetic pollution this way.
type PointSource struct {
	ID       string
	Pos      geo.LatLon
	Strength map[Species]float64 // concentration contribution at 100 m downwind, neutral conditions
	Active   func(t time.Time) bool
}

// Field computes ground-truth concentrations anywhere in the pilot city.
type Field struct {
	Weather *weather.Model
	Traffic *traffic.Network
	Sources []PointSource

	// TrafficRadius is how far (meters) road segments contribute to a
	// receptor point. Default 800 m.
	TrafficRadius float64
	// Background levels per species.
	Background map[Species]float64
}

// NewField assembles the truth field from its drivers.
func NewField(w *weather.Model, tr *traffic.Network) *Field {
	return &Field{
		Weather:       w,
		Traffic:       tr,
		TrafficRadius: 800,
		Background: map[Species]float64{
			CO2:  405, // global background, ppm (2017)
			NO2:  8,
			PM10: 10,
			PM25: 6,
		},
	}
}

// AddSource registers an industrial/synthetic point source.
func (f *Field) AddSource(s PointSource) { f.Sources = append(f.Sources, s) }

// dilution returns a unitless dilution divisor at time t under the
// weather c there. Strong wind and a deep daytime mixing layer dilute;
// calm, stable nights (and especially cold winter inversions)
// concentrate.
func (f *Field) dilution(c weather.Conditions, t time.Time) float64 {
	// Mixing-layer proxy: solar elevation drives convective mixing.
	sun := weather.SunAt(f.Weather.Lat, f.Weather.Lon, t)
	mix := 0.45 + 0.8*math.Max(0, math.Sin(sun.Elevation*math.Pi/180))
	wind := 0.5 + c.WindSpeedMS/3.5
	return mix * wind
}

// heatingDemand returns a unitless heating intensity based on how far
// the temperature is below the 15°C heating threshold.
func heatingDemand(c weather.Conditions) float64 {
	return math.Max(0, 15-c.TemperatureC) / 15
}

// drivers are the terms of the field that every species shares at one
// time and place.
type drivers struct {
	c    weather.Conditions
	dil  float64 // dilution divisor
	heat float64 // heating demand
	flow float64 // traffic flow within TrafficRadius, vph
}

// driversAt evaluates the shared terms at t, given the local traffic
// flow (ignored without a traffic network).
func (f *Field) driversAt(t time.Time, flow float64) drivers {
	c := f.Weather.At(t)
	return drivers{c: c, dil: f.dilution(c, t), heat: heatingDemand(c), flow: flow}
}

// Concentration returns the true concentration of a species at point p
// and time t.
func (f *Field) Concentration(sp Species, p geo.LatLon, t time.Time) float64 {
	var flow float64
	if f.Traffic != nil {
		flow = f.Traffic.FlowNear(p, f.TrafficRadius, t)
	}
	d := f.driversAt(t, flow)
	return f.concentration(sp, p, t, &d)
}

// concentration combines the shared terms d at p and t into one
// species' concentration.
func (f *Field) concentration(sp Species, p geo.LatLon, t time.Time, d *drivers) float64 {
	bg := f.backgroundAt(sp, t)

	// Traffic term: local flow within TrafficRadius, per-species factor.
	var trafficTerm float64
	if f.Traffic != nil {
		trafficTerm = d.flow * trafficFactor(sp) / d.dil
	}

	// Heating term (area source, weakly spatial).
	heating := d.heat * heatingFactor(sp) / d.dil

	// Point sources: Gaussian-plume–flavoured downwind kernel.
	var point float64
	for _, src := range f.Sources {
		if src.Active != nil && !src.Active(t) {
			continue
		}
		strength, ok := src.Strength[sp]
		if !ok || strength == 0 {
			continue
		}
		point += plumeKernel(src.Pos, p, d.c.WindDirDeg, d.c.WindSpeedMS) * strength
	}

	return bg + trafficTerm + heating + point
}

// Levels holds one concentration per species, indexed by Species.
type Levels [numSpecies]float64

// Receptor is a fixed point of the field, such as a sensor's position.
// The road segments within TrafficRadius of it are found once, when it
// is built (road geometry is fixed once a network is built); the terms
// that change with time — weather, demand, closures, incidents, point
// sources — are evaluated at every call.
type Receptor struct {
	f      *Field
	pos    geo.LatLon
	tr     *traffic.Network // the network and radius near was found for
	radius float64
	near   []int
}

// Receptor returns the receptor at p.
func (f *Field) Receptor(p geo.LatLon) *Receptor {
	r := &Receptor{f: f, pos: p}
	r.segments()
	return r
}

// segments returns the indices of the segments near the receptor,
// found again only if the field's network or radius was replaced.
func (r *Receptor) segments() []int {
	if r.tr != r.f.Traffic || r.radius != r.f.TrafficRadius {
		r.tr, r.radius, r.near = r.f.Traffic, r.f.TrafficRadius, nil
		if r.tr != nil {
			r.near = r.tr.Near(r.pos, r.radius)
		}
	}
	return r.near
}

// At returns every species' concentration at the receptor at time t,
// from one evaluation of the terms the species share, and the weather
// the field evaluated there. Each level is bit-identical to
// Field.Concentration at the receptor's position.
func (r *Receptor) At(t time.Time) (Levels, weather.Conditions) {
	f := r.f
	var flow float64
	if f.Traffic != nil {
		flow = f.Traffic.FlowOver(r.segments(), t)
	}
	d := f.driversAt(t, flow)
	var lv Levels
	for sp := range lv {
		lv[sp] = f.concentration(Species(sp), r.pos, t, &d)
	}
	return lv, d.c
}

// backgroundAt gives the regional background with a gentle seasonal
// cycle (CO2 peaks in late northern winter before spring drawdown).
func (f *Field) backgroundAt(sp Species, t time.Time) float64 {
	base := f.Background[sp]
	doy := float64(t.YearDay())
	switch sp {
	case CO2:
		return base + 4*math.Cos(2*math.Pi*(doy-105)/365.25)
	case PM10, PM25:
		// Spring road-dust season bump typical of studded-tyre cities.
		return base * (1 + 0.3*math.Exp(-0.5*math.Pow((doy-95)/25, 2)))
	default:
		return base
	}
}

// trafficFactor converts local vehicle flow (vph) into concentration.
func trafficFactor(sp Species) float64 {
	switch sp {
	case CO2:
		return 0.004 // ppm per vph
	case NO2:
		return 0.004
	case PM10:
		return 0.0018
	case PM25:
		return 0.0009
	default:
		return 0
	}
}

// heatingFactor converts heating demand into concentration.
func heatingFactor(sp Species) float64 {
	switch sp {
	case CO2:
		return 28 // ppm at full demand, neutral dilution
	case NO2:
		return 5
	case PM10:
		return 9 // wood stoves
	case PM25:
		return 8
	default:
		return 0
	}
}

// plumeKernel returns the unitless downwind dispersion weight of a
// source at a receptor: 1 at the 100 m reference distance directly
// downwind, decaying with distance and crosswind offset, scaled down by
// wind speed (more wind, more dilution along the plume).
func plumeKernel(src, receptor geo.LatLon, windFromDeg, windSpeed float64) float64 {
	d := geo.Distance(src, receptor)
	if d < 1 {
		d = 1
	}
	if d > 20000 {
		return 0
	}
	// Direction the plume travels = direction wind blows TO.
	plumeDir := math.Mod(windFromDeg+180, 360)
	brg := geo.Bearing(src, receptor)
	// Angular offset between plume axis and receptor bearing.
	off := math.Abs(math.Mod(brg-plumeDir+540, 360) - 180)
	// Along-wind decay ~1/d; crosswind Gaussian with ~20° sigma.
	along := 100 / d
	cross := math.Exp(-0.5 * math.Pow(off/20, 2))
	speed := 1 / (0.5 + windSpeed/2)
	return along * cross * speed
}
