package sensors

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/emissions"
	"repro/internal/geo"
	"repro/internal/lorawan"
)

// FaultKind enumerates injectable sensor faults (§2.3: "decaying
// sensors, erroneous behavior of sensor nodes, or missing data
// patterns need specific analysis").
type FaultKind int

// Fault kinds.
const (
	// FaultNone: healthy node.
	FaultNone FaultKind = iota
	// FaultDead: the node never transmits after the fault starts.
	FaultDead
	// FaultStuck: the pollutant channels freeze at their last value.
	FaultStuck
	// FaultDropout: the node misses transmissions at random while the
	// fault window is active.
	FaultDropout
	// FaultDrift: accelerated calibration drift on CO2.
	FaultDrift
)

// Fault describes one injected failure window.
type Fault struct {
	Kind  FaultKind
	Start time.Time
	End   time.Time // zero means forever
	// DropProbability applies to FaultDropout.
	DropProbability float64
}

func (f Fault) active(t time.Time) bool {
	if f.Kind == FaultNone || t.Before(f.Start) {
		return false
	}
	return f.End.IsZero() || t.Before(f.End)
}

// Config sets up a sensor node.
type Config struct {
	ID      string
	DevAddr lorawan.DevAddr
	Pos     geo.LatLon
	// Interval is the base reporting interval (paper: 5 minutes).
	Interval time.Duration
	// LowBatteryPct is the threshold below which the node doubles its
	// interval to save energy.
	LowBatteryPct float64
	Seed          int64
}

// Node is a simulated sensor unit.
type Node struct {
	Config
	Battery *Battery

	field    *emissions.Field
	receptor *emissions.Receptor // the field at Pos
	rng      *rand.Rand

	// Per-unit miscalibration: measured = gain*truth + offset + noise.
	// These are what the co-location calibration (§2.4) estimates.
	gainCO2, offsetCO2 float64
	gainNO2, offsetNO2 float64
	gainPM, offsetPM   float64
	// driftPerDay adds slow baseline drift on CO2.
	driftPerDay float64
	epoch       time.Time

	faults []Fault

	fcnt      uint16
	lastTx    time.Time
	lastMeas  Measurement
	haveMeas  bool
	lastBatt  time.Time
	stuckMeas *Measurement
}

// NewNode creates a node sampling the given truth field and the
// weather that drives it.
func NewNode(cfg Config, field *emissions.Field) *Node {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Minute
	}
	if cfg.LowBatteryPct <= 0 {
		cfg.LowBatteryPct = 25
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.DevAddr)*31))
	n := &Node{
		Config:   cfg,
		Battery:  NewBattery(),
		field:    field,
		receptor: field.Receptor(cfg.Pos),
		rng:      rng,
		// Low-cost sensors: gain errors up to ±10%, offsets up to
		// ±25 ppm CO2 / ±3 µg/m³ — consistent with the paper's premise
		// that density compensates for per-unit inaccuracy.
		gainCO2:     1 + rng.NormFloat64()*0.05,
		offsetCO2:   rng.NormFloat64() * 12,
		gainNO2:     1 + rng.NormFloat64()*0.08,
		offsetNO2:   rng.NormFloat64() * 1.5,
		gainPM:      1 + rng.NormFloat64()*0.08,
		offsetPM:    rng.NormFloat64() * 1.2,
		driftPerDay: rng.NormFloat64() * 0.15, // ppm/day baseline drift
	}
	return n
}

// InjectFault schedules a failure window.
func (n *Node) InjectFault(f Fault) { n.faults = append(n.faults, f) }

// TrueCalibration exposes the node's actual CO2 gain and offset — used
// by tests and experiments to verify that the calibration analysis
// recovers them (never available to a real deployment).
func (n *Node) TrueCalibration() (gain, offset float64) { return n.gainCO2, n.offsetCO2 }

// interval returns the current reporting interval, stretched when the
// battery is low (adaptive frequency, §2.3).
func (n *Node) interval() time.Duration {
	if n.Battery.Percent() < n.LowBatteryPct {
		return 2 * n.Config.Interval
	}
	return n.Config.Interval
}

// Sample produces the node's (noisy, miscalibrated) measurement of the
// truth field at time t. It does not touch transmission state.
func (n *Node) Sample(t time.Time) Measurement {
	if n.epoch.IsZero() {
		n.epoch = t
	}
	// One evaluation of the drivers the species share.
	truth, w := n.receptor.At(t)
	days := t.Sub(n.epoch).Hours() / 24
	drift := n.driftPerDay * days
	for _, f := range n.faults {
		if f.Kind == FaultDrift && f.active(t) {
			drift += 2.0 * t.Sub(f.Start).Hours() / 24 // fast decay
		}
	}

	co2True := truth[emissions.CO2]
	no2True := truth[emissions.NO2]
	pm10True := truth[emissions.PM10]
	pm25True := truth[emissions.PM25]

	m := Measurement{
		Time:         t,
		CO2:          n.gainCO2*co2True + n.offsetCO2 + drift + n.rng.NormFloat64()*3,
		NO2:          math.Max(0, n.gainNO2*no2True+n.offsetNO2+n.rng.NormFloat64()*0.8),
		PM10:         math.Max(0, n.gainPM*pm10True+n.offsetPM+n.rng.NormFloat64()*0.8),
		PM25:         math.Max(0, n.gainPM*pm25True+n.offsetPM*0.7+n.rng.NormFloat64()*0.5),
		TemperatureC: w.TemperatureC + n.rng.NormFloat64()*0.3,
		HumidityPct:  math.Min(100, math.Max(0, w.HumidityPct+n.rng.NormFloat64()*2)),
		PressureHPa:  w.PressureHPa + n.rng.NormFloat64()*0.5,
		BatteryPct:   n.Battery.Percent(),
	}

	for _, f := range n.faults {
		if f.Kind == FaultStuck && f.active(t) {
			if n.stuckMeas == nil {
				frozen := m
				n.stuckMeas = &frozen
			}
			frozen := *n.stuckMeas
			frozen.Time = t
			frozen.BatteryPct = n.Battery.Percent()
			return frozen
		}
	}
	n.stuckMeas = nil
	return m
}

// Step advances the node to time t: charges/drains the battery and, if
// a report is due, samples and returns a LoRaWAN transmission. It
// returns nil when the node stays silent this tick (not due, battery
// empty, dead fault, or dropout).
func (n *Node) Step(t time.Time) *lorawan.Transmission {
	// Battery bookkeeping since the previous step.
	if !n.lastBatt.IsZero() && t.After(n.lastBatt) {
		irr := n.field.Weather.At(t).IrradianceWM2
		n.Battery.Advance(t.Sub(n.lastBatt), irr)
	}
	n.lastBatt = t

	for _, f := range n.faults {
		if f.Kind == FaultDead && f.active(t) {
			return nil
		}
	}
	if !n.lastTx.IsZero() && t.Sub(n.lastTx) < n.interval() {
		return nil
	}
	if n.Battery.Empty() {
		return nil
	}
	for _, f := range n.faults {
		if f.Kind == FaultDropout && f.active(t) && n.rng.Float64() < f.DropProbability {
			n.lastTx = t // the node believes it sent; the frame just vanishes
			return nil
		}
	}

	m := n.Sample(t)
	n.lastMeas = m
	n.haveMeas = true
	if !n.Battery.Transmit() {
		return nil
	}
	n.fcnt++
	up := &lorawan.Uplink{
		DevAddr: n.DevAddr,
		FCnt:    n.fcnt,
		FPort:   1,
		Payload: EncodeMeasurement(m),
	}
	frame, err := up.Encode()
	if err != nil {
		return nil // payload is fixed-size; unreachable
	}
	n.lastTx = t
	// CTT nodes are stationary and far from gateways in parts of the
	// city; SF is set conservatively per node from its address (in a
	// real network ADR would settle this).
	sf := lorawan.SpreadingFactor(9 + int(n.DevAddr)%3)
	// Real nodes drift against each other; model that with a per-node,
	// per-frame send jitter so same-tick transmissions do not all
	// overlap on air (Class A devices are uncoordinated).
	jitter := time.Duration(int64(n.DevAddr)*2654435761+int64(n.fcnt)*40503) % (30 * time.Second)
	if jitter < 0 {
		jitter = -jitter
	}
	return &lorawan.Transmission{
		DeviceID: n.ID,
		Frame:    frame,
		Pos:      n.Pos,
		SF:       sf,
		Chan:     (int(n.fcnt) + int(n.DevAddr)) % lorawan.Channels,
		Start:    t.Add(jitter),
	}
}

// LastMeasurement returns the node's most recent sample, if any.
func (n *Node) LastMeasurement() (Measurement, bool) { return n.lastMeas, n.haveMeas }

// FrameCount returns the node's uplink frame counter.
func (n *Node) FrameCount() uint16 { return n.fcnt }
