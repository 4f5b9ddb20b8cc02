// Package traffic simulates the urban traffic data the paper integrates
// from here.com (continuous jam-factor feeds) and from municipal
// short-period traffic counts. It provides:
//
//   - a road network of segments with free-flow properties,
//   - a deterministic traffic process per segment with rush-hour,
//     weekday/weekend and incident structure, exposed as flow
//     (vehicles/hour), speed, and the here.com-style jam factor [0,10],
//   - a count-campaign generator for the municipal counts row of the
//     paper's Table 1.
//
// The same process feeds the emission ground-truth model, so CO2/NO2
// measured by simulated sensors carries a genuine (but confounded)
// traffic signal — the structure the paper's Fig. 5 analysis probes.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geo"
)

// RoadClass describes a segment's role in the network, which sets its
// free-flow speed and capacity.
type RoadClass int

const (
	// Arterial roads carry through traffic at higher speeds.
	Arterial RoadClass = iota
	// Collector streets feed arterials.
	Collector
	// Local streets carry low volumes.
	Local
)

// String returns the lowercase class name.
func (c RoadClass) String() string {
	switch c {
	case Arterial:
		return "arterial"
	case Collector:
		return "collector"
	case Local:
		return "local"
	default:
		return fmt.Sprintf("roadclass(%d)", int(c))
	}
}

// Segment is a directed road segment between two geographic points.
type Segment struct {
	ID       string
	From, To geo.LatLon
	Class    RoadClass
	// FreeFlowKmh is the uncongested travel speed.
	FreeFlowKmh float64
	// CapacityVPH is the saturation flow in vehicles per hour.
	CapacityVPH float64
	// DemandScale multiplies the base demand profile (captures how busy
	// this particular segment is relative to its class).
	DemandScale float64
}

// Midpoint returns the segment's geographic midpoint, used to attach
// traffic observations to sensor locations.
func (s Segment) Midpoint() geo.LatLon { return geo.Midpoint(s.From, s.To) }

// LengthM returns the segment length in meters.
func (s Segment) LengthM() float64 { return geo.Distance(s.From, s.To) }

// Observation is one traffic sample for a segment, mirroring the fields
// of a commercial traffic feed.
type Observation struct {
	SegmentID string
	Time      time.Time
	FlowVPH   float64 // vehicles per hour
	SpeedKmh  float64 // current average speed
	JamFactor float64 // here.com-style congestion score, 0 (free) to 10 (blocked)
}

// Incident is a temporary capacity reduction on a segment (accident,
// roadworks, street closure — the "closing down certain streets"
// scenario from the paper's introduction).
type Incident struct {
	SegmentID string
	Start     time.Time
	End       time.Time
	// CapacityFactor in (0,1]: remaining fraction of capacity.
	CapacityFactor float64
}

// Closure takes a segment out of service for a period; its traffic
// demand reroutes onto nearby segments (the "spillover and evasion
// effects" a street closure produces in surrounding parts of the
// city). A small residual fraction remains for local access.
type Closure struct {
	SegmentID string
	Start     time.Time
	End       time.Time
	// Residual is the fraction of demand still using the street
	// (default 0.05).
	Residual float64
	// RerouteRadiusM bounds which segments absorb the displaced
	// traffic (default 1500 m).
	RerouteRadiusM float64
}

func (c Closure) active(t time.Time) bool {
	return !t.Before(c.Start) && t.Before(c.End)
}

// Network is a deterministic city traffic simulator.
type Network struct {
	Segments  []Segment    // fixed once built: mids and byID index into it
	mids      []geo.LatLon // Segments[i].Midpoint(), computed once
	incidents []Incident
	closures  []Closure
	seed      int64
	byID      map[string]*Segment
}

// NewNetwork builds a simulator over the given segments.
func NewNetwork(segments []Segment, seed int64) *Network {
	n := &Network{Segments: segments, seed: seed, byID: make(map[string]*Segment, len(segments))}
	n.mids = make([]geo.LatLon, len(segments))
	for i := range n.Segments {
		s := &n.Segments[i]
		n.mids[i] = s.Midpoint()
		if s.FreeFlowKmh == 0 {
			s.FreeFlowKmh = defaultFreeFlow(s.Class)
		}
		if s.CapacityVPH == 0 {
			s.CapacityVPH = defaultCapacity(s.Class)
		}
		if s.DemandScale == 0 {
			s.DemandScale = 1
		}
		n.byID[s.ID] = s
	}
	return n
}

func defaultFreeFlow(c RoadClass) float64 {
	switch c {
	case Arterial:
		return 70
	case Collector:
		return 50
	default:
		return 30
	}
}

func defaultCapacity(c RoadClass) float64 {
	switch c {
	case Arterial:
		return 1800
	case Collector:
		return 900
	default:
		return 350
	}
}

// Segment returns the segment with the given ID, or nil.
func (n *Network) Segment(id string) *Segment { return n.byID[id] }

// AddIncident registers a capacity-reducing incident.
func (n *Network) AddIncident(inc Incident) { n.incidents = append(n.incidents, inc) }

// AddClosure registers a street closure with rerouting.
func (n *Network) AddClosure(c Closure) {
	if c.Residual <= 0 {
		c.Residual = 0.05
	}
	if c.RerouteRadiusM <= 0 {
		c.RerouteRadiusM = 1500
	}
	n.closures = append(n.closures, c)
}

// demandFraction returns the fraction of daily-peak demand at local
// time t: a double-peaked weekday profile (morning and evening rush)
// and a flatter, lower weekend profile.
func demandFraction(t time.Time) float64 {
	h := float64(t.Hour()) + float64(t.Minute())/60
	weekend := t.Weekday() == time.Saturday || t.Weekday() == time.Sunday
	if weekend {
		// Single midday hump, lower overall.
		return 0.08 + 0.45*gauss(h, 13.5, 3.5)
	}
	// Morning peak at 08:00, evening peak at 16:30, overnight trough.
	return 0.05 + 0.85*gauss(h, 8, 1.3) + 0.95*gauss(h, 16.5, 1.7) + 0.25*gauss(h, 12.5, 2.5)
}

func gauss(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return math.Exp(-0.5 * d * d)
}

// baseFlow returns the nominal demand-driven flow (vph) of a segment
// before closure rerouting.
func (n *Network) baseFlow(s *Segment, t time.Time) float64 {
	demand := demandFraction(t) * s.DemandScale
	// Short-term stochastic fluctuation, deterministic per (seed, seg, bucket).
	demand *= 1 + 0.15*hashNoise(n.seed, s.ID, t.Unix()/600)
	if demand < 0 {
		demand = 0
	}
	return demand * s.CapacityVPH
}

// closedAt returns the active closure for a segment, if any.
func (n *Network) closedAt(segID string, t time.Time) *Closure {
	for i := range n.closures {
		c := &n.closures[i]
		if c.SegmentID == segID && c.active(t) {
			return c
		}
	}
	return nil
}

// At returns the traffic observation for a segment at time t.
// Results are deterministic in (seed, segment, t).
func (n *Network) At(segmentID string, t time.Time) (Observation, error) {
	s := n.byID[segmentID]
	if s == nil {
		return Observation{}, fmt.Errorf("traffic: unknown segment %q", segmentID)
	}
	flow := n.flow(s, t)

	cap := s.CapacityVPH
	for _, inc := range n.incidents {
		if inc.SegmentID == s.ID && !t.Before(inc.Start) && t.Before(inc.End) {
			cap *= inc.CapacityFactor
		}
	}

	// Volume/capacity ratio drives speed via a BPR-style curve.
	vc := flow / cap
	speed := s.FreeFlowKmh / (1 + 0.15*math.Pow(vc, 4))
	if speed < 3 {
		speed = 3
	}
	// Jam factor per here.com semantics: 0 free-flow … 10 standstill.
	jf := 10 * (1 - speed/s.FreeFlowKmh)
	jf = math.Max(0, math.Min(10, jf))

	return Observation{
		SegmentID: s.ID,
		Time:      t,
		FlowVPH:   flow,
		SpeedKmh:  speed,
		JamFactor: jf,
	}, nil
}

// flow returns a segment's vehicle flow (vph) at t: its own demand,
// cut to the residual while the segment is closed, plus its share of
// the traffic rerouted from closed segments nearby.
func (n *Network) flow(s *Segment, t time.Time) float64 {
	flow := n.baseFlow(s, t)

	// Closure of THIS segment: most demand leaves it.
	if c := n.closedAt(s.ID, t); c != nil {
		flow *= c.Residual
	} else {
		// Rerouted inflow from other closed segments nearby, shared
		// among open neighbours in proportion to capacity.
		for i := range n.closures {
			c := &n.closures[i]
			if !c.active(t) || c.SegmentID == s.ID {
				continue
			}
			closed := n.byID[c.SegmentID]
			if closed == nil {
				continue
			}
			if geo.Distance(closed.Midpoint(), s.Midpoint()) > c.RerouteRadiusM {
				continue
			}
			displaced := n.baseFlow(closed, t) * (1 - c.Residual)
			var capSum float64
			for j := range n.Segments {
				nb := &n.Segments[j]
				if nb.ID == c.SegmentID || n.closedAt(nb.ID, t) != nil {
					continue
				}
				if geo.Distance(closed.Midpoint(), nb.Midpoint()) <= c.RerouteRadiusM {
					capSum += nb.CapacityVPH
				}
			}
			if capSum > 0 {
				flow += displaced * s.CapacityVPH / capSum
			}
		}
	}
	return flow
}

// CityJamFactor returns the demand-weighted mean jam factor across all
// segments at t — the city-level congestion indicator shown on the
// paper's traffic dashboard (Fig. 6).
func (n *Network) CityJamFactor(t time.Time) float64 {
	if len(n.Segments) == 0 {
		return 0
	}
	var sum, w float64
	for i := range n.Segments {
		obs, err := n.At(n.Segments[i].ID, t)
		if err != nil {
			continue
		}
		weight := n.Segments[i].CapacityVPH
		sum += obs.JamFactor * weight
		w += weight
	}
	if w == 0 {
		return 0
	}
	return sum / w
}

// FlowNear returns the total vehicle flow (vph) on segments whose
// midpoint lies within radius meters of p at time t. The emission model
// uses this as its traffic source term.
func (n *Network) FlowNear(p geo.LatLon, radius float64, t time.Time) float64 {
	return n.FlowOver(n.Near(p, radius), t)
}

// Near returns, in ascending order, the indices into Segments of the
// segments whose midpoint lies within radius meters of p. Geometry is
// fixed once the network is built, so a fixed receptor asks once and
// passes the answer to FlowOver at every sample.
func (n *Network) Near(p geo.LatLon, radius float64) []int {
	var idx []int
	for i := range n.Segments {
		if geo.Distance(n.mids[i], p) <= radius {
			idx = append(idx, i)
		}
	}
	return idx
}

// FlowOver returns the total vehicle flow (vph) at time t on the
// segments at the given indices into Segments, summed in their order.
func (n *Network) FlowOver(idx []int, t time.Time) float64 {
	var total float64
	for _, i := range idx {
		total += n.flow(&n.Segments[i], t)
	}
	return total
}

// CountCampaign generates municipal traffic counts for one segment:
// hourly vehicle counts over a short period (the paper notes these are
// "only available for short periods"). Counts are integer draws around
// the underlying flow.
func (n *Network) CountCampaign(segmentID string, start time.Time, days int) ([]Count, error) {
	if _, ok := n.byID[segmentID]; !ok {
		return nil, fmt.Errorf("traffic: unknown segment %q", segmentID)
	}
	rng := rand.New(rand.NewSource(n.seed ^ int64(len(segmentID))*7919 ^ start.Unix()))
	var out []Count
	for d := 0; d < days; d++ {
		for h := 0; h < 24; h++ {
			ts := start.AddDate(0, 0, d).Add(time.Duration(h) * time.Hour)
			obs, err := n.At(segmentID, ts)
			if err != nil {
				return nil, err
			}
			// Poisson-ish sampling noise around true hourly flow.
			noisy := obs.FlowVPH + rng.NormFloat64()*math.Sqrt(math.Max(1, obs.FlowVPH))
			if noisy < 0 {
				noisy = 0
			}
			out = append(out, Count{SegmentID: segmentID, Hour: ts, Vehicles: int(noisy + 0.5)})
		}
	}
	return out, nil
}

// Count is one municipal traffic-count record.
type Count struct {
	SegmentID string
	Hour      time.Time
	Vehicles  int
}

// hashNoise maps (seed, id, bucket) to [-1, 1] with a splitmix64-style
// finalizer — pure arithmetic, no allocation, called on every traffic
// sample.
func hashNoise(seed int64, id string, bucket int64) float64 {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	for _, c := range id {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	h ^= uint64(bucket) * 0xC2B2AE3D27D4EB4F
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11)/float64(1<<53)*2 - 1
}

// GenerateGridNetwork builds a synthetic city road network: a ring of
// arterials around the center, a grid of collectors, and local streets,
// all within radius meters of center. It is deterministic in seed.
func GenerateGridNetwork(center geo.LatLon, radius float64, seed int64) []Segment {
	rng := rand.New(rand.NewSource(seed))
	var segs []Segment
	id := 0
	next := func(class RoadClass, from, to geo.LatLon, scale float64) {
		id++
		segs = append(segs, Segment{
			ID:          fmt.Sprintf("%s-%03d", class.String()[:3], id),
			From:        from,
			To:          to,
			Class:       class,
			DemandScale: scale,
		})
	}

	// Arterial ring at ~60% radius, 8 chords.
	ringR := radius * 0.6
	var ring []geo.LatLon
	for i := 0; i < 8; i++ {
		ring = append(ring, geo.Destination(center, float64(i)*45, ringR))
	}
	for i := 0; i < 8; i++ {
		next(Arterial, ring[i], ring[(i+1)%8], 1.0+0.3*rng.Float64())
	}
	// Radial arterials from center to ring.
	for i := 0; i < 4; i++ {
		next(Arterial, center, ring[i*2], 1.1+0.3*rng.Float64())
	}
	// Collector grid: chords across the ring.
	for i := 0; i < 8; i++ {
		a := geo.Destination(center, float64(i)*45+20, ringR*0.8)
		b := geo.Destination(center, float64(i)*45+110, ringR*0.7)
		next(Collector, a, b, 0.7+0.4*rng.Float64())
	}
	// Local streets scattered inside.
	for i := 0; i < 16; i++ {
		a := geo.Destination(center, rng.Float64()*360, rng.Float64()*radius*0.9)
		b := geo.Destination(a, rng.Float64()*360, 150+rng.Float64()*300)
		next(Local, a, b, 0.4+0.5*rng.Float64())
	}
	return segs
}
