package traffic_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/traffic"
)

// TestFlowNearMatchesPerSampleMidpoints: FlowNear tests distance
// against midpoints computed once when the network is built; the
// answer must be bit-identical to recomputing every segment's
// great-circle midpoint per call, for every pilot node over a day at
// the sensor cadence, in both pilot cities.
func TestFlowNearMatchesPerSampleMidpoints(t *testing.T) {
	for _, cfg := range []core.Config{core.TrondheimConfig(3), core.VejleConfig(3)} {
		n := traffic.NewNetwork(traffic.GenerateGridNetwork(cfg.Center, cfg.CityRadiusM, cfg.Seed), cfg.Seed)
		for _, radius := range []float64{800, 1500} {
			nonzero := 0
			for _, p := range cfg.SensorPositions {
				for at := cfg.Start; at.Before(cfg.Start.Add(24 * time.Hour)); at = at.Add(cfg.Interval) {
					var want float64
					for _, s := range n.Segments {
						if geo.Distance(s.Midpoint(), p) <= radius {
							obs, err := n.At(s.ID, at)
							if err != nil {
								t.Fatal(err)
							}
							want += obs.FlowVPH
						}
					}
					if got := n.FlowNear(p, radius, at); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: FlowNear(%v, %v, %v) = %v, per-sample midpoints give %v", cfg.City, p, radius, at, got, want)
					}
					if want > 0 {
						nonzero++
					}
				}
			}
			if nonzero == 0 {
				t.Fatalf("%s: no node saw traffic within %v m; the comparison is vacuous", cfg.City, radius)
			}
		}
	}
}
