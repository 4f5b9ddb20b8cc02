package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rollup"
	"repro/internal/tsdb"
)

// TestLivePanelsPlannerParity is ctt-bench's mixed_live in process and
// small: the seeded pilot store under ctt-server's rollup tiers, plus
// 1 Hz series — ten sensors on each of the four panel metrics, where
// the workload has fifty — written for forty minutes past the pilot's
// clock, so the engine seals their 1m tier by watermark while their
// hour stays open. Each of the five dashboard panels must answer with
// the planner as without it: the same series and bucket timestamps,
// values to 1e-9 relative — the open hour's minutes each sum sixty
// readings, which associate differently from one sum over the hour.
func TestLivePanelsPlannerParity(t *testing.T) {
	sys, err := core.New(core.TrondheimConfig(18))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	eng, err := rollup.New(sys.DB, rollup.Config{
		Tiers: []rollup.Tier{
			{Resolution: time.Minute, Retention: 7 * 24 * time.Hour},
			{Resolution: time.Hour, Retention: 90 * 24 * time.Hour},
		},
		Grace: time.Minute, FlushEvery: -1, Now: sys.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := sys.Run(30 * time.Hour); err != nil {
		t.Fatal(err)
	}
	now := sys.Now()
	eng.Flush(now)

	// The writers: one batch per data second across every live series.
	metrics := []string{"air.co2", "air.no2", "node.battery", "traffic.jamfactor"}
	const sensors = 10
	var refs []*tsdb.Ref
	for _, m := range metrics {
		for s := 0; s < sensors; s++ {
			ref, err := sys.DB.Intern(m, map[string]string{"sensor": fmt.Sprintf("live-%06d", s)})
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref)
		}
	}
	batch := make([]tsdb.RefPoint, len(refs))
	for k := 0; k < 40*60; k++ {
		for i, ref := range refs {
			v := float64(100000+(i*7919+k*104729)%800000) / 1000
			batch[i] = tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: now.Add(time.Duration(k) * time.Second).UnixMilli(), Value: v}}
		}
		if res := sys.DB.AppendRefs(batch); len(res.Errors) > 0 {
			t.Fatal(res.Errors[0])
		}
	}

	gw := New(sys.DB, nil, Config{Now: sys.Now, CacheSize: -1})
	defer gw.Close()
	query := func(m string, window time.Duration) []wireResult {
		t.Helper()
		url := fmt.Sprintf("/api/query?start=%d&end=%d&m=%s", now.Add(-window).UnixMilli(), now.Add(2*time.Hour).UnixMilli(), m)
		rec := httptest.NewRecorder()
		gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", m, rec.Code, rec.Body)
		}
		var out []wireResult
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		return out
	}
	panels := []struct {
		m      string
		window time.Duration
	}{
		{"avg:1h-avg:air.co2{sensor=*}", 7 * 24 * time.Hour},
		{"topk(5,avg:1h-avg:air.co2{sensor=*})", 7 * 24 * time.Hour},
		{"avg:1h-avg:air.no2", 7 * 24 * time.Hour},
		{"avg:30m-avg:traffic.jamfactor", 48 * time.Hour},
		{"avg:1h-avg:node.battery{sensor=*}", 7 * 24 * time.Hour},
	}
	for _, p := range panels {
		before := eng.Stats()
		got := query(p.m, p.window)
		tails := eng.Stats().TailServed - before.TailServed
		sys.DB.SetRollupPlanner(nil)
		want := query(p.m, p.window)
		sys.DB.SetRollupPlanner(eng)

		if tails < sensors {
			t.Errorf("%s: %d series read their open bucket from the 1m tier, want at least the %d live ones", p.m, tails, sensors)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d series, planner off %d", p.m, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Metric != w.Metric || fmt.Sprint(g.Tags) != fmt.Sprint(w.Tags) || len(g.DPS) != len(w.DPS) {
				t.Fatalf("%s series %d: %s%v with %d buckets, planner off %s%v with %d", p.m, i, g.Metric, g.Tags, len(g.DPS), w.Metric, w.Tags, len(w.DPS))
			}
			for ts, wv := range w.DPS {
				if gv, ok := g.DPS[ts]; !ok || math.Abs(gv-wv) > 1e-9*math.Max(math.Abs(wv), 1) {
					t.Fatalf("%s series %d (%v) bucket %s: %v (present %v), planner off %v", p.m, i, w.Tags, ts, g.DPS[ts], ok, wv)
				}
			}
		}
	}
}
