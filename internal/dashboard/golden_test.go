package dashboard

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/rollup"
	"repro/internal/tsdb"
)

// pilotDays is how much history the golden pilot fast-forwards; the
// panels' trailing window is as long, as ctt-server's -days sets it.
const pilotDays = 2

// pilotPanels are ctt-server's five wall-display panels.
func pilotPanels(window time.Duration) []Panel {
	return []Panel{
		{Name: "co2", Title: "Air quality — CO2 by sensor", Metric: core.MetricCO2,
			Tags: map[string]string{"sensor": "*"}, Agg: tsdb.AggAvg,
			Downsample: time.Hour, Window: window, YLabel: "ppm"},
		{Name: "co2top", Title: "Air quality — top 5 CO2 hotspots", Metric: core.MetricCO2,
			Tags: map[string]string{"sensor": "*"}, Agg: tsdb.AggAvg,
			Downsample: time.Hour, Window: window, YLabel: "ppm", TopK: 5},
		{Name: "no2", Title: "Air quality — NO2 network mean", Metric: core.MetricNO2,
			Agg: tsdb.AggAvg, Downsample: time.Hour, Window: window, YLabel: "µg/m³"},
		{Name: "traffic", Title: "Traffic — city jam factor", Metric: "traffic.jamfactor",
			Agg: tsdb.AggAvg, Downsample: 30 * time.Minute, Window: 48 * time.Hour, YLabel: "jf"},
		{Name: "battery", Title: "Node battery", Metric: core.MetricBattery,
			Tags: map[string]string{"sensor": "*"}, Agg: tsdb.AggAvg,
			Downsample: time.Hour, Window: window, YLabel: "%"},
	}
}

// pilotDashboard fast-forwards a seeded Trondheim pilot under
// ctt-server's default rollup tiers and returns a dashboard over it
// with ctt-server's panels, on the pilot's clock — frozen, since
// nothing steps the pilot after the fast-forward.
func pilotDashboard(t *testing.T) (*Server, *core.System) {
	t.Helper()
	cfg := core.TrondheimConfig(1)
	cfg.Start = time.Date(2017, time.March, 1, 0, 0, 0, 0, time.UTC)
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	eng, err := rollup.New(sys.DB, rollup.Config{Grace: time.Minute, FlushEvery: -1, Now: sys.Now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := sys.Run(pilotDays * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	eng.Flush(sys.Now())
	s := New(sys.DB, sys.Dataport)
	s.SetNow(sys.Now)
	for _, p := range pilotPanels(pilotDays * 24 * time.Hour) {
		if err := s.AddPanel(p); err != nil {
			t.Fatal(err)
		}
	}
	return s, sys
}

// TestPanelGoldens: testdata/<panel>.svg are the wall-display panels
// as the dashboard rendered them with every coordinate formatted by
// fmt.Sprintf("%.1f") and every read going through DB.Execute
// (generated at commit 9e8d13f). Regenerate only at a commit whose
// output you trust:
//
//	CTT_GOLDEN_UPDATE=1 go test ./internal/dashboard -run TestPanelGoldens
//
// Every way a panel is served must give those bytes: read from the
// store directly, and through the gateway, first rendered and then
// from its cache.
func TestPanelGoldens(t *testing.T) {
	s, sys := pilotDashboard(t)
	gw := api.New(sys.DB, nil, api.Config{Now: sys.Now})
	defer gw.Close()
	h := s.Handler()
	serve := func(name string) []byte {
		t.Helper()
		res, body := get(t, h, "/panel/"+name+".svg")
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, res.StatusCode, body)
		}
		return []byte(body)
	}
	if os.Getenv("CTT_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, p := range s.Panels() {
			if err := os.WriteFile(filepath.Join("testdata", p.Name+".svg"), serve(p.Name), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for _, path := range []string{"uncached", "gateway miss", "gateway hit"} {
		if path == "gateway miss" {
			s.Render = gw.Render
		}
		for _, p := range s.Panels() {
			want, err := os.ReadFile(filepath.Join("testdata", p.Name+".svg"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(want, []byte("<polyline")) {
				t.Fatalf("%s: the golden draws no line; a golden panel must hold data", p.Name)
			}
			if got := serve(p.Name); !bytes.Equal(got, want) {
				t.Errorf("%s, %s: %d bytes differ from the golden's %d (first difference at byte %d)",
					p.Name, path, len(got), len(want), firstDiff(got, want))
			}
		}
	}
	_, metrics := get(t, gw.Handler(), "/metrics")
	if want := fmt.Sprintf("ctt_query_cache_hits_total %d\n", len(s.Panels())); !strings.Contains(metrics, want) {
		t.Errorf("the second round was not served from the cache: want %q in /metrics", want)
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
