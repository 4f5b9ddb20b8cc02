package viz

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/citygml"
	"repro/internal/dataport"
	"repro/internal/geo"
)

// The golden charts are drawn on plot areas whose pixel scale is a
// power of two (512×256 px over 2048 s and 1024 units), so integer
// inputs land on exact quarter pixels: every x.25 and x.75 coordinate
// is an exact tie for one decimal, which the renderer must round half
// to even the way fmt's %.1f does (50.25 → "50.2", 50.75 → "50.8").
const (
	goldenW, goldenH = 612, 356
	goldenSpan       = 2048 * time.Second
)

func goldenLine() []byte {
	ties := Series{Name: "ties <q&a>"}
	for k := 0; k <= 2048; k += 37 {
		ties.Times = append(ties.Times, t0().Add(time.Duration(k)*time.Second))
		ties.Values = append(ties.Values, float64((k*7)%1025))
	}
	ties.Times = append(ties.Times, t0().Add(goldenSpan), t0().Add(goldenSpan/2))
	ties.Values = append(ties.Values, 1024, math.NaN())
	wave := Series{Name: "wave", Color: "#123456"}
	for k := 0; k < 300; k++ {
		wave.Times = append(wave.Times, t0().Add(time.Duration(k)*6830*time.Millisecond+123*time.Microsecond))
		wave.Values = append(wave.Values, 512+500*math.Sin(float64(k)/9))
	}
	return LineChartSVG([]Series{ties, wave, {Name: "empty"}}, ChartOptions{
		Title: `CO2 "ties" & rounding`, Width: goldenW, Height: goldenH, XLabel: "time", YLabel: "ppm",
	})
}

func goldenScatter() []byte {
	var pts []ScatterPoint
	for i := 0; i < 400; i++ {
		pts = append(pts, ScatterPoint{X: float64((i * 131) % 2049), Y: float64((i * 71) % 1025), Class: i % 4})
	}
	for i := 0; i < 50; i++ {
		pts = append(pts, ScatterPoint{X: 1024 + 1000*math.Cos(float64(i)), Y: 512 + 0.35*float64(i), Class: 1})
	}
	return ScatterSVG(pts, []string{"dark", "sunlit <direct>"}, ChartOptions{
		Title: "Δbattery vs hour", Width: goldenW, Height: goldenH, XLabel: "hour", YLabel: "Δ%",
	})
}

func goldenBar() []byte {
	var labels []string
	var values []float64
	for i := 0; i < 40; i++ {
		labels = append(labels, time.Duration(i*30*int(time.Minute)).String())
		values = append(values, float64((i*50)%2049-1024))
	}
	values[3] = 1024
	values[7] = -0.04
	return BarChartSVG(labels, values, ChartOptions{Title: "diurnal", Width: goldenW, Height: goldenH})
}

func goldenNetwork() []byte {
	snap := testSnapshot()
	snap.Sensors = append(snap.Sensors, dataport.SensorNode{ID: "s<4>", Pos: geo.Destination(center, 45, 1200), Status: "pending", BatteryPct: 88.5})
	snap.Gateways = append(snap.Gateways, dataport.GatewayNode{ID: "gw&3", Pos: geo.Destination(center, 135, 900), Status: "ok"})
	snap.Links = append(snap.Links, dataport.Link{SensorID: "s<4>", GatewayID: "gw&3", RSSI: -101, Live: true})
	return NetworkMapSVG(snap, 800, 600)
}

func goldenHeatmap() []byte {
	surf := &analytics.Surface{Origin: center, CellM: 100, NX: 4, NY: 3}
	for i := 0; i < surf.NX*surf.NY; i++ {
		surf.Values = append(surf.Values, 400+float64(i*i)*1.25)
	}
	readings := []analytics.SensorReading{
		{ID: "a", Pos: geo.Destination(center, 45, 150), Value: 412.25},
		{ID: "b&c", Pos: geo.Destination(center, 60, 300), Value: 415.75},
		{ID: "d", Pos: geo.Destination(center, 20, 250), Value: 412.5},
		{ID: "e", Pos: geo.Destination(center, 80, 200), Value: -0.35},
	}
	return HeatmapSVG(surf, readings, "CO2 <surface>", 840, 680)
}

func goldenCity() []byte {
	m := citygml.GenerateCity("vejle", center, 600, 3)
	m.AddSensor(citygml.MeasuringPoint{ID: "n1", Pos: center, Species: "co2", Value: 420.25, HeightM: 3})
	m.AddSensor(citygml.MeasuringPoint{ID: "n2", Pos: geo.Destination(center, 90, 200), Species: "co2", Value: 480.75, HeightM: 3})
	return CityModelSVG(m, 400, 500, 900, 650)
}

// TestFigureGoldens: testdata/<figure>.svg are what the renderers drew
// for these fixed inputs when each coordinate was formatted by
// fmt.Sprintf("%.1f"). Regenerate only at a commit whose output you
// trust:
//
//	CTT_GOLDEN_UPDATE=1 go test ./internal/viz -run TestFigureGoldens
func TestFigureGoldens(t *testing.T) {
	for _, fig := range []struct {
		name   string
		render func() []byte
	}{
		{"line", goldenLine},
		{"scatter", goldenScatter},
		{"bar", goldenBar},
		{"network", goldenNetwork},
		{"heatmap", goldenHeatmap},
		{"city", goldenCity},
	} {
		got := fig.render()
		validSVG(t, got)
		path := filepath.Join("testdata", fig.name+".svg")
		if os.Getenv("CTT_GOLDEN_UPDATE") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the golden's %d (first difference at byte %d)",
				fig.name, len(got), len(want), firstDiff(got, want))
		}
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
