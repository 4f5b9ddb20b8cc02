package dashboard

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataport"
	"repro/internal/geo"
	"repro/internal/tsdb"
)

var (
	simNow = time.Date(2017, time.March, 7, 12, 0, 0, 0, time.UTC)
	center = geo.LatLon{Lat: 63.4305, Lon: 10.3951}
)

func testServer(t *testing.T) (*Server, *tsdb.DB) {
	t.Helper()
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	// Seed 6 hours of CO2 at 5-min cadence for two sensors.
	for i := 0; i < 72; i++ {
		ts := simNow.Add(-6 * time.Hour).Add(time.Duration(i) * 5 * time.Minute)
		for _, sensor := range []string{"n1", "n2"} {
			put(t, db, "air.co2", map[string]string{"sensor": sensor, "city": "trondheim"},
				tsdb.Point{Timestamp: ts.UnixMilli(), Value: 410 + float64(i%12)})
		}
	}
	s := New(db, nil)
	s.SetNow(func() time.Time { return simNow })
	if err := s.AddPanel(Panel{
		Name: "co2", Title: "CO2 all sensors", Metric: "air.co2",
		Tags: map[string]string{"sensor": "*"}, Agg: tsdb.AggAvg,
		Window: 6 * time.Hour, YLabel: "ppm",
	}); err != nil {
		t.Fatal(err)
	}
	return s, db
}

// put stores one point the way every writer does: Intern, then a
// one-element AppendRefs batch.
func put(t *testing.T, db *tsdb.DB, metric string, tags map[string]string, p tsdb.Point) {
	t.Helper()
	ref, err := db.Intern(metric, tags)
	if err != nil {
		t.Fatal(err)
	}
	if res := db.AppendRefs([]tsdb.RefPoint{{Ref: ref, Point: p}}); len(res.Errors) > 0 {
		t.Fatal(res.Errors[0].Err)
	}
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	return res, string(body)
}

func TestIndexListsPanels(t *testing.T) {
	s, _ := testServer(t)
	res, body := get(t, s.Handler(), "/")
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if !strings.Contains(body, "CO2 all sensors") || !strings.Contains(body, "/panel/co2.svg") {
		t.Fatalf("index missing panel: %.200s", body)
	}
}

func TestPanelSVGRenders(t *testing.T) {
	s, _ := testServer(t)
	res, body := get(t, s.Handler(), "/panel/co2.svg")
	if res.StatusCode != 200 {
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	if res.Header.Get("Content-Type") != "image/svg+xml" {
		t.Fatalf("content type: %s", res.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, "polyline") {
		t.Fatal("panel chart empty")
	}
	res, _ = get(t, s.Handler(), "/panel/nope.svg")
	if res.StatusCode != 404 {
		t.Fatalf("unknown panel status: %d", res.StatusCode)
	}
}

func TestPanelValidation(t *testing.T) {
	s, _ := testServer(t)
	if err := s.AddPanel(Panel{Name: "bad name", Agg: tsdb.AggAvg}); err == nil {
		t.Fatal("space in name should fail")
	}
	if err := s.AddPanel(Panel{Name: "x", Agg: "bogus"}); err == nil {
		t.Fatal("bad agg should fail")
	}
	if err := s.AddPanel(Panel{Name: "co2", Agg: tsdb.AggAvg}); err == nil {
		t.Fatal("duplicate name should fail")
	}
}

func TestNetworkEndpoints(t *testing.T) {
	s, _ := testServer(t)
	// No dataport: 404.
	res, _ := get(t, s.Handler(), "/network.svg")
	if res.StatusCode != 404 {
		t.Fatalf("no-dataport status: %d", res.StatusCode)
	}
	// With dataport.
	dp, err := dataport.New(dataport.Config{DefaultInterval: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	dp.RegisterGateway("gw1", center)
	dp.RegisterSensor("s1", geo.Destination(center, 0, 400), 0)
	dp.ObserveUplink(dataport.UplinkObservation{
		DeviceID: "s1", GatewayIDs: []string{"gw1"}, Time: simNow, BatteryPct: 80, RSSI: -85,
	})
	s.dp = dp
	res, body := get(t, s.Handler(), "/network.svg")
	if res.StatusCode != 200 || !strings.Contains(body, "circle") {
		t.Fatalf("network map: %d %.120s", res.StatusCode, body)
	}
	// Alarm API (none yet).
	res, body = get(t, s.Handler(), "/api/alarms")
	if res.StatusCode != 200 {
		t.Fatalf("alarms status %d", res.StatusCode)
	}
	if strings.TrimSpace(body) != "[]" && !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Fatalf("alarms body: %s", body)
	}
}

func TestWallDisplay(t *testing.T) {
	s, _ := testServer(t)
	res, body := get(t, s.Handler(), "/wall")
	if res.StatusCode != 200 {
		t.Fatalf("wall status %d", res.StatusCode)
	}
	if !strings.Contains(body, "/network.svg") || !strings.Contains(body, "/panel/co2.svg") {
		t.Fatalf("wall missing components: %.300s", body)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	s, _ := testServer(t)
	_, body := get(t, s.Handler(), "/api/metrics")
	if !strings.Contains(body, "air.co2") {
		t.Fatalf("metrics: %s", body)
	}
	res, body := get(t, s.Handler(), "/healthz")
	if res.StatusCode != 200 || body != "ok" {
		t.Fatalf("health: %d %s", res.StatusCode, body)
	}
}

func TestRealServerOverTCP(t *testing.T) {
	s, _ := testServer(t)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr.String() + "/api/panels")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "co2") {
		t.Fatalf("panels over TCP: %s", body)
	}
}

func TestCommandEndpoint(t *testing.T) {
	s, _ := testServer(t)
	// Not configured: 404.
	req := httptest.NewRequest(http.MethodPost, "/api/command?device=n1&interval=15", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Result().StatusCode != 404 {
		t.Fatalf("unconfigured: %d", rec.Result().StatusCode)
	}

	var gotDev string
	var gotPayload []byte
	s.SendCommand = func(dev string, payload []byte) error {
		gotDev, gotPayload = dev, payload
		return nil
	}
	// GET rejected.
	req = httptest.NewRequest(http.MethodGet, "/api/command?device=n1&interval=15", nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Result().StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d", rec.Result().StatusCode)
	}
	// Happy path: combined commands.
	req = httptest.NewRequest(http.MethodPost, "/api/command?device=n1&interval=15&lowbattery=30", nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Result().StatusCode != 200 {
		body, _ := io.ReadAll(rec.Result().Body)
		t.Fatalf("command: %d %s", rec.Result().StatusCode, body)
	}
	if gotDev != "n1" || len(gotPayload) != 4 {
		t.Fatalf("forwarded: %q %v", gotDev, gotPayload)
	}
	// Bad values.
	for _, url := range []string{
		"/api/command?interval=15",             // no device
		"/api/command?device=n1",               // no command
		"/api/command?device=n1&interval=0",    // out of range
		"/api/command?device=n1&interval=x",    // not a number
		"/api/command?device=n1&lowbattery=99", // out of range
	} {
		req = httptest.NewRequest(http.MethodPost, url, nil)
		rec = httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Result().StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d", url, rec.Result().StatusCode)
		}
	}
}
