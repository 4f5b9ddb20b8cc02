package core

import (
	"testing"
	"time"

	"repro/internal/sensors"
	"repro/internal/tsdb"
)

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestEndToEndDirect(t *testing.T) {
	s := newSystem(t, TrondheimConfig(1))
	if len(s.Nodes) != 12 {
		t.Fatalf("Trondheim pilot must have 12 nodes, got %d", len(s.Nodes))
	}
	ticks, err := s.Run(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 24 {
		t.Fatalf("ticks = %d", ticks)
	}
	// Radio losses exist but most uplinks must land.
	if got := s.IngestCount(); got < 12*24*7/10 {
		t.Fatalf("ingested %d uplinks, expected most of %d", got, 12*24)
	}
	// CO2 must be queryable per sensor.
	res, err := s.DB.Execute(tsdb.Query{
		Metric:     MetricCO2,
		Tags:       map[string]string{"sensor": "*"},
		Start:      s.Start.UnixMilli(),
		End:        s.Now().UnixMilli(),
		Aggregator: tsdb.AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 10 {
		t.Fatalf("expected ~12 sensor series, got %d", len(res))
	}
	for _, rs := range res {
		if len(rs.Points) == 0 {
			t.Fatalf("series %v empty", rs.Tags)
		}
		for _, p := range rs.Points {
			if p.Value < 300 || p.Value > 800 {
				t.Fatalf("implausible CO2 %v for %v", p.Value, rs.Tags)
			}
		}
	}
	// Traffic feed must be stored.
	res, err = s.DB.Execute(tsdb.Query{
		Metric:     "traffic.jamfactor",
		Start:      s.Start.UnixMilli(),
		End:        s.Now().UnixMilli(),
		Aggregator: tsdb.AggAvg,
	})
	if err != nil || len(res) != 1 || len(res[0].Points) != 24 {
		t.Fatalf("traffic series: %v err %v", res, err)
	}
}

func TestEndToEndMQTT(t *testing.T) {
	cfg := VejleConfig(2)
	cfg.Transport = MQTT
	s := newSystem(t, cfg)
	if len(s.Nodes) != 2 {
		t.Fatalf("Vejle pilot must have 2 nodes, got %d", len(s.Nodes))
	}
	if _, err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	// 2 nodes × 12 ticks, modulo radio loss.
	if got := s.IngestCount(); got < 12 {
		t.Fatalf("MQTT path ingested only %d uplinks", got)
	}
	res, err := s.DB.Execute(tsdb.Query{
		Metric:     MetricCO2,
		Tags:       map[string]string{"sensor": "*"},
		Start:      s.Start.UnixMilli(),
		End:        s.Now().UnixMilli(),
		Aggregator: tsdb.AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("series: %d", len(res))
	}
	// Broker stats must show traffic (proof the real TCP path ran).
	pub, delivered, _ := s.Broker.Stats()
	if pub == 0 || delivered == 0 {
		t.Fatalf("broker unused: pub=%d delivered=%d", pub, delivered)
	}
}

func TestDataportSeesNetwork(t *testing.T) {
	s := newSystem(t, TrondheimConfig(3))
	if _, err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Dataport.Snapshot(s.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Sensors) != 12 || len(snap.Gateways) != 2 {
		t.Fatalf("snapshot: %d sensors %d gateways", len(snap.Sensors), len(snap.Gateways))
	}
	okCount := 0
	for _, sn := range snap.Sensors {
		if sn.Status == "ok" {
			okCount++
		}
	}
	if okCount < 10 {
		t.Fatalf("healthy sensors: %d", okCount)
	}
	if len(snap.Links) == 0 {
		t.Fatal("no radio links recorded")
	}
	// No alarms on a healthy run.
	alarms, err := s.Dataport.Tick(s.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range alarms {
		if a.Kind != "sensor-battery-low" { // possible after a long night, not an error
			t.Fatalf("unexpected alarm on healthy network: %+v", a)
		}
	}
}

func TestGatewayOutageDetectedEndToEnd(t *testing.T) {
	// Vejle has a single gateway: taking it offline silences the whole
	// radio side while the backbone stays up → grouped gateway alarm.
	s := newSystem(t, VejleConfig(4))
	if _, err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	s.Radio.Gateway("gw-01").SetOnline(false)
	if _, err := s.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	alarms, err := s.Dataport.Tick(s.Now())
	if err != nil {
		t.Fatal(err)
	}
	var gwAlarm, sensorAlarm int
	for _, a := range alarms {
		switch a.Kind {
		case "gateway-outage":
			gwAlarm++
		case "sensor-silent":
			sensorAlarm++
		}
	}
	if gwAlarm != 1 {
		t.Fatalf("expected 1 gateway alarm, got %d (%+v)", gwAlarm, alarms)
	}
	if sensorAlarm != 0 {
		t.Fatalf("sensor alarms should be grouped: %d (%+v)", sensorAlarm, alarms)
	}
}

func TestBatteryTelemetryStored(t *testing.T) {
	s := newSystem(t, VejleConfig(5))
	if _, err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	res, err := s.DB.Execute(tsdb.Query{
		Metric:     MetricBattery,
		Tags:       map[string]string{"sensor": "ctt-node-01"},
		Start:      s.Start.UnixMilli(),
		End:        s.Now().UnixMilli(),
		Aggregator: tsdb.AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) == 0 {
		t.Fatal("battery telemetry missing")
	}
	for _, p := range res[0].Points {
		if p.Value <= 0 || p.Value > 100 {
			t.Fatalf("battery %v out of range", p.Value)
		}
	}
}

func TestWALPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := VejleConfig(6)
	cfg.Storage = &tsdb.Options{Dir: dir, FlushInterval: -1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	want := s.DB.PointCount()
	if want == 0 {
		t.Fatal("nothing stored")
	}
	s.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DB.PointCount(); got != want {
		t.Fatalf("recovered %d points, want %d", got, want)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, int) {
		s := newSystem(t, TrondheimConfig(42))
		s.Run(time.Hour)
		return s.IngestCount(), s.DB.PointCount()
	}
	i1, p1 := run()
	i2, p2 := run()
	if i1 != i2 || p1 != p2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", i1, p1, i2, p2)
	}
}

func TestNodeLookup(t *testing.T) {
	s := newSystem(t, VejleConfig(7))
	if s.Node("ctt-node-01") == nil {
		t.Fatal("node lookup failed")
	}
	if s.Node("nope") != nil {
		t.Fatal("unknown node should be nil")
	}
}

func TestDownlinkCommandDirect(t *testing.T) {
	s := newSystem(t, VejleConfig(8))
	if _, err := s.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	payload, err := sensorsEncodeSetInterval(t, 15)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SendCommand("ctt-node-01", payload); err != nil {
		t.Fatal(err)
	}
	// The command arrives in the class-A window after the next uplink.
	if _, err := s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := s.Node("ctt-node-01").Config.Interval; got != 15*time.Minute {
		t.Fatalf("interval after downlink = %v, want 15m", got)
	}
	// Unknown device errors.
	if err := s.SendCommand("nope", payload); err == nil {
		t.Fatal("unknown device should error")
	}
}

func TestDownlinkCommandOverMQTT(t *testing.T) {
	cfg := VejleConfig(9)
	cfg.Transport = MQTT
	s := newSystem(t, cfg)
	if _, err := s.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	payload, err := sensorsEncodeSetInterval(t, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Publishes to the TTN "down" topic over the real broker.
	if err := s.SendCommand("ctt-node-02", payload); err != nil {
		t.Fatal(err)
	}
	// Allow the broker to deliver, then run a tick so the class-A
	// window fires.
	waitFor(t, 2*time.Second, func() bool { return s.NS.PendingDownlinks() == 1 })
	if _, err := s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := s.Node("ctt-node-02").Config.Interval; got != 20*time.Minute {
		t.Fatalf("interval after MQTT downlink = %v, want 20m", got)
	}
}

// helpers for the downlink tests.
func sensorsEncodeSetInterval(t *testing.T, minutes int) ([]byte, error) {
	t.Helper()
	return sensors.EncodeSetInterval(minutes)
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}
