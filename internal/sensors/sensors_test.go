package sensors

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/emissions"
	"repro/internal/geo"
	"repro/internal/lorawan"
	"repro/internal/traffic"
	"repro/internal/weather"
)

var center = geo.LatLon{Lat: 63.4305, Lon: 10.3951}

func testEnv(t *testing.T) *emissions.Field {
	t.Helper()
	w := weather.NewModel(center.Lat, center.Lon, 1)
	tr := traffic.NewNetwork(traffic.GenerateGridNetwork(center, 3000, 1), 1)
	return emissions.NewField(w, tr)
}

func testNode(t *testing.T, seed int64) *Node {
	t.Helper()
	f := testEnv(t)
	return NewNode(Config{
		ID:      "node-1",
		DevAddr: 0x26010001,
		Pos:     center,
		Seed:    seed,
	}, f)
}

func at(mo time.Month, d, h, m int) time.Time {
	return time.Date(2017, mo, d, h, m, 0, 0, time.UTC)
}

func TestCodecRoundTrip(t *testing.T) {
	m := Measurement{
		CO2: 415, NO2: 23.4, PM10: 17.8, PM25: 9.2,
		TemperatureC: -4.5, HumidityPct: 82.3, PressureHPa: 1013.2, BatteryPct: 76.5,
	}
	buf := EncodeMeasurement(m)
	if len(buf) != 24 {
		t.Fatalf("payload length %d, want 24", len(buf))
	}
	got, err := DecodeMeasurement(buf)
	if err != nil {
		t.Fatal(err)
	}
	close := func(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
	if !close(got.CO2, m.CO2, 0.5) || !close(got.NO2, m.NO2, 0.05) ||
		!close(got.PM10, m.PM10, 0.05) || !close(got.PM25, m.PM25, 0.05) ||
		!close(got.TemperatureC, m.TemperatureC, 0.05) ||
		!close(got.HumidityPct, m.HumidityPct, 0.05) ||
		!close(got.PressureHPa, m.PressureHPa, 0.05) ||
		!close(got.BatteryPct, m.BatteryPct, 0.05) {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
}

func TestCodecProperty(t *testing.T) {
	f := func(co2, no2, temp uint16, batt uint8) bool {
		m := Measurement{
			CO2:          float64(co2 % 3000),
			NO2:          float64(no2%2000) / 10,
			TemperatureC: float64(int(temp%800))/10 - 40,
			BatteryPct:   float64(batt) / 2.55,
			PressureHPa:  1000,
		}
		got, err := DecodeMeasurement(EncodeMeasurement(m))
		if err != nil {
			return false
		}
		return math.Abs(got.CO2-m.CO2) <= 0.5 &&
			math.Abs(got.NO2-m.NO2) <= 0.05 &&
			math.Abs(got.TemperatureC-m.TemperatureC) <= 0.05 &&
			math.Abs(got.BatteryPct-m.BatteryPct) <= 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsBadPayloads(t *testing.T) {
	if _, err := DecodeMeasurement([]byte{0x01, 0x02}); err != ErrShortPayload {
		t.Fatalf("short: %v", err)
	}
	if _, err := DecodeMeasurement([]byte{0xEE, 0x00, 0x01}); err == nil {
		t.Fatal("unknown channel should fail")
	}
}

func TestCodecClampsExtremes(t *testing.T) {
	m := Measurement{CO2: 1e9, NO2: -1e9, PressureHPa: 1000}
	got, err := DecodeMeasurement(EncodeMeasurement(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.CO2 != math.MaxInt16 {
		t.Fatalf("CO2 clamp: %v", got.CO2)
	}
	if got.NO2 != math.MinInt16/10.0 {
		t.Fatalf("NO2 clamp: %v", got.NO2)
	}
}

func TestBatteryChargesInSunDrainsAtNight(t *testing.T) {
	b := NewBattery()
	b.SetPercent(50)
	b.Advance(2*time.Hour, 600) // strong sun
	sunny := b.Percent()
	if sunny <= 50 {
		t.Fatalf("battery should charge in sun: %v", sunny)
	}
	b.Advance(10*time.Hour, 0) // night
	if b.Percent() >= sunny {
		t.Fatalf("battery should drain at night: %v vs %v", b.Percent(), sunny)
	}
}

func TestBatteryBounds(t *testing.T) {
	b := NewBattery()
	b.Advance(1000*time.Hour, 1000)
	if b.Percent() > 100 {
		t.Fatalf("overcharge: %v", b.Percent())
	}
	b.Advance(10000*time.Hour, 0)
	if b.Percent() < 0 {
		t.Fatalf("negative charge: %v", b.Percent())
	}
	if !b.Empty() {
		t.Fatal("fully drained battery should be empty")
	}
	if b.Transmit() {
		t.Fatal("empty battery cannot transmit")
	}
	b.SetPercent(50)
	if !b.Transmit() {
		t.Fatal("charged battery should transmit")
	}
}

func TestNodeStepProducesUplinkAtInterval(t *testing.T) {
	n := testNode(t, 1)
	start := at(time.June, 1, 12, 0)
	var txs int
	for i := 0; i < 12; i++ { // one hour at 5-min ticks
		if tx := n.Step(start.Add(time.Duration(i) * 5 * time.Minute)); tx != nil {
			txs++
		}
	}
	if txs != 12 {
		t.Fatalf("expected 12 uplinks in an hour, got %d", txs)
	}
}

func TestNodeUplinkDecodes(t *testing.T) {
	n := testNode(t, 2)
	tx := n.Step(at(time.June, 1, 12, 0))
	if tx == nil {
		t.Fatal("expected transmission")
	}
	up, err := lorawanDecode(tx.Frame)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMeasurement(up.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.CO2 < 350 || m.CO2 > 700 {
		t.Fatalf("CO2 %v outside plausible range", m.CO2)
	}
	if m.BatteryPct <= 0 || m.BatteryPct > 100 {
		t.Fatalf("battery %v out of range", m.BatteryPct)
	}
	if up.FCnt != 1 {
		t.Fatalf("first frame count = %d", up.FCnt)
	}
}

func TestNodeFrameCounterIncrements(t *testing.T) {
	n := testNode(t, 3)
	start := at(time.June, 1, 0, 0)
	for i := 0; i < 5; i++ {
		n.Step(start.Add(time.Duration(i) * 5 * time.Minute))
	}
	if n.FrameCount() != 5 {
		t.Fatalf("fcnt = %d, want 5", n.FrameCount())
	}
}

func TestNodeBatteryDiurnalPattern(t *testing.T) {
	// Over a midsummer day, the battery must gain during daylight and
	// lose over the whole night — the structure of Fig. 4.
	n := testNode(t, 4)
	n.Battery.SetPercent(40) // headroom so charging is visible
	start := at(time.June, 20, 0, 0)
	levels := map[int]float64{}
	for i := 0; i <= 24*12; i++ {
		ts := start.Add(time.Duration(i) * 5 * time.Minute)
		n.Step(ts)
		levels[i] = n.Battery.Percent()
	}
	// Morning sun (hours 03-07 at midsummer in Trondheim) should show
	// net charging before the pack saturates.
	if levels[7*12] <= levels[3*12] {
		t.Fatalf("battery should charge over the morning: %v -> %v", levels[3*12], levels[7*12])
	}
	// Deep night (00-02, sun below horizon even at midsummer in
	// Trondheim's latitude — barely) should show net drain.
	if levels[2*12] >= levels[0] {
		t.Fatalf("battery should drain overnight: %v -> %v", levels[0], levels[2*12])
	}
}

func TestNodeAdaptiveIntervalOnLowBattery(t *testing.T) {
	n := testNode(t, 5)
	n.Battery.SetPercent(10)              // below the 25% threshold
	start := at(time.December, 20, 18, 0) // dark: no recharge
	var txs int
	for i := 0; i < 12; i++ {
		if tx := n.Step(start.Add(time.Duration(i) * 5 * time.Minute)); tx != nil {
			txs++
		}
	}
	// Doubled interval: ~6 uplinks instead of 12.
	if txs > 7 {
		t.Fatalf("low-battery node sent %d uplinks in an hour; adaptive interval not applied", txs)
	}
}

func TestNodeDeadFault(t *testing.T) {
	n := testNode(t, 6)
	failAt := at(time.June, 1, 12, 0)
	n.InjectFault(Fault{Kind: FaultDead, Start: failAt})
	if tx := n.Step(failAt.Add(-time.Hour)); tx == nil {
		t.Fatal("node should transmit before the fault")
	}
	if tx := n.Step(failAt.Add(time.Hour)); tx != nil {
		t.Fatal("dead node must not transmit")
	}
}

func TestNodeDropoutFault(t *testing.T) {
	n := testNode(t, 7)
	n.InjectFault(Fault{
		Kind:            FaultDropout,
		Start:           at(time.June, 1, 0, 0),
		DropProbability: 0.5,
	})
	start := at(time.June, 1, 0, 0)
	var txs int
	const ticks = 24 * 12
	for i := 0; i < ticks; i++ {
		if tx := n.Step(start.Add(time.Duration(i) * 5 * time.Minute)); tx != nil {
			txs++
		}
	}
	if txs >= ticks || txs == 0 {
		t.Fatalf("dropout fault: %d/%d uplinks; expected partial loss", txs, ticks)
	}
}

func TestNodeStuckFault(t *testing.T) {
	n := testNode(t, 8)
	stuckAt := at(time.June, 1, 6, 0)
	n.InjectFault(Fault{Kind: FaultStuck, Start: stuckAt})
	m1 := n.Sample(stuckAt.Add(10 * time.Minute))
	m2 := n.Sample(stuckAt.Add(6 * time.Hour))
	if m1.CO2 != m2.CO2 || m1.NO2 != m2.NO2 {
		t.Fatalf("stuck fault should freeze values: %v vs %v", m1.CO2, m2.CO2)
	}
	// After the fault window ends, values move again.
	n2 := testNode(t, 9)
	n2.InjectFault(Fault{Kind: FaultStuck, Start: stuckAt, End: stuckAt.Add(time.Hour)})
	a := n2.Sample(stuckAt.Add(30 * time.Minute))
	b := n2.Sample(stuckAt.Add(4 * time.Hour))
	if a.CO2 == b.CO2 {
		t.Fatal("values should unfreeze after fault window")
	}
}

func TestNodeDriftFault(t *testing.T) {
	f := testEnv(t)
	mk := func() *Node {
		return NewNode(Config{ID: "d", DevAddr: 0x42, Pos: center, Seed: 11}, f)
	}
	clean := mk()
	faulty := mk()
	start := at(time.June, 1, 0, 0)
	faulty.InjectFault(Fault{Kind: FaultDrift, Start: start})
	// After 20 days the drifting node should read clearly higher.
	later := start.AddDate(0, 0, 20)
	var sumClean, sumFaulty float64
	for i := 0; i < 10; i++ {
		ts := later.Add(time.Duration(i) * time.Hour)
		sumClean += clean.Sample(ts).CO2
		sumFaulty += faulty.Sample(ts).CO2
	}
	if sumFaulty-sumClean < 100 { // 2 ppm/day × 20 days × 10 samples ≈ 400
		t.Fatalf("drift fault not visible: clean %v faulty %v", sumClean/10, sumFaulty/10)
	}
}

func TestNodeMiscalibrationVariesAcrossUnits(t *testing.T) {
	f := testEnv(t)
	gains := map[float64]bool{}
	for i := 0; i < 8; i++ {
		n := NewNode(Config{ID: "x", DevAddr: lorawanAddr(i), Pos: center, Seed: 100}, f)
		g, _ := n.TrueCalibration()
		gains[g] = true
	}
	if len(gains) < 6 {
		t.Fatalf("units share calibration: %d distinct gains of 8", len(gains))
	}
}

func TestNodeDeterministicPerSeed(t *testing.T) {
	a := testNode(t, 42)
	b := testNode(t, 42)
	ts := at(time.June, 1, 12, 0)
	if a.Sample(ts).CO2 != b.Sample(ts).CO2 {
		t.Fatal("same seed should reproduce samples")
	}
}

func TestLastMeasurement(t *testing.T) {
	n := testNode(t, 12)
	if _, ok := n.LastMeasurement(); ok {
		t.Fatal("no measurement before first step")
	}
	n.Step(at(time.June, 1, 12, 0))
	if _, ok := n.LastMeasurement(); !ok {
		t.Fatal("measurement should be recorded after step")
	}
}

func lorawanDecode(frame []byte) (*lorawan.Uplink, error) { return lorawan.Decode(frame) }

func lorawanAddr(i int) lorawan.DevAddr { return lorawan.DevAddr(0x26010000 + i) }

func TestDownlinkCommandCodec(t *testing.T) {
	if _, err := EncodeSetInterval(0); err == nil {
		t.Fatal("interval 0 should be rejected")
	}
	if _, err := EncodeSetInterval(121); err == nil {
		t.Fatal("interval 121 should be rejected")
	}
	if _, err := EncodeSetLowBattery(95); err == nil {
		t.Fatal("threshold 95 should be rejected")
	}
	p, err := EncodeSetInterval(15)
	if err != nil || p[0] != CmdSetIntervalMin || p[1] != 15 {
		t.Fatalf("encode: %v %v", p, err)
	}
}

func TestHandleDownlinkSetsInterval(t *testing.T) {
	n := testNode(t, 20)
	p, _ := EncodeSetInterval(15)
	if err := n.HandleDownlink(p); err != nil {
		t.Fatal(err)
	}
	if n.Config.Interval != 15*time.Minute {
		t.Fatalf("interval = %v", n.Config.Interval)
	}
	// The new interval takes effect: only ~4 uplinks per hour.
	start := at(time.June, 1, 12, 0)
	var txs int
	for i := 0; i < 12; i++ {
		if tx := n.Step(start.Add(time.Duration(i) * 5 * time.Minute)); tx != nil {
			txs++
		}
	}
	if txs > 4 {
		t.Fatalf("15-min interval should cap uplinks at 4/h, got %d", txs)
	}
}

func TestHandleDownlinkMultipleCommands(t *testing.T) {
	n := testNode(t, 21)
	p1, _ := EncodeSetInterval(10)
	p2, _ := EncodeSetLowBattery(40)
	if err := n.HandleDownlink(append(p1, p2...)); err != nil {
		t.Fatal(err)
	}
	if n.Config.Interval != 10*time.Minute || n.Config.LowBatteryPct != 40 {
		t.Fatalf("config: %v %v", n.Config.Interval, n.Config.LowBatteryPct)
	}
}

func TestHandleDownlinkErrors(t *testing.T) {
	n := testNode(t, 22)
	if err := n.HandleDownlink(nil); err != ErrBadCommand {
		t.Fatalf("empty: %v", err)
	}
	if err := n.HandleDownlink([]byte{0x01}); err != ErrBadCommand {
		t.Fatalf("odd length: %v", err)
	}
	if err := n.HandleDownlink([]byte{0xEE, 0x01}); err == nil {
		t.Fatal("unknown command should error")
	}
	if err := n.HandleDownlink([]byte{CmdSetIntervalMin, 0}); err == nil {
		t.Fatal("zero interval should error")
	}
}
