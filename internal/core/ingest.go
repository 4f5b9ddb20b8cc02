package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/dataport"
	"repro/internal/mqtt"
	"repro/internal/tsdb"
	"repro/internal/ttn"
)

// Ingestor is the storage end of the pipeline: it parses TTN uplink
// messages and fans them into the time-series database (one metric per
// measured quantity, tagged by sensor and city; a device's series are
// interned once and an uplink is one AppendRefs batch — one WAL record,
// one observer fan-out) and into the dataport digital twins. It
// implements ttn.Publisher so the Direct transport can call it
// synchronously, and HandleMQTT for the broker path.
type Ingestor struct {
	db       *tsdb.DB
	dp       *dataport.Dataport
	city     string
	onIngest func()

	devs sync.Map // device ID → *deviceRefs; broker handlers may run concurrently
}

// deviceRefs are one device's series, in uplinkMetrics order.
type deviceRefs [len(uplinkMetrics)]*tsdb.Ref

// Metric names written per uplink.
const (
	MetricCO2      = "air.co2"
	MetricNO2      = "air.no2"
	MetricPM10     = "air.pm10"
	MetricPM25     = "air.pm25"
	MetricTemp     = "env.temperature"
	MetricHumidity = "env.humidity"
	MetricPressure = "env.pressure"
	MetricBattery  = "node.battery"
	MetricRSSI     = "net.rssi"
)

// uplinkMetrics is the order of an uplink's batch; RSSI, absent when
// no gateway reported the frame, comes last.
var uplinkMetrics = [...]string{MetricCO2, MetricNO2, MetricPM10, MetricPM25,
	MetricTemp, MetricHumidity, MetricPressure, MetricBattery, MetricRSSI}

// refsFor returns a device's series, interned on its first uplink
// (racing first uplinks intern the same refs) and again once retention
// has removed one: observers key their state by the ref they are handed.
func (ing *Ingestor) refsFor(devID string) (*deviceRefs, error) {
	if v, ok := ing.devs.Load(devID); ok {
		refs := v.(*deviceRefs)
		if !slices.ContainsFunc(refs[:], func(r *tsdb.Ref) bool { return !r.Live() }) {
			return refs, nil
		}
	}
	refs := new(deviceRefs)
	tags := map[string]string{"sensor": devID, "city": ing.city}
	for i, metric := range uplinkMetrics {
		ref, err := ing.db.Intern(metric, tags)
		if err != nil {
			return nil, fmt.Errorf("core: store %s: %w", metric, err)
		}
		refs[i] = ref
	}
	ing.devs.Store(devID, refs)
	return refs, nil
}

// Publish implements ttn.Publisher (Direct transport).
func (ing *Ingestor) Publish(topic string, payload []byte, qos byte, retain bool) error {
	return ing.handle(payload)
}

// HandleMQTT processes a message delivered by the broker.
func (ing *Ingestor) HandleMQTT(m mqtt.Message) {
	// Subscription handlers must not fail the connection; parse errors
	// are counted by dropping silently here and surfacing through
	// storage counts in tests.
	ing.handle(m.Payload)
}

func (ing *Ingestor) handle(payload []byte) error {
	msg, err := ttn.ParseUplink(payload)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if msg.Fields == nil {
		return fmt.Errorf("core: uplink %s has no decoded fields", msg.DevID)
	}
	m := msg.Fields
	ts := msg.Metadata.Time.UnixMilli()
	if !tsdb.ValidTimestamp(ts) {
		return fmt.Errorf("core: uplink %s: %w: %d", msg.DevID, tsdb.ErrBadTimestamp, ts)
	}
	refs, err := ing.refsFor(msg.DevID)
	if err != nil {
		return err
	}
	rps := make([]tsdb.RefPoint, 0, len(uplinkMetrics))
	add := func(v float64) {
		rps = append(rps, tsdb.RefPoint{Ref: refs[len(rps)], Point: tsdb.Point{Timestamp: ts, Value: v}})
	}
	for _, v := range [...]float64{m.CO2, m.NO2, m.PM10, m.PM25,
		m.TemperatureC, m.HumidityPct, m.PressureHPa, m.BatteryPct} {
		add(v)
	}
	// Best-gateway RSSI as link-quality telemetry.
	var gwIDs []string
	bestRSSI := 0.0
	for i, g := range msg.Metadata.Gateways {
		gwIDs = append(gwIDs, g.GatewayID)
		if i == 0 {
			bestRSSI = g.RSSI
			add(g.RSSI)
		}
	}
	// A batch of valid refs fails only whole (refused WAL append,
	// degraded store), so one error speaks for the uplink.
	if res := ing.db.AppendRefs(rps); len(res.Errors) > 0 {
		return fmt.Errorf("core: store uplink %s: %w", msg.DevID, res.Errors[0].Err)
	}

	ing.dp.ObserveUplink(dataport.UplinkObservation{
		DeviceID:   msg.DevID,
		GatewayIDs: gwIDs,
		Time:       msg.Metadata.Time,
		BatteryPct: m.BatteryPct,
		FCnt:       msg.Counter,
		RSSI:       bestRSSI,
	})
	if ing.onIngest != nil {
		ing.onIngest()
	}
	return nil
}
