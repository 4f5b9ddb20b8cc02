// Package core assembles the complete CTT system of the paper's
// Fig. 1: a city-wide IoT sensor network (simulated sensor nodes and
// LoRaWAN radio), the cloud data-collection path (TTN network server →
// MQTT → time-series database), the dataport monitoring application,
// external data integration, and the analysis/visualization layer.
//
// The system advances on a simulated clock in fixed ticks. Each tick:
//
//  1. every sensor node decides whether to sample and transmit,
//  2. the radio network resolves transmissions into gateway receptions,
//  3. the TTN backend deduplicates and publishes uplink JSON,
//  4. the ingestor stores measurements in the TSDB and feeds the
//     dataport's digital twins,
//  5. external feeds (traffic jam factor) are ingested alongside.
//
// Two transports are supported: Direct (the TTN backend hands uplinks
// straight to the ingestor — fast, fully deterministic, used by the
// benches) and MQTT (uplinks travel through the real TCP broker in
// internal/mqtt — used by the demo binaries and integration tests).
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dataport"
	"repro/internal/emissions"
	"repro/internal/geo"
	"repro/internal/lorawan"
	"repro/internal/mqtt"
	"repro/internal/sensors"
	"repro/internal/traffic"
	"repro/internal/tsdb"
	"repro/internal/ttn"
	"repro/internal/weather"
)

// Transport selects how uplinks travel from the TTN backend to storage.
type Transport int

// Transports.
const (
	// Direct wires the network server straight into the ingestor.
	Direct Transport = iota
	// MQTT routes uplinks through a real TCP broker.
	MQTT
)

// Config describes a deployment.
type Config struct {
	City   string
	Center geo.LatLon
	Seed   int64
	// Sensors and gateways to deploy. When empty, Deploy* helpers
	// populate them.
	SensorPositions  []geo.LatLon
	GatewayPositions []geo.LatLon
	// Interval is the sensor reporting interval (paper: 5 minutes).
	Interval time.Duration
	// Start is the simulation epoch (paper: data collected since
	// January 2017).
	Start time.Time
	// Transport selects Direct or MQTT.
	Transport Transport
	// Storage configures the store (data dir, flush cadence,
	// compaction); nil keeps it in memory. Storage.Now defaults to the
	// simulated clock so flush cutoffs track simulation time.
	Storage *tsdb.Options
	// CityRadiusM bounds the synthetic road network.
	CityRadiusM float64
}

// System is a running CTT deployment.
type System struct {
	Config

	Weather  *weather.Model
	Traffic  *traffic.Network
	Field    *emissions.Field
	Radio    *lorawan.Network
	Nodes    []*sensors.Node
	NS       *ttn.NetworkServer
	DB       *tsdb.DB
	Dataport *dataport.Dataport

	// MQTT path (nil in Direct mode).
	Broker    *mqtt.Broker
	pubClient *mqtt.Client
	subClient *mqtt.Client

	ingestor *Ingestor
	now      time.Time

	mu          sync.Mutex
	ingestCount int
	ingestCond  *sync.Cond
}

// AppID is the TTN application identifier used throughout.
const AppID = "ctt"

// New assembles a system. Call Close when done.
func New(cfg Config) (*System, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Minute
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2017, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	if cfg.CityRadiusM <= 0 {
		cfg.CityRadiusM = 3000
	}
	if len(cfg.GatewayPositions) == 0 {
		cfg.GatewayPositions = []geo.LatLon{cfg.Center}
	}

	s := &System{Config: cfg, now: cfg.Start}
	s.ingestCond = sync.NewCond(&s.mu)

	s.Weather = weather.NewModel(cfg.Center.Lat, cfg.Center.Lon, cfg.Seed)
	s.Traffic = traffic.NewNetwork(traffic.GenerateGridNetwork(cfg.Center, cfg.CityRadiusM, cfg.Seed), cfg.Seed)
	s.Field = emissions.NewField(s.Weather, s.Traffic)

	var gws []*lorawan.Gateway
	for i, pos := range cfg.GatewayPositions {
		gws = append(gws, lorawan.NewGateway(fmt.Sprintf("gw-%02d", i+1), pos))
	}
	s.Radio = lorawan.NewNetwork(cfg.Seed, gws...)

	var opts tsdb.Options
	if cfg.Storage != nil {
		opts = *cfg.Storage
	}
	if opts.Now == nil {
		// Flush-age cutoffs must track the simulated clock, not the
		// wall clock — pilots replay months of 2017 history in seconds
		// of real time.
		opts.Now = s.Now
	}
	db, err := tsdb.OpenOptions(opts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.DB = db

	dp, err := dataport.New(dataport.Config{DefaultInterval: cfg.Interval})
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("core: %w", err)
	}
	s.Dataport = dp
	for _, gw := range gws {
		if err := dp.RegisterGateway(gw.ID, gw.Pos); err != nil {
			s.Close()
			return nil, err
		}
	}

	s.ingestor = &Ingestor{db: db, dp: dp, city: cfg.City, onIngest: s.noteIngest}

	// Transport wiring.
	switch cfg.Transport {
	case MQTT:
		broker := mqtt.NewBroker()
		addr, err := broker.Start("127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("core: broker: %w", err)
		}
		s.Broker = broker
		pub, err := mqtt.Dial(addr.String(), "ttn-backend", mqtt.DialOptions{})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("core: publisher: %w", err)
		}
		s.pubClient = pub
		sub, err := mqtt.Dial(addr.String(), "ingestor", mqtt.DialOptions{})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("core: subscriber: %w", err)
		}
		s.subClient = sub
		if err := sub.Subscribe(ttn.UplinkWildcard(AppID), 1, func(m mqtt.Message) {
			s.ingestor.HandleMQTT(m)
		}); err != nil {
			s.Close()
			return nil, fmt.Errorf("core: subscribe: %w", err)
		}
		s.NS = ttn.NewNetworkServer(AppID, mqttPublisher{pub})
		// Applications schedule downlinks over MQTT (TTN v2 "down"
		// topics); the network server consumes them from the broker.
		if err := sub.Subscribe(ttn.DownlinkWildcard(AppID), 1, func(m mqtt.Message) {
			if dev := ttn.DeviceIDFromDownlinkTopic(AppID, m.Topic); dev != "" {
				s.NS.QueueDownlink(dev, m.Payload)
			}
		}); err != nil {
			s.Close()
			return nil, fmt.Errorf("core: subscribe down: %w", err)
		}
	default:
		s.NS = ttn.NewNetworkServer(AppID, s.ingestor)
	}

	// Deploy sensor nodes.
	for i, pos := range cfg.SensorPositions {
		id := fmt.Sprintf("ctt-node-%02d", i+1)
		addr := lorawan.DevAddr(0x26010000 + uint32(i) + 1)
		node := sensors.NewNode(sensors.Config{
			ID: id, DevAddr: addr, Pos: pos,
			Interval: cfg.Interval, Seed: cfg.Seed + int64(i)*101,
		}, s.Field)
		s.Nodes = append(s.Nodes, node)
		s.NS.Register(ttn.Device{ID: id, DevAddr: addr})
		if err := dp.RegisterSensor(id, pos, cfg.Interval); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// mqttPublisher adapts the MQTT client to the ttn.Publisher interface.
type mqttPublisher struct{ c *mqtt.Client }

func (p mqttPublisher) Publish(topic string, payload []byte, qos byte, retain bool) error {
	return p.c.Publish(topic, payload, qos, retain)
}

func (s *System) noteIngest() {
	s.mu.Lock()
	s.ingestCount++
	s.ingestCond.Broadcast()
	s.mu.Unlock()
}

// IngestCount returns the number of uplinks stored so far.
func (s *System) IngestCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ingestCount
}

// waitIngested blocks until at least n uplinks have been stored (used
// to make the async MQTT path deterministic) or the timeout passes.
func (s *System) waitIngested(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.ingestCount < n {
		if time.Now().After(deadline) {
			return false
		}
		// Cond has no timed wait; poll in small slices.
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
		s.mu.Lock()
	}
	return true
}

// Now returns the current simulated time. Safe to call concurrently
// with StepBy (servers read the clock from HTTP handlers while a
// ticker goroutine steps the simulation).
func (s *System) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Node returns the node with the given ID, or nil.
func (s *System) Node(id string) *sensors.Node {
	for _, n := range s.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// Step advances the simulation by one tick of the configured interval.
func (s *System) Step() error { return s.StepBy(s.Interval) }

// StepBy advances the simulation by d, processing one radio round at
// the new time.
func (s *System) StepBy(d time.Duration) error {
	s.mu.Lock()
	s.now = s.now.Add(d)
	t := s.now
	s.mu.Unlock()

	// 1. Sensor nodes sample/transmit.
	var txs []lorawan.Transmission
	for _, n := range s.Nodes {
		if tx := n.Step(t); tx != nil {
			txs = append(txs, *tx)
		}
	}
	// 2. Radio resolution.
	recs := s.Radio.Resolve(txs)
	// 3+4. Backend ingest; flush the dedup window within the tick.
	before := s.IngestCount()
	if _, err := s.NS.Ingest(recs, t); err != nil {
		return fmt.Errorf("core: ingest: %w", err)
	}
	published, err := s.NS.Ingest(nil, t.Add(3*time.Second))
	if err != nil {
		return fmt.Errorf("core: flush: %w", err)
	}
	if s.Transport == MQTT {
		// The broker path is asynchronous; wait for the ingestor.
		s.waitIngested(before+len(published), 5*time.Second)
	}
	// Class-A receive windows: each device whose uplink was received
	// gets any pending downlink immediately after.
	for _, msg := range published {
		node := s.Node(msg.DevID)
		if node == nil {
			continue
		}
		if payload, ok := s.NS.PopDownlink(node.DevAddr); ok {
			node.HandleDownlink(payload)
		}
	}
	// Backbone liveness accompanies the tick (MQTT keepalive stand-in).
	s.Dataport.ObserveBackbone(t)

	// 5. External feeds: city jam factor into the TSDB.
	if s.Traffic != nil {
		ts := t.UnixMilli()
		if !tsdb.ValidTimestamp(ts) {
			return fmt.Errorf("core: traffic ingest: %w: %d", tsdb.ErrBadTimestamp, ts)
		}
		ref, err := s.DB.Intern("traffic.jamfactor", map[string]string{"city": s.City})
		if err != nil {
			return fmt.Errorf("core: traffic ingest: %w", err)
		}
		jf := s.Traffic.CityJamFactor(t)
		res := s.DB.AppendRefs([]tsdb.RefPoint{{Ref: ref, Point: tsdb.Point{Timestamp: ts, Value: jf}}})
		if len(res.Errors) > 0 {
			return fmt.Errorf("core: traffic ingest: %w", res.Errors[0].Err)
		}
	}
	return nil
}

// SendCommand schedules a downlink command for a device. In Direct
// mode it queues on the network server; in MQTT mode it publishes to
// the device's TTN "down" topic, exactly as an external application
// would ("cloud sensor management ... through the event-driven MQTT
// communication protocol", §2.1).
func (s *System) SendCommand(devID string, payload []byte) error {
	if s.Transport == MQTT {
		return s.pubClient.Publish(ttn.DownlinkTopic(AppID, devID), payload, 1, false)
	}
	return s.NS.QueueDownlink(devID, payload)
}

// Run advances the simulation for the given duration, returning the
// number of ticks executed.
func (s *System) Run(d time.Duration) (int, error) {
	ticks := int(d / s.Interval)
	for i := 0; i < ticks; i++ {
		if err := s.Step(); err != nil {
			return i, err
		}
	}
	return ticks, nil
}

// Close tears everything down.
func (s *System) Close() error {
	if s.subClient != nil {
		s.subClient.Close()
	}
	if s.pubClient != nil {
		s.pubClient.Close()
	}
	if s.Broker != nil {
		s.Broker.Close()
	}
	if s.Dataport != nil {
		s.Dataport.Close()
	}
	if s.DB != nil {
		return s.DB.Close()
	}
	return nil
}
