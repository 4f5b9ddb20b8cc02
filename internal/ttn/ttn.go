// Package ttn simulates The Things Network backend the paper's
// backbone forwards into (Fig. 2, stages 3–5): a LoRaWAN network
// server that deduplicates multi-gateway receptions of the same frame,
// validates frame counters against replays, decodes application
// payloads, and publishes TTN-v2-style JSON uplink messages over MQTT
// on topics of the form
//
//	<appID>/devices/<devID>/up
//
// The MQTT dependency is an interface so the network server can run
// against the real broker in internal/mqtt or a test double.
package ttn

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/lorawan"
	"repro/internal/sensors"
)

// Publisher abstracts the MQTT client (or any transport).
type Publisher interface {
	Publish(topic string, payload []byte, qos byte, retain bool) error
}

// Device is a registered end device.
type Device struct {
	ID      string // human name, e.g. "ctt-node-03"
	DevAddr lorawan.DevAddr
}

// GatewayMeta is per-gateway reception metadata attached to an uplink.
type GatewayMeta struct {
	GatewayID string  `json:"gtw_id"`
	RSSI      float64 `json:"rssi"`
	SNR       float64 `json:"snr"`
}

// UplinkMessage is the JSON document published per deduplicated uplink,
// following the shape of TTN v2 data API messages.
type UplinkMessage struct {
	AppID      string               `json:"app_id"`
	DevID      string               `json:"dev_id"`
	DevAddr    string               `json:"dev_addr"`
	Port       uint8                `json:"port"`
	Counter    uint16               `json:"counter"`
	PayloadRaw []byte               `json:"payload_raw"` // base64 in JSON
	Fields     *sensors.Measurement `json:"payload_fields,omitempty"`
	Metadata   Metadata             `json:"metadata"`
}

// Metadata carries reception context.
type Metadata struct {
	Time     time.Time     `json:"time"`
	DataRate string        `json:"data_rate"`
	Channel  int           `json:"frequency_channel"`
	Gateways []GatewayMeta `json:"gateways"`
}

// Stats counts network-server activity.
type Stats struct {
	FramesIn       uint64 // gateway receptions ingested
	UplinksOut     uint64 // deduplicated uplinks published
	Duplicates     uint64 // receptions merged into an existing uplink
	ReplaysDropped uint64
	DecodeErrors   uint64
	UnknownDevice  uint64
}

// NetworkServer is the TTN backend simulation.
type NetworkServer struct {
	AppID string
	// DedupWindow: receptions of the same (DevAddr, FCnt) within this
	// window count as one uplink. LoRa reception spread across
	// gateways is sub-second; 2 s is the TTN default neighbourhood.
	DedupWindow time.Duration

	pub Publisher

	mu        sync.Mutex
	devices   map[lorawan.DevAddr]Device
	lastFCnt  map[lorawan.DevAddr]uint16
	seenFCnt  map[lorawan.DevAddr]bool
	pending   map[dedupKey]*pendingUplink
	downlinks map[lorawan.DevAddr][]byte
	stats     Stats
}

type dedupKey struct {
	addr lorawan.DevAddr
	fcnt uint16
}

type pendingUplink struct {
	uplink   *lorawan.Uplink
	deviceID string
	sf       lorawan.SpreadingFactor
	ch       int
	first    time.Time
	gateways []GatewayMeta
}

// NewNetworkServer creates a network server publishing via pub.
func NewNetworkServer(appID string, pub Publisher) *NetworkServer {
	return &NetworkServer{
		AppID:       appID,
		DedupWindow: 2 * time.Second,
		pub:         pub,
		devices:     make(map[lorawan.DevAddr]Device),
		lastFCnt:    make(map[lorawan.DevAddr]uint16),
		seenFCnt:    make(map[lorawan.DevAddr]bool),
		pending:     make(map[dedupKey]*pendingUplink),
	}
}

// Register adds a device to the application.
func (ns *NetworkServer) Register(d Device) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.devices[d.DevAddr] = d
}

// Stats returns a snapshot of the counters.
func (ns *NetworkServer) Stats() Stats {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.stats
}

// Ingest processes a batch of gateway receptions at simulated time now,
// then flushes every pending uplink whose dedup window has expired.
// It returns the uplink messages published in this call.
func (ns *NetworkServer) Ingest(recs []lorawan.Reception, now time.Time) ([]*UplinkMessage, error) {
	ns.mu.Lock()
	for _, rec := range recs {
		ns.stats.FramesIn++
		up, err := lorawan.Decode(rec.Frame)
		if err != nil {
			ns.stats.DecodeErrors++
			continue
		}
		dev, ok := ns.devices[up.DevAddr]
		if !ok {
			ns.stats.UnknownDevice++
			continue
		}
		key := dedupKey{up.DevAddr, up.FCnt}
		if p, ok := ns.pending[key]; ok {
			p.gateways = append(p.gateways, GatewayMeta{rec.GatewayID, rec.RSSI, rec.SNR})
			ns.stats.Duplicates++
			continue
		}
		// Frame-counter replay protection: a frame counter at or below
		// the last accepted one is a replay, unless the counter wrapped
		// (small counters after large are accepted as wrap).
		if ns.seenFCnt[up.DevAddr] {
			last := ns.lastFCnt[up.DevAddr]
			if up.FCnt <= last && !(last > 65000 && up.FCnt < 1000) {
				ns.stats.ReplaysDropped++
				continue
			}
		}
		ns.pending[key] = &pendingUplink{
			uplink:   up,
			deviceID: dev.ID,
			sf:       rec.SF,
			ch:       rec.Chan,
			first:    now,
			gateways: []GatewayMeta{{rec.GatewayID, rec.RSSI, rec.SNR}},
		}
		ns.lastFCnt[up.DevAddr] = up.FCnt
		ns.seenFCnt[up.DevAddr] = true
	}

	// Flush expired dedup windows.
	var due []*pendingUplink
	for key, p := range ns.pending {
		if now.Sub(p.first) >= ns.DedupWindow {
			due = append(due, p)
			delete(ns.pending, key)
		}
	}
	ns.mu.Unlock()

	sort.Slice(due, func(i, j int) bool {
		if !due[i].first.Equal(due[j].first) {
			return due[i].first.Before(due[j].first)
		}
		return due[i].deviceID < due[j].deviceID
	})
	var out []*UplinkMessage
	for _, p := range due {
		msg, err := ns.publish(p)
		if err != nil {
			return out, err
		}
		out = append(out, msg)
	}
	return out, nil
}

// Flush publishes every pending uplink regardless of window age — used
// at simulation end.
func (ns *NetworkServer) Flush() ([]*UplinkMessage, error) {
	ns.mu.Lock()
	var due []*pendingUplink
	for key, p := range ns.pending {
		due = append(due, p)
		delete(ns.pending, key)
	}
	ns.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].first.Before(due[j].first) })
	var out []*UplinkMessage
	for _, p := range due {
		msg, err := ns.publish(p)
		if err != nil {
			return out, err
		}
		out = append(out, msg)
	}
	return out, nil
}

func (ns *NetworkServer) publish(p *pendingUplink) (*UplinkMessage, error) {
	// Sort gateway metadata by descending RSSI (best reception first),
	// matching TTN behaviour.
	sort.Slice(p.gateways, func(i, j int) bool { return p.gateways[i].RSSI > p.gateways[j].RSSI })

	msg := &UplinkMessage{
		AppID:      ns.AppID,
		DevID:      p.deviceID,
		DevAddr:    p.uplink.DevAddr.String(),
		Port:       p.uplink.FPort,
		Counter:    p.uplink.FCnt,
		PayloadRaw: p.uplink.Payload,
		Metadata: Metadata{
			Time:     p.first,
			DataRate: fmt.Sprintf("%s/125kHz", p.sf),
			Channel:  p.ch,
			Gateways: p.gateways,
		},
	}
	if m, err := sensors.DecodeMeasurement(p.uplink.Payload); err == nil {
		m.Time = p.first
		msg.Fields = &m
	}

	data, err := appendUplink(make([]byte, 0, 512), msg)
	if err != nil {
		return nil, fmt.Errorf("ttn: marshal uplink: %w", err)
	}
	topic := UplinkTopic(ns.AppID, p.deviceID)
	if ns.pub != nil {
		if err := ns.pub.Publish(topic, data, 1, false); err != nil {
			return nil, fmt.Errorf("ttn: publish: %w", err)
		}
	}
	ns.mu.Lock()
	ns.stats.UplinksOut++
	ns.mu.Unlock()
	return msg, nil
}

// UplinkTopic returns the MQTT topic for a device's uplinks.
func UplinkTopic(appID, devID string) string {
	return appID + "/devices/" + devID + "/up"
}

// UplinkWildcard returns the filter matching all device uplinks of an
// application.
func UplinkWildcard(appID string) string {
	return appID + "/devices/+/up"
}
