package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/mqtt"
	"repro/internal/sensors"
	"repro/internal/tsdb"
	"repro/internal/tsdb/fsio"
	"repro/internal/ttn"
)

// uplinkJSON renders the document the TTN backend would publish for
// one decoded uplink of dev at PilotStart + seq minutes.
func uplinkJSON(t *testing.T, dev string, seq int) []byte {
	t.Helper()
	at := PilotStart.Add(time.Duration(seq) * time.Minute)
	data, err := json.Marshal(ttn.UplinkMessage{
		AppID: AppID, DevID: dev, Counter: uint16(seq),
		Fields: &sensors.Measurement{Time: at, CO2: 400 + float64(seq), NO2: 20, PM10: 10, PM25: 5,
			TemperatureC: 3, HumidityPct: 80, PressureHPa: 1010, BatteryPct: 90},
		Metadata: ttn.Metadata{Time: at, Gateways: []ttn.GatewayMeta{{GatewayID: "gw-01", RSSI: -100 - float64(seq%20)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestIngestorConcurrentHandleMQTT: broker handlers may deliver
// uplinks concurrently, for one device and for several. First uplinks
// racing to intern a device's refs must agree on them, and every
// uplink must land whole, once. Run under -race.
func TestIngestorConcurrentHandleMQTT(t *testing.T) {
	const perWorker, workers = 50, 4
	s := newSystem(t, VejleConfig(1))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for _, dev := range []string{"dev-shared", fmt.Sprintf("dev-%d", w)} {
			payloads := make([][]byte, perWorker)
			for i := range payloads {
				// Workers sharing a device write disjoint minutes.
				payloads[i] = uplinkJSON(t, dev, w*perWorker+i)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, p := range payloads {
					s.ingestor.HandleMQTT(mqtt.Message{Payload: p})
				}
			}()
		}
	}
	wg.Wait()

	if got, want := s.IngestCount(), 2*workers*perWorker; got != want {
		t.Fatalf("ingested %d uplinks, want %d", got, want)
	}
	if got, want := s.DB.SeriesCount(), (workers+1)*len(uplinkMetrics); got != want {
		t.Fatalf("%d series, want %d", got, want)
	}
	for dev, want := range map[string]int{"dev-shared": workers * perWorker, "dev-2": perWorker} {
		for _, metric := range uplinkMetrics {
			pts, err := s.DB.SeriesWindowExact(metric, map[string]string{"sensor": dev, "city": "vejle"}, 0, math.MaxInt64/2)
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != want {
				t.Fatalf("%s %s: %d points, want %d", dev, metric, len(pts), want)
			}
		}
	}
}

// TestIngestorSurfacesStoreFailure: a store that has gone read-only
// refuses the uplink's batch; the Direct transport must see that as an
// error from Publish, and nothing of the uplink is counted as stored.
func TestIngestorSurfacesStoreFailure(t *testing.T) {
	ffs := fsio.NewFaultFS(fsio.OS)
	cfg := VejleConfig(1)
	cfg.Storage = &tsdb.Options{Dir: t.TempDir(), FlushInterval: -1, FS: ffs}
	s := newSystem(t, cfg)
	if err := s.ingestor.Publish("", uplinkJSON(t, "dev-1", 0), 1, false); err != nil {
		t.Fatal(err)
	}
	ffs.SetPlan(func(op fsio.Op, path string, n int64) *fsio.Fault {
		if op == fsio.OpSync {
			return &fsio.Fault{Err: syscall.EIO}
		}
		return nil
	})
	if err := s.DB.Sync(); err == nil {
		t.Fatal("Sync succeeded through a failing fsync")
	}
	points := s.DB.PointCount()
	err := s.ingestor.Publish("", uplinkJSON(t, "dev-1", 1), 1, false)
	if !errors.Is(err, tsdb.ErrDegraded) {
		t.Fatalf("Publish on a degraded store: %v, want ErrDegraded", err)
	}
	if s.IngestCount() != 1 || s.DB.PointCount() != points {
		t.Fatalf("refused uplink counted: %d uplinks, %d → %d points", s.IngestCount(), points, s.DB.PointCount())
	}
	// The whole pipeline reports it too: a tick that produces uplinks
	// fails instead of dropping them silently.
	var stepErr error
	for i := 0; i < 3 && stepErr == nil; i++ {
		stepErr = s.Step()
	}
	if !errors.Is(stepErr, tsdb.ErrDegraded) {
		t.Fatalf("Step on a degraded store: %v, want ErrDegraded", stepErr)
	}
}

// TestIngestorReinternsAfterRetention: a device silent for longer than
// the raw retention loses its series; its cached refs are dead. The next
// uplink must be written through the live refs of the re-created series
// — observers key their state by the ref they are handed — not through
// the dead ones (which the store would resurrect under a new ID).
func TestIngestorReinternsAfterRetention(t *testing.T) {
	s := newSystem(t, VejleConfig(1))
	if err := s.ingestor.Publish("", uplinkJSON(t, "dev-1", 0), 1, false); err != nil {
		t.Fatal(err)
	}
	if n, err := s.DB.DeleteBefore(PilotStart.Add(time.Hour).UnixMilli()); err != nil || n != len(uplinkMetrics) {
		t.Fatalf("retention removed %d points (%v), want the uplink's %d", n, err, len(uplinkMetrics))
	}
	var seen []tsdb.RefPoint
	defer s.DB.AddBatchObserver(func(rps []tsdb.RefPoint) { seen = append(seen, rps...) })()
	if err := s.ingestor.Publish("", uplinkJSON(t, "dev-1", 120), 1, false); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(uplinkMetrics) {
		t.Fatalf("observed %d points, want one batch of %d", len(seen), len(uplinkMetrics))
	}
	for i, rp := range seen {
		live, err := s.DB.Intern(uplinkMetrics[i], map[string]string{"sensor": "dev-1", "city": "vejle"})
		if err != nil {
			t.Fatal(err)
		}
		if !rp.Ref.Live() || rp.Ref != live {
			t.Fatalf("%s written through ref %d (live %v), want the series' current ref %d",
				uplinkMetrics[i], rp.Ref.ID(), rp.Ref.Live(), live.ID())
		}
	}
	if got, want := s.DB.PointCount(), len(uplinkMetrics); got != want {
		t.Fatalf("%d points after the second uplink, want %d", got, want)
	}
}
