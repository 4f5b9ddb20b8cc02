// Gateway benchmarks: ingest throughput and query latency of the
// internal/api HTTP gateway, the perf baseline for the network-facing
// path (sensor batches in via /api/put, dashboards out via
// /api/query).
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/rollup"
	"repro/internal/tsdb"
)

// gatewayPutBatch renders an /api/put JSON array of n points for one
// sensor starting at startMS, one point per second.
func gatewayPutBatch(n int, sensor string, startMS int64) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"metric":"air.co2","timestamp":%d,"value":%d,"tags":{"sensor":%q,"city":"bench"}}`,
			startMS+int64(i)*1000, 400+i%50, sensor)
	}
	b.WriteByte(']')
	return b.Bytes()
}

// BenchmarkGatewayIngest measures /api/put throughput end to end
// (HTTP parse → validate → queue → worker batch → store), in
// points/second, for OpenTSDB-style 100-point batches.
func BenchmarkGatewayIngest(b *testing.B) {
	db, err := tsdb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	gw := api.New(db, nil, api.Config{QueueSize: 1 << 16})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	const batch = 100
	startMS := time.Date(2017, time.March, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = gatewayPutBatch(batch, fmt.Sprintf("bench-%02d", i), startMS)
	}
	client := srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(srv.URL+"/api/put", "application/json",
			bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkIngestE2E measures the ingest hot path end to end — raw
// /api/put body bytes → one-pass decode → edge interning → bounded
// queue → worker group-commit into the store — without TCP in the
// way: the handler is driven directly, and the run does not finish
// until every point is stored. allocs/op is the number the CI gate
// watches: ~38 per 100-point batch at -benchtime 10x (2-vCPU Xeon),
// all of it request plumbing (recorder, request clone, readers,
// trace registration) and the store's amortized seal work — the
// decode itself allocates nothing, which BenchmarkDecodePut asserts.
func BenchmarkIngestE2E(b *testing.B) {
	db, err := tsdb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	gw := api.New(db, nil, api.Config{QueueSize: 1 << 16})
	defer gw.Close()
	handler := gw.Handler()

	const batch = 100
	startMS := time.Date(2017, time.March, 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = gatewayPutBatch(batch, fmt.Sprintf("e2e-%02d", i), startMS)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/put", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := req.Clone(req.Context())
		r.Body = io.NopCloser(bytes.NewReader(bodies[i%len(bodies)]))
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, r)
		if w.Code != http.StatusNoContent {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	// The batch is only "ingested" once a worker stored it: include
	// the drain in the measured window so points/s is true throughput.
	want := b.N * batch
	for db.PointCount() < want {
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(want)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkGatewayQuery measures /api/query latency over a 3-day
// Trondheim pilot store, cold (cache disabled) and cached, each as an
// identity/gzip pair. The request names its Accept-Encoding itself:
// srv.Client() left alone negotiates gzip and gunzips transparently,
// which would fold client-side decompression into every number.
func BenchmarkGatewayQuery(b *testing.B) {
	sys := sharedSys(b)
	run := func(b *testing.B, cfg api.Config, url, encoding string) {
		cfg.Now = sys.Now
		gw := api.New(sys.DB, sys.Dataport, cfg)
		defer gw.Close()
		srv := httptest.NewServer(gw.Handler())
		defer srv.Close()
		client := srv.Client()
		req, err := http.NewRequest(http.MethodGet, srv.URL+url, nil)
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", encoding)
		do := func() {
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d: %s", resp.StatusCode, body)
			}
		}
		// Two untimed requests: the fill, then the first hit (which
		// builds the gzip variant), so Cached times steady-state hits
		// only even at -benchtime 10x.
		do()
		do()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do()
		}
	}
	groupByHourly := "/api/query?start=3d-ago&m=avg:1h-avg:air.co2{sensor=*}"
	for _, bc := range []struct {
		name string
		cfg  api.Config
		url  string
	}{
		{"ColdGroupByDownsample", api.Config{CacheSize: -1}, groupByHourly},
		{"Cached", api.Config{CacheSize: 128, CacheAlign: time.Hour}, groupByHourly},
		{"ColdNetworkMean", api.Config{CacheSize: -1}, "/api/query?start=1d-ago&m=avg:air.no2"},
		// No downsample: every stored reading of every sensor is decoded
		// and encoded — the answer whose cost is the encoder's.
		{"ColdRawGroupBy", api.Config{CacheSize: -1}, "/api/query?start=3d-ago&m=avg:air.co2{sensor=*}"},
		// Server-side selection on the streamed path: only the 5 highest-
		// mean sensors are serialized, however many the pilot deployed.
		{"ColdTopK", api.Config{CacheSize: -1}, "/api/query?start=3d-ago&m=topk(5,avg:1h-avg:air.co2{sensor=*})"},
	} {
		for _, encoding := range []string{"identity", "gzip"} {
			b.Run(bc.name+"/"+encoding, func(b *testing.B) { run(b, bc.cfg, bc.url, encoding) })
		}
	}
}

// BenchmarkGatewayQueryRollup compares a long-window downsampled
// query served by a raw block scan against the same query served from
// the rollup tiers (internal/rollup): 14 days × 4 sensors at 1-minute
// cadence, read back as hourly averages through /api/query with the
// result cache disabled. The tier-served variant reads ~340 sealed 1h
// windows per series instead of decoding ~20k raw points.
func BenchmarkGatewayQueryRollup(b *testing.B) {
	const (
		days    = 14
		sensors = 4
		cadence = time.Minute
	)
	endTS := benchStart.Add(days * 24 * time.Hour)

	build := func(b *testing.B, withRollup bool) *tsdb.DB {
		b.Helper()
		db, err := tsdb.Open("")
		if err != nil {
			b.Fatal(err)
		}
		var eng *rollup.Engine
		if withRollup {
			eng, err = rollup.New(db, rollup.Config{
				Tiers:      []rollup.Tier{{Resolution: time.Minute}, {Resolution: time.Hour}},
				FlushEvery: -1, // bench drives sealing explicitly
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		var batch []tsdb.RefPoint
		for s := 0; s < sensors; s++ {
			ref, err := db.Intern("air.co2", map[string]string{"sensor": fmt.Sprintf("roll-%02d", s), "city": "bench"})
			if err != nil {
				b.Fatal(err)
			}
			for ts := benchStart; ts.Before(endTS); ts = ts.Add(cadence) {
				batch = append(batch, tsdb.RefPoint{Ref: ref,
					Point: tsdb.Point{Timestamp: ts.UnixMilli(), Value: 400 + float64(ts.Minute())}})
				if len(batch) == 4096 {
					db.AppendRefs(batch)
					batch = batch[:0]
				}
			}
		}
		db.AppendRefs(batch)
		if eng != nil {
			eng.FlushAll()
			b.Cleanup(func() { eng.Close() })
		}
		b.Cleanup(func() { db.Close() })
		return db
	}

	url := fmt.Sprintf("/api/query?start=%d&end=%d&m=avg:1h-avg:air.co2{sensor=*}",
		benchStart.UnixMilli(), endTS.UnixMilli())
	run := func(b *testing.B, db *tsdb.DB) {
		gw := api.New(db, nil, api.Config{CacheSize: -1})
		defer gw.Close()
		srv := httptest.NewServer(gw.Handler())
		defer srv.Close()
		client := srv.Client()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Get(srv.URL + url)
			if err != nil {
				b.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d: %s", resp.StatusCode, body)
			}
		}
	}
	b.Run("RawScan", func(b *testing.B) {
		run(b, build(b, false))
	})
	b.Run("RollupTier", func(b *testing.B) {
		run(b, build(b, true))
	})
}

// BenchmarkPipelineMQTT measures the uplink pipeline end-to-end with
// the MQTT transport — sensors → radio → TTN backend → real TCP
// broker → ingestor → store — in simulated reporting intervals per
// second, and verifies the transported points are visible through the
// HTTP gateway. The Direct-transport counterpart lives in the
// per-artifact benches (bench_test.go).
func BenchmarkPipelineMQTT(b *testing.B) {
	cfg := core.TrondheimConfig(7)
	cfg.Start = benchStart
	cfg.Transport = core.MQTT
	sys, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	gw := api.New(sys.DB, sys.Dataport, api.Config{CacheSize: -1, Now: sys.Now})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sys.IngestCount())/b.Elapsed().Seconds(), "uplinks/s")

	// Every uplink that traveled the broker must be queryable over
	// the gateway.
	resp, err := srv.Client().Get(srv.URL + fmt.Sprintf(
		"/api/query?start=%d&m=avg:%s", benchStart.UnixMilli(), core.MetricCO2))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("query status %d", resp.StatusCode)
	}
	var out []struct {
		DPS map[string]float64 `json:"dps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	if sys.IngestCount() > 0 && len(out) == 0 {
		b.Fatal("MQTT-transported points not visible through the gateway")
	}
}
