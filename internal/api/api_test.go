package api

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/tsdb"
)

func newTestGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	g := New(db, nil, cfg)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		srv.Close()
		g.Close()
		db.Close()
	})
	return g, srv
}

// waitIngested polls until the gateway has stored n points.
func waitIngested(t *testing.T, g *Gateway, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.ingested.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d ingested points (have %d)", n, g.ingested.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func putJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func putBody(n int, metric, sensor string, startTS int64) string {
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"metric":%q,"timestamp":%d,"value":%d,"tags":{"sensor":%q,"city":"trondheim"}}`,
			metric, startTS+int64(i), 400+i, sensor)
	}
	b.WriteByte(']')
	return b.String()
}

// fillRefs builds n air.co2 points on one sensor's series, for tests
// that fill the ingest queue directly.
func fillRefs(t *testing.T, db *tsdb.DB, sensor string, n int) []tsdb.RefPoint {
	t.Helper()
	ref, err := db.Intern("air.co2", map[string]string{"sensor": sensor})
	if err != nil {
		t.Fatal(err)
	}
	rps := make([]tsdb.RefPoint, n)
	for i := range rps {
		rps[i] = tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: int64(1000 + i), Value: 1}}
	}
	return rps
}

func TestPutSingleObject(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	resp := putJSON(t, srv.URL+"/api/put",
		`{"metric":"air.co2","timestamp":1488326400,"value":412.5,"tags":{"sensor":"n1"}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status = %d, want 204", resp.StatusCode)
	}
	waitIngested(t, g, 1)
}

func TestPutValidation(t *testing.T) {
	_, srv := newTestGateway(t, Config{})

	// All invalid → 400 with per-point errors.
	resp := putJSON(t, srv.URL+"/api/put", `[{"metric":"","timestamp":1488326400,"value":1,"tags":{"a":"b"}}]`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("all-invalid status = %d, want 400", resp.StatusCode)
	}
	var pr putResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Failed != 1 || len(pr.Errors) != 1 {
		t.Errorf("response = %+v, want 1 failure", pr)
	}

	// Mixed batch with ?details → 200 summary.
	mixed := `[{"metric":"air.co2","timestamp":1488326400,"value":1,"tags":{"sensor":"n1"}},
	           {"metric":"bad metric!","timestamp":1488326400,"value":1,"tags":{"sensor":"n1"}}]`
	resp2 := putJSON(t, srv.URL+"/api/put?details=1", mixed)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("mixed status = %d, want 200", resp2.StatusCode)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Success != 1 || pr.Failed != 1 {
		t.Errorf("mixed response = %+v, want success=1 failed=1", pr)
	}

	// Non-finite values (reachable via quoted "NaN") would poison
	// every query over their range with JSON marshal errors → 400.
	for _, v := range []string{"NaN", "Inf", "-Inf"} {
		respNaN := putJSON(t, srv.URL+"/api/put",
			`{"metric":"air.co2","timestamp":1488326400,"value":"`+v+`","tags":{"sensor":"n1"}}`)
		respNaN.Body.Close()
		if respNaN.StatusCode != http.StatusBadRequest {
			t.Errorf("value=%q status = %d, want 400", v, respNaN.StatusCode)
		}
	}

	// Missing timestamp → rejected, not silently stored at the epoch.
	respTS := putJSON(t, srv.URL+"/api/put", `{"metric":"air.co2","value":1,"tags":{"sensor":"n1"}}`)
	defer respTS.Body.Close()
	if respTS.StatusCode != http.StatusBadRequest {
		t.Errorf("missing-timestamp status = %d, want 400", respTS.StatusCode)
	}

	// Garbage body → 400.
	resp3 := putJSON(t, srv.URL+"/api/put", `{not json`)
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage status = %d, want 400", resp3.StatusCode)
	}

	// GET → 405.
	resp4, err := http.Get(srv.URL + "/api/put")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp4.StatusCode)
	}
}

func TestEndToEndIngestQuery(t *testing.T) {
	// CacheAlign generous so the repeat query is a guaranteed hit.
	g, srv := newTestGateway(t, Config{CacheAlign: time.Hour})
	start := int64(1488326400) // 2017-03-01 in seconds

	for _, sensor := range []string{"n1", "n2"} {
		resp := putJSON(t, srv.URL+"/api/put", putBody(10, "air.co2", sensor, start))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("put %s status = %d, want 204", sensor, resp.StatusCode)
		}
	}
	waitIngested(t, g, 20)

	// Grouped by sensor → two series.
	url := fmt.Sprintf("%s/api/query?start=%d&end=%d&m=avg:air.co2{sensor=*}",
		srv.URL, start, start+100)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first query X-Cache = %q, want miss", got)
	}
	var res []wireResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d series, want 2 (res=%v)", len(res), res)
	}
	for _, rs := range res {
		if rs.Metric != "air.co2" {
			t.Errorf("metric = %q", rs.Metric)
		}
		if len(rs.DPS) != 10 {
			t.Errorf("series %v has %d points, want 10", rs.Tags, len(rs.DPS))
		}
		// Values were 400..409 at ms timestamps start*1000 + i*1000.
		if v, ok := rs.DPS[fmt.Sprint(start*1000)]; !ok || v != 400 {
			t.Errorf("first point = %v (present=%v), want 400", v, ok)
		}
	}

	// Same query again → served from cache.
	resp2, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second query X-Cache = %q, want hit", got)
	}

	// Downsampled sum across sensors, POST form.
	body := fmt.Sprintf(`{"start":%d,"end":%d,"queries":[{"aggregator":"sum","metric":"air.co2","downsample":"10s-avg"}]}`,
		start, start+100)
	resp3, err := http.Post(srv.URL+"/api/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("POST query status = %d", resp3.StatusCode)
	}
	var res3 []wireResult
	if err := json.NewDecoder(resp3.Body).Decode(&res3); err != nil {
		t.Fatal(err)
	}
	if len(res3) != 1 {
		t.Fatalf("POST query got %d series, want 1", len(res3))
	}
}

func TestQueryBadRequests(t *testing.T) {
	_, srv := newTestGateway(t, Config{})
	for _, url := range []string{
		"/api/query",                               // no start
		"/api/query?start=1488326400",              // no m
		"/api/query?start=1488326400&m=bogus",      // no agg:metric
		"/api/query?start=1488326400&m=nope:air.x", // unknown aggregator
		"/api/query?start=xyz&m=avg:air.x",         // bad time
		"/api/query?start=2&end=1&m=avg:air.x",     // inverted range
		"/api/query?start=1&m=avg:air.x{sensor}",   // bad tag filter
		"/api/query?start=1&m=avg:1z-avg:air.x",    // bad downsample
		"/api/query?start=1&m=avg:weird:air.x",     // bad middle component
	} {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", url, resp.StatusCode)
		}
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// No workers: the queue only fills.
	g := newGateway(db, nil, Config{QueueSize: 8})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// Fill the queue to capacity.
	if err := g.EnqueueRefs(fillRefs(t, db, "n1", 8)); err != nil {
		t.Fatal(err)
	}

	resp := putJSON(t, srv.URL+"/api/put", putBody(1, "air.co2", "n1", 1488326400))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// A batch that could never fit is 413, not a retriable 429.
	respBig := putJSON(t, srv.URL+"/api/put", putBody(9, "air.co2", "n1", 1488326400))
	defer respBig.Body.Close()
	if respBig.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status = %d, want 413", respBig.StatusCode)
	}

	// Draining restores service.
	g.startWorkers()
	waitIngested(t, g, 8)
	resp2 := putJSON(t, srv.URL+"/api/put", putBody(1, "air.co2", "n1", 1488326400))
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("after drain status = %d, want 204", resp2.StatusCode)
	}
	g.Close()
}

func TestRateLimit(t *testing.T) {
	_, srv := newTestGateway(t, Config{RateLimit: 1, RateBurst: 5})

	// Burst of 5 accepted.
	resp := putJSON(t, srv.URL+"/api/put", putBody(5, "air.co2", "n1", 1488326400))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("burst status = %d, want 204", resp.StatusCode)
	}
	// Immediate follow-up of 5 exceeds the bucket.
	resp2 := putJSON(t, srv.URL+"/api/put", putBody(5, "air.co2", "n1", 1488326500))
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget status = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("rate-limited 429 without Retry-After")
	}

	// A batch bigger than the burst can never pass: 413, not 429.
	resp3 := putJSON(t, srv.URL+"/api/put", putBody(6, "air.co2", "n1", 1488326600))
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-burst status = %d, want 413", resp3.StatusCode)
	}
}

func TestPutQuotedNumerics(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	// Real OpenTSDB accepts string-quoted timestamps/values.
	resp := putJSON(t, srv.URL+"/api/put",
		`{"metric":"air.co2","timestamp":"1488326400","value":"412.5","tags":{"sensor":"n1"}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("quoted-numerics status = %d, want 204", resp.StatusCode)
	}
	waitIngested(t, g, 1)
	resp2, err := http.Get(srv.URL + "/api/query?start=1488326399&end=1488326401&m=avg:air.co2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var res []wireResult
	if err := json.NewDecoder(resp2.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DPS["1488326400000"] != 412.5 {
		t.Errorf("stored quoted point = %+v, want 412.5 at 1488326400000", res)
	}
}

func TestRateLimitThrottlesInvalidFlood(t *testing.T) {
	_, srv := newTestGateway(t, Config{RateLimit: 1, RateBurst: 3})
	// All-invalid batches cost one token each; the flood must
	// eventually be answered 429 instead of free 400s forever.
	got429 := false
	for i := 0; i < 10; i++ {
		resp := putJSON(t, srv.URL+"/api/put", `{"metric":"air.co2","value":1,"tags":{"s":"x"}}`)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
			break
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if !got429 {
		t.Error("10 all-invalid batches were never rate limited")
	}
}

func TestPutBareDetailsFlag(t *testing.T) {
	_, srv := newTestGateway(t, Config{})
	// OpenTSDB's documented form is a valueless ?details flag.
	resp := putJSON(t, srv.URL+"/api/put?details", putBody(2, "air.co2", "n1", 1488326400))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 with summary", resp.StatusCode)
	}
	var pr putResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Success != 2 || pr.Failed != 0 {
		t.Errorf("summary = %+v, want success=2", pr)
	}
}

func TestRateLimitRefundOnQueueFull(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// No workers yet, so the queue stays full until we start them.
	g := newGateway(db, nil, Config{QueueSize: 4, RateLimit: 1, RateBurst: 4})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	if err := g.EnqueueRefs(fillRefs(t, db, "seed", 4)); err != nil {
		t.Fatal(err)
	}

	// The put is charged 4 tokens, hits the full queue, and must get
	// them back.
	resp := putJSON(t, srv.URL+"/api/put", putBody(4, "air.co2", "n1", 1488326400))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue status = %d, want 429", resp.StatusCode)
	}

	g.startWorkers()
	waitIngested(t, g, 4)

	// With the refund, the retry has its full burst available; without
	// it, the bucket would be empty (refill is only 1 token/sec).
	resp2 := putJSON(t, srv.URL+"/api/put", putBody(4, "air.co2", "n1", 1488326400))
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("retry after drain status = %d, want 204 (tokens not refunded?)", resp2.StatusCode)
	}
	g.Close()
}

func TestSuggest(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	resp := putJSON(t, srv.URL+"/api/put", putBody(1, "air.co2", "node-01", 1488326400))
	resp.Body.Close()
	resp = putJSON(t, srv.URL+"/api/put", putBody(1, "env.temperature", "node-02", 1488326400))
	resp.Body.Close()
	waitIngested(t, g, 2)

	for _, tc := range []struct {
		url  string
		want []string
	}{
		{"/api/suggest?type=metrics&q=air.", []string{"air.co2"}},
		{"/api/suggest?type=metrics", []string{"air.co2", "env.temperature"}},
		{"/api/suggest?type=tagk", []string{"city", "sensor"}},
		{"/api/suggest?type=tagv&q=node-", []string{"node-01", "node-02"}},
		{"/api/suggest?type=tagv&q=node-&max=1", []string{"node-01"}},
	} {
		res, err := http.Get(srv.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		err = json.NewDecoder(res.Body).Decode(&got)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s = %v, want %v", tc.url, got, tc.want)
		}
	}

	res, err := http.Get(srv.URL + "/api/suggest?type=bogus")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus type status = %d, want 400", res.StatusCode)
	}
}

func TestStream(t *testing.T) {
	g, srv := newTestGateway(t, Config{Heartbeat: time.Hour})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/api/stream?metric=air.&tag.sensor=n1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	// First frame confirms the subscription is live.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ": connected") {
		t.Fatalf("expected connect comment, got %q (err %v)", sc.Text(), sc.Err())
	}

	// A matching and two non-matching points.
	resp2 := putJSON(t, srv.URL+"/api/put", `[
	  {"metric":"node.battery","timestamp":1488326400,"value":97,"tags":{"sensor":"n1"}},
	  {"metric":"air.co2","timestamp":1488326401,"value":404,"tags":{"sensor":"n2"}},
	  {"metric":"air.co2","timestamp":1488326402,"value":415,"tags":{"sensor":"n1"}}]`)
	resp2.Body.Close()
	waitIngested(t, g, 3)

	var dataLine string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			dataLine = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if dataLine == "" {
		t.Fatalf("no event received: %v", sc.Err())
	}
	var ev streamEvent
	if err := json.Unmarshal([]byte(dataLine), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Metric != "air.co2" || ev.Tags["sensor"] != "n1" || ev.Value != 415 {
		t.Errorf("event = %+v, want the matching air.co2/n1 point", ev)
	}
}

// streamEvent is the SSE payload of one point, as appendEvent writes
// it.
type streamEvent struct {
	Metric    string            `json:"metric"`
	Tags      map[string]string `json:"tags"`
	Timestamp int64             `json:"timestamp"` // ms
	Value     float64           `json:"value"`
}

// TestAppendEventMatchesEncodingJSON: an SSE frame's payload is the
// bytes encoding/json renders for streamEvent, tags sorted as it sorts
// a map's keys; a value JSON cannot carry drops the frame.
func TestAppendEventMatchesEncodingJSON(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, tags := range []map[string]string{
		{"sensor": "n1"},
		{"sensor": "s10", "city": "trondheim", "k2": "v", "k": "-./_"},
	} {
		ref, err := db.Intern("air.co2", tags)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []float64{412.5, 0, math.Copysign(0, -1), 1e21, 1e-7, -17.25, math.NaN(), math.Inf(-1)} {
			p := tsdb.Point{Timestamp: 1488326400000, Value: v}
			got := string(appendEvent(nil, "point", ref, p))
			want := ""
			if payload, err := json.Marshal(streamEvent{Metric: ref.Metric(), Tags: tags, Timestamp: p.Timestamp, Value: v}); err == nil {
				want = "event: point\ndata: " + string(payload) + "\n\n"
			}
			if got != want {
				t.Fatalf("%v %v:\n got %q\nwant %q", tags, v, got, want)
			}
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	resp := putJSON(t, srv.URL+"/api/put", putBody(5, "air.co2", "n1", 1488326400))
	resp.Body.Close()
	waitIngested(t, g, 5)

	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(res.Body)
	body := buf.String()
	for _, want := range []string{
		"ctt_ingest_queue_depth ",
		"ctt_ingest_queue_capacity 4096",
		"ctt_ingest_points_total 5",
		`ctt_ingest_rejected_total{reason="queue_full"} 0`,
		"ctt_query_cache_hit_ratio ",
		"ctt_tsdb_series 1",
		"ctt_tsdb_points 5",
		"ctt_ingest_rate_points_per_second ",
		"ctt_stream_subscribers 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

// TestSealedChunkMetrics: the share of chunks that fell back to XOR is
// a scrape away, and the compression ratio is over sealed chunks only.
func TestSealedChunkMetrics(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	no2, err := g.db.Intern("air.no2", map[string]string{"sensor": "n1"})
	if err != nil {
		t.Fatal(err)
	}
	rssi, err := g.db.Intern("net.rssi", map[string]string{"sensor": "n1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ { // one full head per series
		ts := int64(1488326400000 + i*300000)
		if res := g.db.AppendRefs([]tsdb.RefPoint{
			{Ref: no2, Point: tsdb.Point{Timestamp: ts, Value: float64(200+i%17) / 10}},
			{Ref: rssi, Point: tsdb.Point{Timestamp: ts, Value: -100 + float64(i%17)/7}},
		}); len(res.Errors) > 0 {
			t.Fatal(res.Errors[0].Err)
		}
	}
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(res.Body)
	body := buf.String()
	for _, want := range []string{
		`ctt_tsdb_chunks_sealed_total{encoding="decimal"} 1`,
		`ctt_tsdb_chunks_sealed_total{encoding="xor"} 1`,
		`ctt_tsdb_chunk_points_total{encoding="decimal"} 256`,
		`ctt_tsdb_chunk_bytes_total{encoding="xor"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	dec, xor := g.db.SealedChunks()
	if dec.Bytes == 0 || dec.Bytes*3 > xor.Bytes {
		t.Errorf("decimal chunk %d bytes, xor chunk %d: expected under a third", dec.Bytes, xor.Bytes)
	}
	var ratio float64
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "ctt_tsdb_compression_ratio "); ok {
			ratio, _ = strconv.ParseFloat(v, 64)
		}
	}
	if want := float64(512*16) / float64(dec.Bytes+xor.Bytes); math.Abs(ratio-want) > 0.01 {
		t.Errorf("ctt_tsdb_compression_ratio = %v, want %v (512 sealed points over %d bytes)", ratio, want, dec.Bytes+xor.Bytes)
	}
}

func TestParseTime(t *testing.T) {
	now := func() time.Time { return time.UnixMilli(1_500_000_000_000) }
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"1488326400", 1488326400000},    // seconds
		{"1488326400000", 1488326400000}, // milliseconds
		{"2017-03-01T00:00:00Z", 1488326400000},
		{"1h-ago", 1_500_000_000_000 - 3600_000},
		{"2d-ago", 1_500_000_000_000 - 2*24*3600_000},
	} {
		got, err := parseTime(tc.in, now)
		if err != nil {
			t.Errorf("parseTime(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseTime(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if _, err := parseTime("not-a-time", now); err == nil {
		t.Error("parseTime accepted garbage")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newQueryCache(2)
	c.put("a", []byte("1"), 0, 0, nil, nil)
	c.put("b", []byte("2"), 0, 0, nil, nil)
	if _, ok := c.get("a", false); !ok { // refresh a
		t.Fatal("a missing")
	}
	c.put("c", []byte("3"), 0, 0, nil, nil) // evicts b
	if _, ok := c.get("b", false); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a", false); !ok {
		t.Error("a should have survived")
	}
	hits, misses, _ := c.stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d/%d, want 2 hits 1 miss", hits, misses)
	}
}

func TestCacheByteBounds(t *testing.T) {
	c := newQueryCache(1000)
	// Oversized bodies are never cached.
	c.put("huge", make([]byte, maxCacheBody+1), 0, 0, nil, nil)
	if _, ok := c.get("huge", false); ok {
		t.Error("oversized body was cached")
	}
	// Total bytes stay under maxCacheBytes: 100 entries of ~1 MiB
	// exceed 64 MiB, so early ones must be evicted.
	for i := 0; i < 100; i++ {
		c.put(fmt.Sprintf("k%03d", i), make([]byte, maxCacheBody), 0, 0, nil, nil)
	}
	if c.bytes > maxCacheBytes {
		t.Errorf("cache holds %d bytes, cap %d", c.bytes, maxCacheBytes)
	}
	if _, ok := c.get("k000", false); ok {
		t.Error("oldest entry survived byte-bound eviction")
	}
	if _, ok := c.get("k099", false); !ok {
		t.Error("newest entry missing")
	}
}

// TestCacheFillPoisoning pins the look-aside race fix: a write that
// lands between a query's store read and its cache insert must keep
// the (now stale) body out of the cache — otherwise, with no later
// write to invalidate it, the stale entry would be served forever.
func TestCacheFillPoisoning(t *testing.T) {
	c := newQueryCache(10)

	// Write inside the fill's range while the "scan" is in flight:
	// the body read before that write must not be inserted.
	f := c.beginFill(100, 200, []string{"m.a"})
	c.invalidate("m.a", 150)
	c.put("k1", []byte("stale"), 100, 200, []string{"m.a"}, f)
	if _, ok := c.get("k1", false); ok {
		t.Error("poisoned fill was cached")
	}

	// A write outside the range, or to another metric, is harmless.
	f = c.beginFill(100, 200, []string{"m.a"})
	c.invalidate("m.a", 300)
	c.invalidate("m.b", 150)
	c.put("k2", []byte("fresh"), 100, 200, []string{"m.a"}, f)
	if _, ok := c.get("k2", false); !ok {
		t.Error("unpoisoned fill was not cached")
	}

	// Abandoned fills deregister; endFill after put is a no-op, and
	// the registry drains back to empty either way.
	f = c.beginFill(100, 200, []string{"m.a"})
	c.endFill(f)
	c.endFill(f)
	if n := c.fillCount.Load(); n != 0 {
		t.Errorf("fillCount = %d after drain, want 0", n)
	}
	if len(c.fills) != 0 {
		t.Errorf("fills registry not empty: %v", c.fills)
	}
}

// TestPutGzip: a gzip-compressed /api/put batch is decoded and
// stored; a garbage gzip body is a 400, not a hang or a store write.
func TestPutGzip(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte(putBody(5, "air.co2", "gz-1", 1488326400)))
	zw.Close()

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/put", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("gzip put status = %d, want 204", resp.StatusCode)
	}
	waitIngested(t, g, 5)

	req2, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/put", strings.NewReader("not gzip at all"))
	req2.Header.Set("Content-Encoding", "gzip")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage gzip status = %d, want 400", resp2.StatusCode)
	}

	req3, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/put", strings.NewReader("{}"))
	req3.Header.Set("Content-Encoding", "deflate")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("deflate status = %d, want 415", resp3.StatusCode)
	}
}

// TestQueryGzipResponse: /api/query honours Accept-Encoding: gzip on
// both cache misses and hits, and plain clients still get plain JSON.
func TestQueryGzipResponse(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	resp := putJSON(t, srv.URL+"/api/put", putBody(10, "air.co2", "gz-2", 1488326400))
	resp.Body.Close()
	waitIngested(t, g, 10)

	url := srv.URL + "/api/query?start=1488326400&end=1488327000&m=avg:air.co2"
	fetch := func(acceptGzip bool) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if acceptGzip {
			// Setting the header explicitly disables the transport's
			// transparent decompression: we see the raw bytes.
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	for _, cache := range []string{"miss", "hit"} {
		resp, body := fetch(true)
		if got := resp.Header.Get("X-Cache"); got != cache {
			t.Fatalf("X-Cache = %q, want %q", got, cache)
		}
		if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
			t.Fatalf("Content-Encoding = %q, want gzip (%s)", enc, cache)
		}
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", cache, err)
		}
		plain, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		var out []wireResult
		if err := json.Unmarshal(plain, &out); err != nil {
			t.Fatalf("%s: gunzipped body is not the query result: %v", cache, err)
		}
		if len(out) != 1 || len(out[0].DPS) != 10 {
			t.Fatalf("%s: unexpected result %+v", cache, out)
		}
	}

	resp2, body := fetch(false)
	if enc := resp2.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("plain client got Content-Encoding %q", enc)
	}
	var out []wireResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("plain body: %v", err)
	}
}

// TestCacheInvalidationOnWrite: a write landing inside a cached
// query's time range drops the entry, so the next poll sees the new
// point instead of waiting out the alignment bucket.
func TestCacheInvalidationOnWrite(t *testing.T) {
	now := time.Date(2017, time.March, 2, 0, 0, 0, 0, time.UTC)
	g, srv := newTestGateway(t, Config{
		CacheAlign: time.Hour, // coarse alignment: only invalidation can refresh
		Now:        func() time.Time { return now },
	})
	resp := putJSON(t, srv.URL+"/api/put", putBody(10, "air.co2", "inv-1", 1488326400))
	resp.Body.Close()
	waitIngested(t, g, 10)

	url := srv.URL + "/api/query?start=1488326400&end=1488330000&m=avg:air.co2"
	query := func() (string, int) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []wireResult
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 {
			t.Fatalf("got %d series", len(out))
		}
		return resp.Header.Get("X-Cache"), len(out[0].DPS)
	}

	if c, n := query(); c != "miss" || n != 10 {
		t.Fatalf("first query: cache=%s n=%d", c, n)
	}
	if c, _ := query(); c != "hit" {
		t.Fatalf("second query: cache=%s, want hit", c)
	}

	// A write inside the cached range invalidates...
	resp2 := putJSON(t, srv.URL+"/api/put",
		`{"metric":"air.co2","timestamp":1488327000,"value":555,"tags":{"sensor":"inv-1","city":"trondheim"}}`)
	resp2.Body.Close()
	waitIngested(t, g, 11)
	if c, n := query(); c != "miss" || n != 11 {
		t.Fatalf("post-write query: cache=%s n=%d, want miss/11", c, n)
	}
	if c, _ := query(); c != "hit" {
		t.Fatal("cache did not repopulate")
	}

	// ... a write to another metric, or outside the range, does not.
	resp3 := putJSON(t, srv.URL+"/api/put",
		`{"metric":"air.no2","timestamp":1488327000,"value":5,"tags":{"sensor":"inv-1"}}`)
	resp3.Body.Close()
	resp4 := putJSON(t, srv.URL+"/api/put",
		`{"metric":"air.co2","timestamp":1489000000,"value":5,"tags":{"sensor":"inv-1","city":"trondheim"}}`)
	resp4.Body.Close()
	waitIngested(t, g, 13)
	if c, _ := query(); c != "hit" {
		t.Fatal("unrelated writes invalidated the entry")
	}
	if _, _, inv := g.cache.stats(); inv == 0 {
		t.Fatal("invalidation counter not incremented")
	}
}
