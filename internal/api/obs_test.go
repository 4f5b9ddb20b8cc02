package api

// Observability tests: /metrics speaks valid Prometheus text
// exposition (checked with a small grammar parser, not substring
// spot-checks), histograms stay monotonic while ingest runs
// concurrently with scrapes, /healthz flips to 503 under queue
// saturation, slow queries log their span tree, and /api/inflight
// lists live requests.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// metricLine matches one exposition line: name, optional {labels},
// and a value parseable as a Go float (Prometheus accepts +Inf/NaN,
// which strconv also parses).
var metricLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)

// typeLine matches a histogram family header.
var typeLine = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) histogram$`)

// omExemplar matches (and splits off) the OpenMetrics exemplar suffix
// a bucket line may carry: ` # {trace_id="<16 hex>"} <value> <unix.ms>`.
var omExemplar = regexp.MustCompile(`^(.*\S) # \{trace_id="([0-9a-f]{16})"\} ([0-9.eE+-]+) (\d+\.\d{3})$`)

// parsedMetrics is the result of parseExposition: scalar values keyed
// by full name (including labels), and per-histogram-series cumulative
// bucket counts keyed by family+labels-without-le.
type parsedMetrics struct {
	values    map[string]float64
	families  map[string]bool     // families declared histogram by # TYPE
	buckets   map[string][]uint64 // cumulative counts in le order per series
	counts    map[string]uint64   // _count per series
	exemplars map[string]string   // bucket line (incl. le) -> trace_id
	sawEOF    bool                // body ended with the OpenMetrics "# EOF"
}

// parseExposition validates every line of a /metrics body against the
// text-format grammar and collects values. Any malformed line fails
// the test immediately.
func parseExposition(t *testing.T, body string) *parsedMetrics {
	t.Helper()
	p := &parsedMetrics{
		values:    map[string]float64{},
		families:  map[string]bool{},
		buckets:   map[string][]uint64{},
		counts:    map[string]uint64{},
		exemplars: map[string]string{},
	}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if p.sawEOF {
			t.Fatalf("line %d: content after # EOF: %q", ln+1, line)
		}
		if m := typeLine.FindStringSubmatch(line); m != nil {
			if p.families[m[1]] {
				t.Fatalf("line %d: duplicate # TYPE for family %s", ln+1, m[1])
			}
			p.families[m[1]] = true
			continue
		}
		if line == "# EOF" {
			p.sawEOF = true
			continue
		}
		exTrace := ""
		if m := omExemplar.FindStringSubmatch(line); m != nil {
			line, exTrace = m[1], m[2]
			if _, err := strconv.ParseFloat(m[3], 64); err != nil {
				t.Fatalf("line %d: bad exemplar value %q: %v", ln+1, m[3], err)
			}
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a metric line: %q", ln+1, line)
		}
		name, labels, valS := m[1], m[2], m[3]
		if exTrace != "" {
			if !strings.HasSuffix(name, "_bucket") {
				t.Fatalf("line %d: exemplar on non-bucket line %q", ln+1, line)
			}
			p.exemplars[name+labels] = exTrace
		}
		v, err := strconv.ParseFloat(valS, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valS, err)
		}
		p.values[name+labels] = v
		switch {
		case strings.HasSuffix(name, "_bucket"):
			fam := strings.TrimSuffix(name, "_bucket")
			if !p.families[fam] {
				t.Fatalf("line %d: bucket for %s before its # TYPE header", ln+1, fam)
			}
			key := fam + stripLE(labels)
			p.buckets[key] = append(p.buckets[key], uint64(v))
		case strings.HasSuffix(name, "_count"):
			fam := strings.TrimSuffix(name, "_count")
			if p.families[fam] {
				p.counts[fam+labels] = uint64(v)
			}
		}
	}
	return p
}

// stripLE removes the le="..." pair from a label set so bucket lines
// of one histogram series share a key.
var leRE = regexp.MustCompile(`,?le="[^"]*"`)

func stripLE(labels string) string {
	s := leRE.ReplaceAllString(labels, "")
	s = strings.TrimPrefix(s, "{")
	s = strings.TrimSuffix(s, "}")
	s = strings.Trim(s, ",")
	if s == "" {
		return ""
	}
	return "{" + s + "}"
}

// checkHistograms asserts bucket monotonicity and +Inf == _count for
// every histogram series seen.
func (p *parsedMetrics) checkHistograms(t *testing.T) {
	t.Helper()
	for key, counts := range p.buckets {
		for i := 1; i < len(counts); i++ {
			if counts[i] < counts[i-1] {
				t.Errorf("%s: bucket counts not monotonic: %v", key, counts)
				break
			}
		}
		if n, ok := p.counts[key]; ok && counts[len(counts)-1] != n {
			t.Errorf("%s: +Inf bucket %d != _count %d", key, counts[len(counts)-1], n)
		}
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMetricsExposition(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	resp := putJSON(t, srv.URL+"/api/put", putBody(10, "obs.test", "s1", 1488326400000))
	resp.Body.Close()
	waitIngested(t, g, 10)
	// One query so the query histogram and the store stages have data.
	qr, err := http.Get(srv.URL + "/api/query?start=1488326000000&end=1488327000000&m=avg:obs.test")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, qr.Body)
	qr.Body.Close()

	p := parseExposition(t, scrape(t, srv.URL))
	p.checkHistograms(t)

	for _, fam := range []string{
		"ctt_http_request_seconds",
		"ctt_ingest_batch_seconds",
		"ctt_ingest_queue_wait_seconds",
		"ctt_tsdb_insert_seconds",
	} {
		if !p.families[fam] {
			t.Errorf("missing histogram family %s", fam)
		}
	}
	if n := p.counts[`ctt_http_request_seconds{endpoint="query"}`]; n != 1 {
		t.Errorf("query histogram count = %d, want 1", n)
	}
	if n := p.counts[`ctt_http_request_seconds{endpoint="put"}`]; n != 1 {
		t.Errorf("put histogram count = %d, want 1", n)
	}
	if p.counts["ctt_ingest_batch_seconds"] == 0 {
		t.Error("ingest batch histogram recorded nothing")
	}
	if v := p.values["ctt_ingest_points_total"]; v != 10 {
		t.Errorf("ctt_ingest_points_total = %v, want 10", v)
	}
}

// TestQueryCacheGauges: what the query cache retains is visible on
// /metrics — entries, and bytes counting the plain body and the gzip
// variant alike — and returns to zero when a write invalidates it.
func TestQueryCacheGauges(t *testing.T) {
	g, srv := newTestGateway(t, Config{CacheAlign: time.Hour})
	resp := putJSON(t, srv.URL+"/api/put", putBody(10, "obs.cache", "s1", 1488326400000))
	resp.Body.Close()
	waitIngested(t, g, 10)
	gauges := func() (entries, bytes float64) {
		p := parseExposition(t, scrape(t, srv.URL))
		return p.values["ctt_query_cache_entries"], p.values["ctt_query_cache_bytes"]
	}
	if n, b := gauges(); n != 0 || b != 0 {
		t.Fatalf("empty cache reports %v entries / %v bytes", n, b)
	}

	url := srv.URL + "/api/query?start=1488326000000&end=1488327000000&m=avg:obs.cache"
	_, plain := rawGet(t, url, "", "identity")
	if n, b := gauges(); n != 1 || b != float64(len(plain)) {
		t.Fatalf("after the fill: %v entries / %v bytes, want 1 / %d", n, b, len(plain))
	}
	_, zipped := rawGet(t, url, "", "gzip")
	if n, b := gauges(); n != 1 || b != float64(len(plain)+len(zipped)) {
		t.Fatalf("after a gzip hit: %v entries / %v bytes, want 1 / %d", n, b, len(plain)+len(zipped))
	}

	resp = putJSON(t, srv.URL+"/api/put", putBody(1, "obs.cache", "s1", 1488326500000))
	resp.Body.Close()
	waitIngested(t, g, 11)
	if n, b := gauges(); n != 0 || b != 0 {
		t.Fatalf("after invalidation: %v entries / %v bytes, want 0 / 0", n, b)
	}
}

// TestMetricsConcurrentScrape scrapes while ingest is running; under
// -race this pins the snapshot-then-format exposition path, and every
// scrape must still parse and stay bucket-monotonic mid-write.
func TestMetricsConcurrentScrape(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ts := int64(1488326400000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp := putJSON(t, srv.URL+"/api/put", putBody(8, "obs.conc", "s1", ts))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ts += 8000
		}
	}()
	for i := 0; i < 50; i++ {
		p := parseExposition(t, scrape(t, srv.URL))
		p.checkHistograms(t)
	}
	close(stop)
	wg.Wait()
	waitIngested(t, g, 8)
}

func TestHealthzOK(t *testing.T) {
	_, srv := newTestGateway(t, Config{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["status"] != "ok" {
		t.Errorf("status = %v, want ok", m["status"])
	}
	for _, k := range []string{"ingest_queue_depth", "ingest_queue_capacity", "wal_bytes"} {
		if _, ok := m[k]; !ok {
			t.Errorf("healthz body missing %q", k)
		}
	}
}

// TestHealthzSaturated fills the queue of a worker-less gateway past
// the saturation threshold and expects 503 with a reason.
func TestHealthzSaturated(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g := newGateway(db, nil, Config{QueueSize: 100})
	g.AddHealthSource(func(m map[string]any) { m["extra_detail"] = 42 })
	ref, err := db.Intern("obs.sat", map[string]string{"s": "1"})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]tsdb.RefPoint, 96)
	for i := range pts {
		pts[i] = tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: int64(i + 1), Value: 1}}
	}
	if err := g.EnqueueRefs(pts); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	g.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503", rec.Code)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["status"] != "saturated" || m["reason"] == nil {
		t.Errorf("body = %v, want saturated status with reason", m)
	}
	if m["extra_detail"] != float64(42) {
		t.Errorf("health source detail missing: %v", m)
	}
	// startWorkers was never called; close drains nothing.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// syncBuffer is a goroutine-safe log sink: the slow-query line is
// written from the handler goroutine while the test polls for it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	g, srv := newTestGateway(t, Config{
		SlowQuery: time.Nanosecond, // everything is slow
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
	})
	resp := putJSON(t, srv.URL+"/api/put", putBody(20, "obs.slow", "s1", 1488326400000))
	resp.Body.Close()
	waitIngested(t, g, 20)
	qr, err := http.Get(srv.URL + "/api/query?start=1488326000000&end=1488327000000&m=avg:10s-avg:obs.slow")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, qr.Body)
	qr.Body.Close()

	// The log line lands in the handler's deferred epilogue, which can
	// run a hair after the response body closes.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), "slow query") {
		if time.Now().After(deadline) {
			t.Fatalf("no slow-query line logged; log: %q", buf.String())
		}
		time.Sleep(time.Millisecond)
	}
	line := buf.String()
	// Golden field set: dashboards and log pipelines key on these exact
	// attribute names, so renames must be deliberate.
	for _, field := range []string{
		"uri=", "trace_id=", "elapsed=", "cache=",
		"series=", "points=", "planner=", "trace=",
	} {
		if !strings.Contains(line, field) {
			t.Errorf("slow-query line missing field %q: %s", field, line)
		}
	}
	if !regexp.MustCompile(`trace_id=[0-9a-f]{16}\b`).MatchString(line) {
		t.Errorf("slow-query trace_id not 16 hex digits: %s", line)
	}
	// The span tree must name the pipeline stages end to end.
	for _, stage := range []string{
		"parse", "scan", "match_series", "member_prime",
		"group_reduce", "serialize", "wire",
	} {
		if !strings.Contains(line, stage) {
			t.Errorf("slow-query line missing stage %q: %s", stage, line)
		}
	}
	if !strings.Contains(line, "series=1") {
		t.Errorf("slow-query line missing result sizes: %s", line)
	}
}

func TestInflightEndpoint(t *testing.T) {
	g, srv := newTestGateway(t, Config{})
	// Park the store executor so the query stays in flight while the
	// test looks at it.
	release := make(chan struct{})
	entered := make(chan struct{})
	g.exec = func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error {
		close(entered)
		<-release
		return nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(srv.URL + "/api/query?start=1488326000000&m=avg:obs.inflight")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered
	resp, err := http.Get(srv.URL + "/api/inflight")
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		TraceID   string  `json:"trace_id"`
		Name      string  `json:"name"`
		Detail    string  `json:"detail"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, e := range entries {
		if e.Name == "query" && strings.Contains(e.Detail, "obs.inflight") {
			found = true
			// The row's trace ID is what /api/traces/{id} resolves once
			// the request lands in the flight recorder.
			if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(e.TraceID) {
				t.Errorf("inflight trace_id = %q, want 16 hex digits", e.TraceID)
			}
		}
	}
	if !found {
		t.Errorf("inflight = %+v, want a live query entry", entries)
	}
	close(release)
	<-done

	// Drained: the listing empties again.
	resp, err = http.Get(srv.URL + "/api/inflight")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if s := strings.TrimSpace(string(body)); s != "[]" {
		t.Errorf("idle inflight = %s, want []", s)
	}
}
