package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/tsdb"
)

// TestMain lets the test binary stand in for a long-running child: with
// CTT_BENCH_SLEEPER set it just sleeps, so the reaping test needs no
// other program.
func TestMain(m *testing.M) {
	if os.Getenv("CTT_BENCH_SLEEPER") != "" {
		time.Sleep(time.Hour)
		return
	}
	os.Exit(m.Run())
}

func TestSameSeedSameSchedule(t *testing.T) {
	total := warmup + 2*time.Second
	hashes := func(seed int64) []string {
		_, dash := dashboardSchedule(seed, 2, total)
		_, _, explore := exploreSchedule(seed, 2, total)
		_, live := liveSchedule(seed, total, len(panelShapes))
		return []string{backfillScheduleSHA(seed, 2), dash, explore, live}
	}
	a, again, other := hashes(7), hashes(7), hashes(8)
	for i := range a {
		if a[i] != again[i] {
			t.Errorf("schedule %d: seed 7 hashed to %s, then %s", i, a[i], again[i])
		}
		if a[i] == other[i] {
			t.Errorf("schedule %d: seeds 7 and 8 share hash %s", i, a[i])
		}
	}
}

func TestScheduleRates(t *testing.T) {
	total := warmup + 10*time.Second
	ops, _ := liveSchedule(1, total, len(panelShapes))
	var puts, queries, canaries int
	for i, o := range ops {
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
		switch {
		case o.kind == kindQuery:
			queries++
		case o.shape == 1:
			canaries++
			fallthrough
		default:
			puts++
		}
	}
	secs := int(total / time.Second)
	if puts != livePutRate*secs || queries != liveQueryRate*secs || canaries != liveCanaries*secs {
		t.Errorf("got %d puts, %d queries, %d canaries in %d s", puts, queries, canaries, secs)
	}
	dash, _ := dashboardSchedule(1, 2, total)
	panels := 0
	for _, o := range dash[0] {
		if o.kind == kindPanel {
			panels++
		}
	}
	if want := len(dash[0]) / 5; panels != want {
		t.Errorf("%d panels among %d requests, want %d", panels, len(dash[0]), want)
	}
}

// TestPutTemplatesDecode sends patched templates of every kind through
// the real /api/put handler: the decoder must accept them and the
// store must hold exactly the generated points.
func TestPutTemplatesDecode(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	gw := api.New(db, nil, api.Config{})
	defer gw.Close()
	h := gw.Handler()
	post := func(body []byte) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/put", bytes.NewReader(body)))
		if w.Code != http.StatusNoContent {
			t.Fatalf("status %d: %s\n%.300s", w.Code, w.Body, body)
		}
	}
	gen := newBackfillGen(3, 0, 2)
	var b backfillBatch
	want := 0
	for i := 0; i < 2*churnEvery; i++ { // covers series, fan-out and churn batches
		gen.next(&b)
		if !json.Valid(b.tmpl.body()) {
			t.Fatalf("batch %d is not valid JSON", i)
		}
		if !bytes.HasSuffix(b.tmpl.req, b.tmpl.body()) || !bytes.Contains(b.tmpl.req, []byte("Content-Length: ")) {
			t.Fatalf("batch %d: request does not end with its body", i)
		}
		post(b.tmpl.body())
		want += batchPoints
	}
	metrics, sensors := make([]string, batchPoints), make([]int, batchPoints)
	for i := range metrics {
		metrics[i], sensors[i] = pilotMetrics[i%len(pilotMetrics)], i
	}
	canary := renderPut("live-", metrics, sensors, true)
	for i, pt := range canary.points {
		putDigits(canary.req, pt.ts, tsWidth, uint64(t0.UnixMilli()))
		putValue(canary.req, pt.value, valueMilli(i, 0))
	}
	putDigits(canary.req, canary.canaryTS, tsWidth, uint64(t0.UnixMilli()))
	putDigits(canary.req, canary.canaryValue, canaryWidth, canaryBase+12345)
	post(canary.body())
	want += batchPoints + 1

	deadline := time.Now().Add(5 * time.Second)
	for db.PointCount() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := db.PointCount(); got != want {
		t.Fatalf("store holds %d points, want %d", got, want)
	}
	// One generated value, read back exactly.
	res, err := db.Execute(tsdb.Query{Metric: "canary.freshness", Start: 0, End: t0.UnixMilli(), Aggregator: tsdb.AggSum})
	if err != nil || len(res) != 1 || len(res[0].Points) != 1 || res[0].Points[0].Value != canaryBase+12345 {
		t.Fatalf("canary read back as %+v (err %v)", res, err)
	}
}

func TestPatchers(t *testing.T) {
	b := []byte("xx0000000yy")
	putDigits(b, 2, 7, 4207)
	if string(b) != "xx0004207yy" {
		t.Errorf("putDigits: %q", b)
	}
	putValue(b, 2, 123456)
	if string(b) != "xx123.456yy" {
		t.Errorf("putValue: %q", b)
	}
	for s := 0; s < 3000; s += 7 {
		for k := 0; k < 5000; k += 11 {
			if v := valueMilli(s, k); v < 100000 || v > 999999 {
				t.Fatalf("valueMilli(%d,%d) = %d does not fit ddd.ddd", s, k, v)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, descending
	}
	p50, p99, ok := latencySummary(xs, 99)
	if !ok || p50 != 500 || p99 != 990 {
		t.Errorf("1000 samples: p50 %v p99 %v ok %v, want 500 990 true", p50, p99, ok)
	}
	// Ten samples must lie beyond the percentile: 1000 support a p99,
	// 999 do not; 200 support a p95, 199 do not.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 99, true}, {999, 99, false}, {200, 95, true}, {199, 95, false}, {100, 90, true}} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v", c.n, c.p, got)
		}
	}
	m := map[string]Metric{}
	setLatency(m, "op", xs[:400])
	if _, ok := m["op_p99_ms"]; ok {
		t.Error("a p99 was printed from 400 samples")
	}
	if _, ok := m["op_p95_ms"]; !ok || m["op_p50_ms"].N != 400 {
		t.Errorf("400 samples: %+v", m)
	}
	if _, _, ok := latencySummary(nil, 99); ok {
		t.Error("empty population reported a tail")
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 || median(xs[:10]) != 5.5 {
		t.Errorf("quartiles %v %v, median %v", q1, q3, median(xs[:10]))
	}
}

func TestScrapeParsing(t *testing.T) {
	before := parseScrape(strings.NewReader(`# HELP ignored
ctt_build_info{version="v0.0.0+dirty",goversion="go1.24.0"} 1
ctt_ingest_rejected_total{reason="queue_full"} 3
# TYPE ctt_wal_append_seconds histogram
ctt_wal_append_seconds_bucket{le="0.001"} 10
ctt_wal_append_seconds_sum 0.5
ctt_wal_append_seconds_count 10
ctt_http_request_seconds_sum{endpoint="query"} 2
ctt_http_request_seconds_count{endpoint="query"} 4
ctt_tsdb_points 2.010532e+06
garbage line without a number
`))
	after := parseScrape(strings.NewReader(`ctt_ingest_rejected_total{reason="queue_full"} 8
ctt_wal_append_seconds_sum 0.9
ctt_wal_append_seconds_count 30
ctt_http_request_seconds_sum{endpoint="query"} 2
ctt_http_request_seconds_count{endpoint="query"} 4
ctt_http_request_seconds_bucket{endpoint="query",le="0.01"} 4 # {trace_id="00ab"} 0.002
ctt_tsdb_points 2.5e+06
`))
	if before["ctt_tsdb_points"] != 2010532 || before[`ctt_build_info{version="v0.0.0+dirty",goversion="go1.24.0"}`] != 1 {
		t.Errorf("plain or labelled gauge misparsed: %v", before)
	}
	if after[`ctt_http_request_seconds_bucket{endpoint="query",le="0.01"}`] != 4 {
		t.Errorf("exemplar suffix not cut: %v", after)
	}
	if d, ok := delta(before, after, `ctt_ingest_rejected_total{reason="queue_full"}`); !ok || d != 5 {
		t.Errorf("labelled delta = %v, %v", d, ok)
	}
	if mean, ok := histMean(before, after, "ctt_wal_append_seconds"); !ok || mean < 0.0199 || mean > 0.0201 {
		t.Errorf("histogram mean = %v, %v, want 0.02", mean, ok)
	}
	if d, ok := delta(before, after, `ctt_http_request_seconds_count{endpoint="query"}`); !ok || d != 0 {
		t.Errorf("labelled histogram count delta = %v, %v", d, ok)
	}
	if _, ok := histMean(before, before, "ctt_wal_append_seconds"); ok {
		t.Error("a histogram that saw nothing in the window reported a mean")
	}
	if _, ok := delta(before, after, "ctt_renamed_away_total"); ok {
		t.Error("absent series reported a delta")
	}
	// An absent series must yield an absent metric, not an error.
	r := &workloadResult{Layer: map[string]Metric{}}
	layerCounts(r, &observation{before: before, after: after})
	if _, ok := r.Layer["tsdb.wal_append_us"]; !ok {
		t.Error("present histogram produced no metric")
	}
	if _, ok := r.Layer["api.queue_wait_us"]; ok {
		t.Error("absent histogram produced a metric")
	}
}

func TestQueryBodyChecks(t *testing.T) {
	good := []byte(`[{"metric":"air.co2","tags":{"sensor":"a"},"dps":{"1":2}},{"metric":"air.co2","tags":{"sensor":"b"},"dps":{"1":3}}]`)
	if reason := checkQueryBody(good, 2); reason != "" {
		t.Errorf("good body rejected: %s", reason)
	}
	for name, body := range map[string]string{
		"wrong count": string(good[:60]) + `}}]`,
		"empty dps":   `[{"metric":"m","tags":{},"dps":{}}]`,
		"open array":  `[{"metric":"m","tags":{},"dps":{"1":2}}`,
		"truncated":   `[{"metric":"m","tags":{},"dps":{"1":2}},{"error":{"code":500,"message":"result truncated"}}]`,
	} {
		if checkQueryBody([]byte(body), 2) == "" {
			t.Errorf("%s: accepted", name)
		}
	}
	if n, ok := canarySeq([]byte(`data: {"metric":"canary.freshness","tags":{"sensor":"canary"},"timestamp":1488931200042,"value":1000000007}` + "\n")); !ok || n != 42 {
		t.Errorf("canarySeq = %d, %v", n, ok)
	}
	if _, ok := canarySeq([]byte("event: point\n")); ok {
		t.Error("non-data line parsed as a canary")
	}
}

func TestCompareDirections(t *testing.T) {
	if w := worseBy(100, 110, "lower"); w < 0.0999 || w > 0.1001 {
		t.Errorf("latency up 10%%: worse by %v", w)
	}
	if w := worseBy(100, 110, "higher"); w > -0.0999 {
		t.Errorf("throughput up 10%%: worse by %v", w)
	}
}

// TestChildrenReapedOnError runs the shape every workload has — start
// children, defer the kill, fail — and checks nothing is left behind.
func TestChildrenReapedOnError(t *testing.T) {
	t.Setenv("CTT_BENCH_SLEEPER", "1")
	dir := t.TempDir()
	var pids []int
	failing := func() error {
		g := &procGroup{}
		defer g.kill()
		for _, name := range []string{"primary", "follower"} {
			c, err := g.start(name, os.Args[0], "", filepath.Join(dir, name))
			if err != nil {
				return err
			}
			pids = append(pids, c.cmd.Process.Pid)
		}
		return context.DeadlineExceeded // the workload errors out
	}
	if err := failing(); err != context.DeadlineExceeded {
		t.Fatal(err)
	}
	if len(pids) != 2 {
		t.Fatalf("started %d children", len(pids))
	}
	for _, pid := range pids {
		// A reaped child's pid no longer names a process of ours.
		if err := syscall.Kill(pid, 0); err == nil {
			t.Errorf("child %d still exists", pid)
		}
	}
}

// TestContractNames pins the names the harness emits to the names
// BENCHMARK.json promises.
func TestContractNames(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, sp.Workloads[i].Name, w.name)
		}
	}
	want := map[string]bool{}
	for _, name := range endToEndNames {
		want[name] = true
	}
	for _, m := range sp.EndToEnd {
		if !want[m.Name] {
			t.Errorf("BENCHMARK.json end_to_end metric %q is not one the harness produces", m.Name)
		}
		delete(want, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for name := range want {
		t.Errorf("harness end-to-end metric %q missing from BENCHMARK.json", name)
	}
}

// TestSmoke runs all four workloads with a 2 s window, then the
// ladder, against the real binary. It builds and forks ctt-server, so
// it only runs when asked: CTT_BENCH_SMOKE=1 go test ./cmd/ctt-bench
func TestSmoke(t *testing.T) {
	if os.Getenv("CTT_BENCH_SMOKE") == "" {
		t.Skip("set CTT_BENCH_SMOKE=1 to run the process-level smoke")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := execute(context.Background(), root, options{seed: 1, window: 2 * time.Second, ladder: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ok() {
		t.Error("a workload failed verification or was generator-bound")
	}
	// Every per-layer name of the contract must have a source somewhere;
	// a 2 s window supports no tail percentile, so those may be absent.
	tail := regexp.MustCompile(`_p9[059]_ms$`)
	for _, m := range sp.PerLayer {
		if tail.MatchString(m.Name) {
			continue
		}
		_, found := rep.Ladder[m.Name]
		for _, r := range rep.Workloads {
			_, inLayer := r.Layer[m.Name]
			_, inDetail := r.Detail[strings.TrimPrefix(m.Name, "client.")]
			found = found || inLayer || inDetail
		}
		if !found {
			t.Errorf("per_layer metric %q was produced by no workload and not by the ladder", m.Name)
		}
	}
}
