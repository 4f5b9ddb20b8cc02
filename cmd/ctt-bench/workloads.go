package main

// The four workloads. Each launches its own fresh deployment, drives
// it for warmup + window, checks the answers, and fills one
// workloadResult. README.md records why each exists and which layers
// it is meant to load.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// workloads maps the contract's names to their runners, in the order a
// full run executes them.
var workloads = []struct {
	name string
	run  func(*env) (*workloadResult, error)
}{
	{"ingest_backfill", runIngestBackfill},
	{"query_dashboard", runQueryDashboard},
	{"query_explore", runQueryExplore},
	{"mixed_live", runMixedLive},
}

// run is the scaffolding shared by the workloads: the deployment, the
// clock of the measured window, the observer and the failure log.
type run struct {
	e              *env
	r              *workloadResult
	cl             *cluster
	fails          *failureLog
	epoch          time.Time
	winFrom, winTo time.Duration // the measured window, as offsets from epoch
	attempted      int           // ops sent plus verification checks made
}

func startRun(e *env, name string, withFollower bool) (*run, error) {
	cl, err := startCluster(e, withFollower)
	if err != nil {
		return nil, err
	}
	r := newResult(e, name)
	r.EndToEnd["setup_s"] = Metric{Value: cl.setupS, Unit: "s"}
	return &run{e: e, r: r, cl: cl, fails: &failureLog{}, winFrom: warmup, winTo: warmup + e.window}, nil
}

// begin starts the run's clock and the observer of its window.
func (x *run) begin() <-chan *observation {
	x.epoch = time.Now()
	ch := make(chan *observation, 1)
	go func() { ch <- x.cl.observe(x.e.ctx, x.epoch.Add(x.winFrom), x.epoch.Add(x.winTo)) }()
	return ch
}

// finish fills what every workload reports the same way and closes the
// books on attempts and failures.
func (x *run) finish(o *observation, samples []sample) error {
	if o.err != nil {
		return fmt.Errorf("observing %s: %w", x.r.Workload, o.err)
	}
	r := x.r
	r.EndToEnd["rss_mean_mb"] = Metric{Value: o.rssMeanMB, Unit: "MB"}
	r.Layer["obs.rss_peak_mb"] = Metric{Value: o.rssPeakMB, Unit: "MB"}
	r.EndToEnd["server_cpu_cores"] = Metric{Value: o.primaryCPU.Seconds() / x.e.window.Seconds(), Unit: "cores"}
	if x.cl.follower != nil {
		r.Layer["repl.follower_cpu_cores"] = Metric{Value: o.followerCPU.Seconds() / x.e.window.Seconds(), Unit: "cores"}
	}
	layerCounts(r, o)
	genCheck(r, samples, o, x.e.window)

	// The store's health after the run is part of every verdict.
	for _, c := range []*child{x.cl.primary, x.cl.follower} {
		if c == nil {
			continue
		}
		x.attempted++
		if m, code, err := c.healthz(); err != nil || code != 200 || m["status"] != "ok" {
			x.fails.add("%s /healthz ends %v (code %d, err %v)", c.name, m["status"], code, err)
		}
	}
	x.attempted++
	if final, err := x.cl.primary.metrics(); err != nil {
		x.fails.add("final scrape: %v", err)
	} else {
		if final["ctt_ingest_store_errors_total"] != 0 {
			x.fails.add("ctt_ingest_store_errors_total = %v", final["ctt_ingest_store_errors_total"])
		}
		// Bytes on disk per point the store holds, history included,
		// walked by the harness rather than trusted from the server.
		if bytes, err := dirBytes(x.cl.primary.dir); err != nil {
			x.fails.add("walking data dir: %v", err)
		} else if pts := final["ctt_tsdb_points"]; pts > 0 {
			r.EndToEnd["disk_bytes_per_point"] = Metric{Value: float64(bytes) / pts, Unit: "bytes"}
		}
	}
	r.Attempted = x.attempted
	r.Failed = x.fails.count()
	r.Failures = x.fails.reasons
	if r.Failed > 0 {
		// The children's own words usually name the cause.
		for _, c := range []*child{x.cl.primary, x.cl.follower} {
			if c != nil {
				m, _, _ := c.healthz()
				fmt.Fprintf(os.Stderr, "--- %s /healthz %v\n--- %s log tail\n%s\n", c.name, m, c.name, c.logTail())
			}
		}
	}
	return nil
}

// throughput is completed work per second over the samples' span, from
// the first start to the last completion.
func throughput(samples []sample, unitsPerOp float64) Metric {
	if len(samples) == 0 {
		return Metric{Unit: "1/s"}
	}
	first, last := samples[0].due, samples[0].done
	for _, s := range samples {
		first, last = min(first, s.due), max(last, s.done)
	}
	return Metric{Value: float64(len(samples)) * unitsPerOp / (last - first).Seconds(), Unit: "1/s", N: len(samples)}
}

// alias publishes a Detail latency's median under the contract's role
// name ("op", "op2"): the one latency every workload reports under the
// same name, whatever its operation is.
func (x *run) alias(role, detail string) {
	if m, ok := x.r.Detail[detail+"_p50_ms"]; ok {
		x.r.EndToEnd[role+"_p50_ms"] = m
	}
}

// dialAll opens one measurement connection per generator worker.
func dialAll(addr string, n int) ([]*conn, func(), error) {
	conns := make([]*conn, 0, n)
	closeAll := func() {
		for _, c := range conns {
			c.close()
		}
	}
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		conns = append(conns, c)
	}
	return conns, closeAll, nil
}

// runLoops runs one open loop per connection and merges their samples.
func (x *run) runLoops(loops []*openLoop) []sample {
	var wg sync.WaitGroup
	outs := make([][]sample, len(loops))
	for i, l := range loops {
		l.epoch = x.epoch
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = l.run(x.e.ctx)
		}()
	}
	wg.Wait()
	var all []sample
	for i, out := range outs {
		all = append(all, out...)
		x.attempted += len(loops[i].ops)
	}
	return all
}

// --- ingest_backfill ---------------------------------------------------

// backfillRate is the offered load of warm-up and window: batches per
// second per connection (with two connections, 75,000 points/s, about
// a quarter of what the same server accepts at saturation). sprint is
// the closed-loop stretch after the window that measures saturation.
const (
	backfillRate = 375
	sprint       = 3 * time.Second
)

func runIngestBackfill(e *env) (*workloadResult, error) {
	sha := backfillScheduleSHA(e.seed, e.workers)
	// No follower here, against the plan: at the commit this benchmark
	// was written on, a follower attached to a saturated primary loses
	// the stream in most runs ("stream position mismatch", then
	// resync_required), which fails the run. README.md "Findings" has
	// the evidence; mixed_live keeps replication in view.
	x, err := startRun(e, "ingest_backfill", false)
	if err != nil {
		return nil, err
	}
	defer x.cl.stop()
	x.r.ScheduleSHA = sha
	conns, closeAll, err := dialAll(x.cl.primary.addr, e.workers)
	if err != nil {
		return nil, err
	}
	defer closeAll()

	stats := make([]seriesStats, backfillSeries) // workers own disjoint series
	churn := make([][]written, e.workers)
	outs := make([][]sample, e.workers)
	obs := x.begin()
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := newBackfillGen(e.seed, w, e.workers)
			var b backfillBatch
			kind := func() uint8 {
				if b.series[0] != b.series[1] {
					return kindPutFanout
				}
				return kindPut
			}
			credit := func() {
				base := pilotStart.UnixMilli()
				if b.series[0] < backfillSeries {
					for i, sid := range b.series {
						stats[sid].add(base+int64(b.k[i])*1000, valueMilli(sid, b.k[i]))
					}
					return
				}
				cw := written{}
				cw.metric, cw.sensor = backfillSeriesName(b.series[0])
				for i := range b.series {
					cw.add(base+int64(b.k[i])*1000, valueMilli(b.series[i], b.k[i]))
				}
				churn[w] = append(churn[w], cw)
			}
			// Warm-up and window: open loop at a fixed rate.
			interval := time.Second / backfillRate
			ops := make([]op, int(x.winTo/interval))
			for i := range ops {
				ops[i] = op{kind: kindPut, id: i,
					due: time.Duration(i)*interval + time.Duration(w)*interval/time.Duration(e.workers)}
			}
			loop := &openLoop{c: conns[w], epoch: x.epoch, ops: ops, fails: x.fails,
				prepare: func(o *op, _ time.Duration) []byte {
					gen.next(&b)
					o.kind = kind()
					return b.tmpl.req
				},
				check: func(*op, int, []byte, bool) string {
					credit()
					return ""
				}}
			outs[w] = loop.run(e.ctx)
			// Sprint: the same sequence, closed loop, as fast as the
			// server acknowledges. Its only number is the saturation
			// throughput, reported but not gated (README.md says why).
			for time.Since(x.epoch) < x.winTo+sprint && e.ctx.Err() == nil && !conns[w].broken {
				gen.next(&b)
				s := sample{kind: kind(), due: time.Since(x.epoch)}
				refusals, err := sendPut(conns[w], b.tmpl.req)
				s.done, s.retries = time.Since(x.epoch), refusals
				if err != nil {
					x.fails.add("worker %d sprint batch %d: %v", w, len(outs[w]), err)
				} else {
					credit()
				}
				outs[w] = append(outs[w], s)
			}
		}()
	}
	wg.Wait()
	o := <-obs
	var all []sample
	for _, out := range outs {
		all = append(all, out...)
	}
	x.attempted += len(all)
	win := windowed(all, x.winFrom, x.winTo)

	setLatency(x.r.Detail, "put_series", latenciesMS(win, kindPut))
	setLatency(x.r.Detail, "put_fanout", latenciesMS(win, kindPutFanout))
	setLatency(x.r.Detail, "put", latenciesMS(win, kindPut, kindPutFanout))
	x.alias("op", "put_series")
	x.alias("op2", "put_fanout")
	x.r.Detail["ingest_points_per_s"] = throughput(windowed(all, x.winTo, x.winTo+sprint), batchPoints)
	retryRatio(x.r, win)

	// The flusher gets to finish before the data directory is measured.
	if err := x.cl.settle(e.ctx, 30*time.Second); err != nil {
		x.fails.add("%v", err)
	}

	// Read back 28 seeded fixed series and 4 churn series.
	rng := rand.New(rand.NewSource(e.seed))
	var readBack []written
	for _, sid := range rng.Perm(backfillSeries) {
		if len(readBack) == 28 {
			break
		}
		if stats[sid].count > 0 {
			w := written{seriesStats: stats[sid]}
			w.metric, w.sensor = backfillSeriesName(sid)
			readBack = append(readBack, w)
		}
	}
	for w := range churn {
		for i := 0; i < len(churn[w]) && i < 4/e.workers; i++ {
			readBack = append(readBack, churn[w][rng.Intn(len(churn[w]))])
		}
	}
	x.attempted += verifyWritten(x.cl.addrs(), readBack, x.fails)
	return x.r, x.finish(o, win)
}

// retryRatio records the share of /api/put attempts refused with 429.
func retryRatio(r *workloadResult, samples []sample) {
	var refused, batches float64
	for _, s := range samples {
		if s.kind == kindPut || s.kind == kindPutFanout {
			refused += float64(s.retries)
			batches++
		}
	}
	if batches > 0 {
		r.Layer["api.put_retry_ratio"] = Metric{Value: refused / (refused + batches), Unit: "ratio"}
	}
}

// --- query shapes ------------------------------------------------------

// panelShape is one of ctt-server's five dashboard panels: the query a
// browser would send for it and the SVG the server renders itself.
type panelShape struct {
	name, m, metric    string
	window, downsample time.Duration
	grouped            bool // one result series per sensor
	topK               int
}

const week = 7 * 24 * time.Hour

var panelShapes = []panelShape{
	{"co2", "avg:1h-avg:air.co2{sensor=*}", "air.co2", week, time.Hour, true, 0},
	{"co2top", "topk(5,avg:1h-avg:air.co2{sensor=*})", "air.co2", week, time.Hour, true, 5},
	{"no2", "avg:1h-avg:air.no2", "air.no2", week, time.Hour, false, 0},
	{"traffic", "avg:30m-avg:traffic.jamfactor", "traffic.jamfactor", 48 * time.Hour, 30 * time.Minute, false, 0},
	{"battery", "avg:1h-avg:node.battery{sensor=*}", "node.battery", week, time.Hour, true, 0},
}

// wantSeries is how many result series a shape must return over a
// range, given the pilot's history.
func (p panelShape) wantSeries(h history, startMS, endMS int64) int {
	if !p.grouped {
		return 1
	}
	n := h.seriesIn(p.metric, startMS, endMS)
	if p.topK > 0 && n > p.topK {
		n = p.topK
	}
	return n
}

// answerBook remembers the fingerprint of the first answer to each
// question so every repeat can be required to be byte-identical.
type answerBook struct {
	mu   sync.Mutex
	seen map[int]uint64
}

func (a *answerBook) same(id int, plain []byte) bool {
	h := bodyHash(plain)
	a.mu.Lock()
	defer a.mu.Unlock()
	if first, ok := a.seen[id]; ok {
		return first == h
	}
	a.seen[id] = h
	return true
}

// --- query_dashboard ---------------------------------------------------

// dashboardRate is the per-connection request rate; 4 of 5 requests
// are /api/query, the fifth a server-rendered panel.
const dashboardRate = 100

// dashboardSchedule lays out one open-loop schedule per connection.
// Question ids 0-4 are the panel queries, 5-9 the panel SVGs; every
// block of 25 requests holds each query four times and each panel
// once, in an order drawn from the seed. Connections are offset so
// their ticks interleave.
func dashboardSchedule(seed int64, conns int, total time.Duration) ([][]op, string) {
	rng := rand.New(rand.NewSource(seed))
	sh := newScheduleHash()
	interval := time.Second / dashboardRate
	out := make([][]op, conns)
	for w := range out {
		var block []int
		out[w] = make([]op, int(total/interval))
		for i := range out[w] {
			if len(block) == 0 {
				for id := 0; id < 5; id++ {
					block = append(block, id, id, id, id, 5+id)
				}
				rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			}
			id := block[0]
			block = block[1:]
			kind := kindQuery
			if id >= 5 {
				kind = kindPanel
			}
			due := time.Duration(i)*interval + time.Duration(w)*interval/time.Duration(conns)
			out[w][i] = op{due: due, kind: kind, id: id}
			sh.add("%d %d %d", w, due, id)
		}
	}
	return out, sh.sum()
}

func runQueryDashboard(e *env) (*workloadResult, error) {
	x, err := startRun(e, "query_dashboard", false)
	if err != nil {
		return nil, err
	}
	defer x.cl.stop()
	hist, err := fetchHistory(x.cl.primary.addr, []string{"air.co2", "node.battery"})
	if err != nil {
		return nil, err
	}
	conns, closeAll, err := dialAll(x.cl.primary.addr, e.workers)
	if err != nil {
		return nil, err
	}
	defer closeAll()

	// Ten questions: ids 0-4 the panel queries, 5-9 the panel SVGs.
	endMS := t0.UnixMilli()
	reqs := make([][]byte, 10)
	want := make([]int, 5)
	for i, p := range panelShapes {
		startMS := t0.Add(-p.window).UnixMilli()
		reqs[i] = getRequest(queryPath(startMS, endMS, p.m), "gzip")
		reqs[5+i] = getRequest("/panel/"+p.name+".svg", "gzip")
		want[i] = p.wantSeries(hist, startMS, endMS)
	}
	schedules, sha := dashboardSchedule(e.seed, len(conns), warmup+e.window)
	x.r.ScheduleSHA = sha
	book := &answerBook{seen: map[int]uint64{}}
	loops := make([]*openLoop, len(conns))
	for w, c := range conns {
		for i := range schedules[w] {
			schedules[w][i].req = reqs[schedules[w][i].id]
		}
		var gz gunzipper
		loops[w] = &openLoop{c: c, ops: schedules[w], fails: x.fails,
			check: func(o *op, status int, body []byte, gzipped bool) string {
				if status != 200 {
					return fmt.Sprintf("status %d", status)
				}
				plain, err := gz.plain(body, gzipped)
				if err != nil {
					return "gunzip: " + err.Error()
				}
				if o.kind == kindQuery {
					if !gzipped {
						return "query answer was not gzipped"
					}
					if reason := checkQueryBody(plain, want[o.id]); reason != "" {
						return reason
					}
				} else if !isSVG(plain) {
					return "panel is not an SVG document"
				}
				if !book.same(o.id, plain) {
					return "answer differs from the first answer to the same question"
				}
				return ""
			}}
	}

	obs := x.begin()
	all := x.runLoops(loops)
	o := <-obs
	win := windowed(all, x.winFrom, x.winTo)
	setLatency(x.r.Detail, "query", latenciesMS(win, kindQuery))
	setLatency(x.r.Detail, "panel", latenciesMS(win, kindPanel))
	x.alias("op", "query")
	x.alias("op2", "panel")
	wireBytes(x.r, win)
	return x.r, x.finish(o, win)
}

func isSVG(b []byte) bool {
	b = bytes.TrimSpace(b)
	return bytes.HasPrefix(b, []byte("<svg")) && bytes.HasSuffix(b, []byte("</svg>"))
}

// wireBytes records the mean response size of /api/query as it crossed
// the socket (compressed when gzip was negotiated).
func wireBytes(r *workloadResult, samples []sample) {
	var total, n float64
	for _, s := range samples {
		if s.kind == kindQuery || s.kind == kindQueryRollup {
			total += float64(s.wire)
			n++
		}
	}
	if n > 0 {
		r.Layer["api.wire_bytes_per_query"] = Metric{Value: total / n, Unit: "bytes"}
	}
}

// --- query_explore -----------------------------------------------------

// exploreRate is requests per second per connection. At 3-4 ms a query
// that keeps a connection about one sixth busy, so latency is service
// time and not queueing behind the previous answer.
const exploreRate = 50

// exploreShape is one kind of ad-hoc query; weight is its share in
// tenths.
type exploreShape struct {
	format     string // takes the metric
	weight     int
	downsample time.Duration
	rollup     bool // servable from the 1h tier
	topK       int
}

var exploreShapes = []exploreShape{
	{"avg:%s{sensor=*}", 4, 0, false, 0},
	{"avg:7m-avg:%s{sensor=*}", 3, 7 * time.Minute, false, 0},
	{"avg:1h-avg:%s{sensor=*}", 2, time.Hour, true, 0},
	{"topk(5,avg:1h-avg:%s{sensor=*})", 1, time.Hour, true, 5},
}

var exploreMetrics = []string{"air.co2", "air.no2", "node.battery"}

// exploreQuery draws one query: a shape by weight, a metric, and a
// minute-granular range of 6 h to 7 d somewhere in the pilot's week.
func exploreQuery(rng *rand.Rand) (shape int, metric string, startMS, endMS int64) {
	pick := rng.Intn(10)
	for shape = range exploreShapes {
		if pick < exploreShapes[shape].weight {
			break
		}
		pick -= exploreShapes[shape].weight
	}
	metric = exploreMetrics[rng.Intn(len(exploreMetrics))]
	const weekMin = 7 * 24 * 60
	lenMin := 6*60 + rng.Intn(weekMin-6*60+1)
	startMin := rng.Intn(weekMin - lenMin + 1)
	startMS = pilotStart.UnixMilli() + int64(startMin)*60_000
	return shape, metric, startMS, startMS + int64(lenMin)*60_000
}

// hourlyShape indexes the plain 1h-avg shape, whose answers can be
// recomputed from raw points by a simple fold.
const hourlyShape = 2

// exploreSpec is what one explore op asks.
type exploreSpec struct {
	shape          int
	metric         string
	startMS, endMS int64
}

// exploreSchedule draws one open-loop schedule per connection from the
// seed; specs[w][i] describes ops[w][i], whose id is i.
func exploreSchedule(seed int64, conns int, total time.Duration) (ops [][]op, specs [][]exploreSpec, sha string) {
	rng := rand.New(rand.NewSource(seed))
	sh := newScheduleHash()
	interval := time.Second / exploreRate
	ops, specs = make([][]op, conns), make([][]exploreSpec, conns)
	for w := range ops {
		n := int(total / interval)
		ops[w], specs[w] = make([]op, n), make([]exploreSpec, n)
		for i := range ops[w] {
			shape, metric, startMS, endMS := exploreQuery(rng)
			es := exploreShapes[shape]
			m := fmt.Sprintf(es.format, metric)
			kind := kindQuery
			if es.rollup {
				kind = kindQueryRollup
			}
			due := time.Duration(i)*interval + time.Duration(w)*interval/time.Duration(conns)
			specs[w][i] = exploreSpec{shape, metric, startMS, endMS}
			ops[w][i] = op{due: due, kind: kind, id: i, shape: shape,
				req: getRequest(queryPath(startMS, endMS, m), "identity")}
			sh.add("%d %d %s %d %d", w, due, m, startMS, endMS)
		}
	}
	return ops, specs, sh.sum()
}

func runQueryExplore(e *env) (*workloadResult, error) {
	x, err := startRun(e, "query_explore", false)
	if err != nil {
		return nil, err
	}
	defer x.cl.stop()
	hist, err := fetchHistory(x.cl.primary.addr, exploreMetrics)
	if err != nil {
		return nil, err
	}
	conns, closeAll, err := dialAll(x.cl.primary.addr, e.workers)
	if err != nil {
		return nil, err
	}
	defer closeAll()

	schedules, specs, sha := exploreSchedule(e.seed, len(conns), warmup+e.window)
	x.r.ScheduleSHA = sha
	var foldChecks []exploreSpec
	loops := make([]*openLoop, len(conns))
	for w, c := range conns {
		wants := make([]int, len(specs[w]))
		for i, q := range specs[w] {
			es := exploreShapes[q.shape]
			wants[i] = hist.seriesIn(q.metric, q.startMS, q.endMS)
			if es.topK > 0 && wants[i] > es.topK {
				wants[i] = es.topK
			}
			if q.shape == hourlyShape && len(foldChecks) < 10 {
				foldChecks = append(foldChecks, q)
			}
		}
		loops[w] = &openLoop{c: c, ops: schedules[w], fails: x.fails,
			check: func(o *op, status int, body []byte, gzipped bool) string {
				switch {
				case status != 200:
					return fmt.Sprintf("status %d", status)
				case gzipped:
					return "identity was asked for, gzip came back"
				}
				return checkQueryBody(body, wants[o.id])
			}}
	}

	obs := x.begin()
	all := x.runLoops(loops)
	o := <-obs
	win := windowed(all, x.winFrom, x.winTo)
	setLatency(x.r.Detail, "query_raw", latenciesMS(win, kindQuery))
	setLatency(x.r.Detail, "query_rollup", latenciesMS(win, kindQueryRollup))
	setLatency(x.r.Detail, "query", latenciesMS(win, kindQuery, kindQueryRollup))
	x.alias("op", "query_raw")
	x.alias("op2", "query_rollup")
	wireBytes(x.r, win)

	// Ten of the hourly downsamples that were asked, recomputed from raw.
	for _, f := range foldChecks {
		x.attempted++
		if err := verifyHourlyFold(x.cl.primary.addr, f.metric, f.startMS, f.endMS); err != nil {
			x.fails.add("1h-avg %s [%d,%d]: %v", f.metric, f.startMS, f.endMS, err)
		}
	}
	return x.r, x.finish(o, win)
}

// --- mixed_live --------------------------------------------------------

const (
	liveSensors   = 50
	liveSeries    = liveSensors * len(pilotMetrics) // 200, two fan-out groups
	livePutRate   = 300                             // batches per second
	liveQueryRate = 40
	liveCanaries  = 40 // of the put batches per second carry a canary
)

// canary is one freshness probe: when its batch was first sent, when
// its SSE event was read, and whether the batch was acknowledged.
type canary struct {
	sent, seen time.Duration
	acked      bool
}

// canaryLedger is shared by the sender and the stream reader.
type canaryLedger struct {
	mu  sync.Mutex
	all []canary
}

func (l *canaryLedger) send(now time.Duration) (seq int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.all = append(l.all, canary{sent: now})
	return len(l.all) - 1
}

func (l *canaryLedger) ack(seq int) {
	l.mu.Lock()
	l.all[seq].acked = true
	l.mu.Unlock()
}

func (l *canaryLedger) saw(seq int, now time.Duration) {
	l.mu.Lock()
	if seq >= 0 && seq < len(l.all) && l.all[seq].seen == 0 {
		l.all[seq].seen = now
	}
	l.mu.Unlock()
}

// missing counts acknowledged canaries whose event has not arrived.
func (l *canaryLedger) missing() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.all {
		if c.acked && c.seen == 0 {
			n++
		}
	}
	return n
}

var timestampKey = []byte(`"timestamp":`)

// canarySeq extracts the canary sequence number from one SSE line: the
// event's timestamp is t0 plus the sequence number, in milliseconds.
func canarySeq(line []byte) (int, bool) {
	if !bytes.HasPrefix(line, []byte("data:")) {
		return 0, false
	}
	i := bytes.Index(line, timestampKey)
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(timestampKey):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	ts, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	if err != nil {
		return 0, false
	}
	return int(ts - t0.UnixMilli()), true
}

// liveSchedule lays out a put every 1/300 s (40 of each second's 300
// carry a canary: shape 1) and a query every 1/40 s drawn from nQueries
// shapes, merged in due order.
func liveSchedule(seed int64, total time.Duration, nQueries int) ([]op, string) {
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for i := 0; i < int(total*livePutRate/time.Second); i++ {
		carries := 0
		if i*liveCanaries/livePutRate != (i+1)*liveCanaries/livePutRate {
			carries = 1
		}
		ops = append(ops, op{due: time.Duration(i) * time.Second / livePutRate, kind: kindPut, id: i, shape: carries})
	}
	for i := 0; i < int(total*liveQueryRate/time.Second); i++ {
		// Queries sit between put slots so the two never tie.
		due := time.Duration(i)*time.Second/liveQueryRate + time.Second/(2*livePutRate)
		ops = append(ops, op{due: due, kind: kindQuery, id: rng.Intn(nQueries)})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	sh := newScheduleHash()
	for _, o := range ops {
		sh.add("%d %d %d %d", o.due, o.kind, o.id, o.shape)
	}
	return ops, sh.sum()
}

func runMixedLive(e *env) (*workloadResult, error) {
	x, err := startRun(e, "mixed_live", true)
	if err != nil {
		return nil, err
	}
	defer x.cl.stop()
	// One connection carries the writes, one the reads, a third is the
	// SSE subscriber.
	conns, closeAll, err := dialAll(x.cl.primary.addr, 2)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	stream, err := openStream(x.cl.primary.addr, "canary.")
	if err != nil {
		return nil, err
	}
	defer stream.close()

	// Two fan-out groups of 100 series, each with a plain and a
	// canary-carrying template.
	var tmpl [2][2]*putTemplate
	for g := range tmpl {
		metrics := make([]string, batchPoints)
		sensors := make([]int, batchPoints)
		for i := range metrics {
			s := g*batchPoints + i
			metrics[i], sensors[i] = pilotMetrics[s/liveSensors], s%liveSensors
		}
		tmpl[g][0] = renderPut("live-", metrics, sensors, false)
		tmpl[g][1] = renderPut("live-", metrics, sensors, true)
	}
	// Panel queries over a fixed range that covers everything the
	// writers will write: each write invalidates each cached answer.
	endMS := t0.Add(2 * time.Hour).UnixMilli()
	queries := make([][]byte, len(panelShapes))
	for i, p := range panelShapes {
		queries[i] = getRequest(queryPath(t0.Add(-p.window).UnixMilli(), endMS, p.m), "gzip")
	}

	ops, sha := liveSchedule(e.seed, warmup+e.window, len(queries))
	x.r.ScheduleSHA = sha
	rng := rand.New(rand.NewSource(e.seed))

	ledger := &canaryLedger{}
	stats := make([]seriesStats, liveSeries)
	canaryStats := written{metric: "canary.freshness", sensor: "canary"}
	var (
		ticks [2]int // samples sent so far, per group
		sentK int    // sample number of the put in flight
		seq   int    // canary number of the put in flight
		sent  time.Duration
		gz    gunzipper
	)
	var puts, reads []op
	for _, o := range ops {
		if o.kind == kindPut {
			puts = append(puts, o)
		} else {
			o.req = queries[o.id]
			reads = append(reads, o)
		}
	}
	putLoop := &openLoop{c: conns[0], ops: puts, fails: x.fails,
		prepare: func(o *op, now time.Duration) []byte {
			g := o.id % 2
			t := tmpl[g][o.shape]
			sentK = ticks[g]
			ticks[g]++
			for i, pt := range t.points {
				putDigits(t.req, pt.ts, tsWidth, uint64(t0.UnixMilli()+int64(sentK)*1000))
				putValue(t.req, pt.value, valueMilli(g*batchPoints+i, sentK))
			}
			if o.shape == 1 {
				seq, sent = ledger.send(now), now
				putDigits(t.req, t.canaryTS, tsWidth, uint64(t0.UnixMilli()+int64(seq)))
				putDigits(t.req, t.canaryValue, canaryWidth, uint64(canaryBase+now.Microseconds()))
			}
			return t.req
		},
		check: func(o *op, _ int, _ []byte, _ bool) string {
			g := o.id % 2
			for i := 0; i < batchPoints; i++ {
				s := g*batchPoints + i
				stats[s].add(t0.UnixMilli()+int64(sentK)*1000, valueMilli(s, sentK))
			}
			if o.shape == 1 {
				ledger.ack(seq)
				canaryStats.add(t0.UnixMilli()+int64(seq), uint64(canaryBase+sent.Microseconds())*1000)
			}
			return ""
		},
	}
	readLoop := &openLoop{c: conns[1], ops: reads, fails: x.fails,
		check: func(o *op, status int, body []byte, gzipped bool) string {
			if status != 200 {
				return fmt.Sprintf("status %d", status)
			}
			plain, err := gz.plain(body, gzipped)
			if err != nil {
				return "gunzip: " + err.Error()
			}
			// The writers add 50 sensors to the pilot's twelve, and
			// which of them have data yet depends on timing, so only
			// the structure and a floor on the series count are checked.
			if len(plain) < 2 || plain[0] != '[' || plain[len(plain)-1] != ']' ||
				bytes.Contains(plain, errorElem) || bytes.Count(plain, seriesOpen) < 1 {
				return "answer is not a closed JSON array of at least one series"
			}
			return ""
		},
	}

	// Stream reader: it ends when the harness closes the connection.
	readerDone := make(chan struct{})
	obs := x.begin()
	go func() {
		defer close(readerDone)
		for {
			line, err := stream.br.ReadSlice('\n')
			if err != nil {
				return
			}
			if n, ok := canarySeq(line); ok {
				ledger.saw(n, time.Since(x.epoch))
			}
		}
	}()
	all := x.runLoops([]*openLoop{putLoop, readLoop})
	lastAck := time.Now()
	if err := x.cl.catchUp(e.ctx, 30*time.Second); err != nil {
		x.fails.add("catch-up: %v", err)
	} else {
		x.r.Layer["repl.catchup_ms"] = Metric{Value: float64(time.Since(lastAck)) / 1e6, Unit: "ms"}
	}
	o := <-obs

	// Every acknowledged canary must arrive; give stragglers opTimeout.
	deadline := time.Now().Add(opTimeout)
	for ledger.missing() > 0 && time.Now().Before(deadline) && e.ctx.Err() == nil {
		time.Sleep(10 * time.Millisecond)
	}
	stream.close()
	<-readerDone
	var fresh []float64
	for _, cn := range ledger.all {
		x.attempted++
		switch {
		case cn.acked && cn.seen == 0:
			x.fails.add("canary sent at %v never arrived on the stream", cn.sent)
		case cn.acked && cn.sent >= x.winFrom && cn.sent < x.winTo:
			fresh = append(fresh, float64(cn.seen-cn.sent)/1e6)
		}
	}

	win := windowed(all, x.winFrom, x.winTo)
	setLatency(x.r.Detail, "stream_freshness", fresh)
	setLatency(x.r.Detail, "query", latenciesMS(win, kindQuery))
	setLatency(x.r.Detail, "put", latenciesMS(win, kindPut))
	x.alias("op", "stream_freshness")
	x.alias("op2", "query")
	retryRatio(x.r, win)
	wireBytes(x.r, win)

	// Read back 31 seeded live series and the canary series from both
	// servers; the follower gets to apply the stragglers first.
	if err := x.cl.catchUp(e.ctx, 30*time.Second); err != nil {
		x.fails.add("catch-up before read-back: %v", err)
	}
	readBack := []written{canaryStats}
	for _, s := range rng.Perm(liveSeries)[:31] {
		w := written{metric: pilotMetrics[s/liveSensors], sensor: fmt.Sprintf("live-%06d", s%liveSensors), seriesStats: stats[s]}
		readBack = append(readBack, w)
	}
	x.attempted += verifyWritten(x.cl.addrs(), readBack, x.fails)
	return x.r, x.finish(o, win)
}
