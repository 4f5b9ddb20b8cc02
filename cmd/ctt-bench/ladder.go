package main

// The ladder: the traced, in-process run that gives the per-layer
// numbers. For three op shapes the same inputs the real workloads send
// are timed through successively taller stacks built only from public
// constructors, on one goroutine, with tracing off everywhere above. A
// layer's self time is its rung minus the rung below; what the real
// binary adds on top of the tallest rung is reported as
// *.unattributed_us, never hidden. Every timed call is also a span
// {name, start, end, parent, op}, kept in memory and written to
// out/spans.json when the ladder ends.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/lineproto"
	"repro/internal/rollup"
	"repro/internal/tsdb"
)

// Ops per shape, sized so the whole ladder takes about as long as one
// workload's window. The cold ladder runs five rungs of
// millisecond-sized queries per op, so it gets the fewest.
const (
	ladderPutOps    = 1000
	ladderCachedOps = 1000
	ladderColdOps   = 300
	ladderPanelOps  = 250
	ladderPushOps   = 1000
	flushPoints     = 500_000
)

// span is one timed call into a layer. Parent indexes the op's
// synthetic root span; roots have parent -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

// root opens the synthetic parent of one op's rungs.
func (t *tracer) root(shape string, op int) int {
	t.spans = append(t.spans, span{Name: fmt.Sprintf("%s/op-%d", shape, op), Start: int64(time.Since(t.epoch)), Parent: -1, Op: op})
	return len(t.spans) - 1
}

// timed runs fn as a child span of root and returns its duration; the
// root's end is stretched to cover it.
func (t *tracer) timed(name string, root int, fn func()) time.Duration {
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	t.spans = append(t.spans, span{Name: name, Start: int64(start), End: int64(end), Parent: root, Op: t.spans[root].Op})
	t.spans[root].End = int64(end)
	return end - start
}

// rungs collects durations per rung name.
type rungs map[string][]float64

func (r rungs) add(name string, d time.Duration) { r[name] = append(r[name], float64(d)/1e3) }

// medians reports each rung's median in microseconds.
func (r rungs) medians(dst map[string]Metric) {
	for name, us := range r {
		dst[name] = Metric{Value: median(us), Unit: "us", N: len(us)}
	}
}

// frozen is the pilot clock of a -tick 0 server.
func frozen() time.Time { return t0 }

var serverTiers = []rollup.Tier{
	{Resolution: time.Minute, Retention: 168 * time.Hour},
	{Resolution: time.Hour, Retention: 2160 * time.Hour},
}

// stack is one rung's private deployment, as tall as asked.
type stack struct {
	db   *tsdb.DB
	eng  *rollup.Engine
	gw   *api.Gateway
	h    http.Handler
	srv  *http.Server
	c    *conn // loopback client, when srv is set
	addr string

	// user counts the non-derived points the store's batch observers
	// have been handed: the harness's only view of "committed".
	user atomic.Int64
}

type stackLevel int

const (
	levelMem stackLevel = iota
	levelWAL
	levelRollup
	levelGateway
	levelLoopback
)

// newStack builds a store of the given height under dir. Background
// loops are off: the ladder times foreground calls only.
func newStack(dir string, level stackLevel) (*stack, error) {
	s := &stack{}
	var err error
	if level == levelMem {
		s.db, err = tsdb.Open("")
	} else {
		s.db, err = tsdb.OpenOptions(tsdb.Options{Dir: dir, DurableBlocks: true, FlushInterval: -1, Now: frozen})
	}
	if err != nil {
		return nil, err
	}
	if level >= levelRollup {
		s.eng, err = rollup.New(s.db, rollup.Config{Tiers: serverTiers, Grace: time.Minute, FlushEvery: -1, Now: frozen})
		if err != nil {
			s.close()
			return nil, err
		}
	}
	if level >= levelGateway {
		s.gw = api.New(s.db, nil, api.Config{Now: frozen})
		s.h = s.gw.Handler()
	}
	// Registered last, so it fires after the rollup fold and the
	// gateway's fan-out: "committed" means every observer has run.
	s.db.AddBatchObserver(func(rps []tsdb.RefPoint) {
		n := 0
		for _, rp := range rps {
			if !strings.HasPrefix(rp.Ref.Metric(), rollup.MetricPrefix) {
				n++
			}
		}
		s.user.Add(int64(n))
	})
	if level >= levelLoopback {
		if err := s.serve(s.h); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// serve puts h behind a loopback http.Server and dials it.
func (s *stack) serve(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.srv.Serve(ln) }() // returns ErrServerClosed on close
	s.addr = ln.Addr().String()
	s.c, err = dial(s.addr)
	return err
}

func (s *stack) close() {
	if s.c != nil {
		s.c.close()
	}
	if s.srv != nil {
		_ = s.srv.Close() // listener teardown: nothing to report
	}
	if s.gw != nil {
		_ = s.gw.Close()
	}
	if s.eng != nil {
		_ = s.eng.Close()
	}
	if s.db != nil {
		_ = s.db.Close() // scratch store, deleted right after
	}
}

// awaitUser spins until the observer has counted want user points; the
// ladder is single-threaded by design, so a yield loop gives the ingest
// workers the core and still stops the clock promptly.
func (s *stack) awaitUser(want int64) error {
	deadline := time.Now().Add(opTimeout)
	for s.user.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("store saw %d of %d points within %v", s.user.Load(), want, opTimeout)
		}
		runtime.Gosched()
	}
	return nil
}

// nullWriter is the cheapest http.ResponseWriter: it keeps the status
// and drops the body.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *nullWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

// serveOnce drives a handler in-process and returns the status.
func serveOnce(h http.Handler, req *http.Request) int {
	w := &nullWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// runLadder executes the whole traced run and returns its metrics.
func runLadder(e *env, outDir string) (_ map[string]Metric, err error) {
	base, err := os.MkdirTemp(filepath.Join(e.root, workRoot), "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	out := map[string]Metric{}
	tr := &tracer{epoch: time.Now()}
	for _, step := range []func(*env, string, *tracer, map[string]Metric) error{
		ladderPut, ladderQueries, ladderFlush, ladderStreamPush,
	} {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		if err := step(e, base, tr, out); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "spans.json"), data, 0o644); err != nil {
		return nil, err
	}
	return out, nil
}

// --- put ---------------------------------------------------------------

var sensorKey = []byte("sensor")

// putInput is one generated batch in every form a rung needs.
type putInput struct {
	metric, sensor [batchPoints][]byte
	ts             [batchPoints]int64
	value          [batchPoints]float64
	body           []byte // /api/put JSON
	request        []byte // the same as a complete HTTP request
	telnet         []byte // the same as telnet put lines
}

// appendDirect is the store-level rung: intern every point's series
// from raw bytes, then one batch append.
func appendDirect(db *tsdb.DB, in *putInput, rps []tsdb.RefPoint) error {
	rps = rps[:0]
	kvs := [][]byte{sensorKey, nil} // reused, as the gateway reuses its scratch
	for i := range in.ts {
		kvs[1] = in.sensor[i]
		ref, err := db.InternBytes(in.metric[i], kvs)
		if err != nil {
			return err
		}
		rps = append(rps, tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: in.ts[i], Value: in.value[i]}})
	}
	if res := db.AppendRefs(rps); len(res.Errors) > 0 {
		return fmt.Errorf("AppendRefs: %d point errors", len(res.Errors))
	}
	return nil
}

// ladderPut times the batches ingest_backfill sends (same generator,
// same seed, so the same mix of one-series, fan-out and churn batches)
// through: memory store -> +WAL -> +rollup -> +gateway handler (ack,
// then commit) -> +loopback HTTP; and, beside the ladder, the same
// points as telnet lines.
func ladderPut(e *env, base string, tr *tracer, out map[string]Metric) error {
	levels := []stackLevel{levelMem, levelWAL, levelRollup, levelGateway, levelLoopback, levelGateway}
	stacks := make([]*stack, len(levels))
	for i, lv := range levels {
		s, err := newStack(filepath.Join(base, fmt.Sprintf("put-%d", i)), lv)
		if err != nil {
			return err
		}
		defer s.close()
		stacks[i] = s
	}
	mem, wal, roll, gw, loop, tel := stacks[0], stacks[1], stacks[2], stacks[3], stacks[4], stacks[5]
	lp := lineproto.New(tel.gw, lineproto.Config{})
	lpAddr, err := lp.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lp.Close()
	telConn, err := net.Dial("tcp", lpAddr.String())
	if err != nil {
		return err
	}
	defer telConn.Close()

	gen := newBackfillGen(e.seed, 0, 1)
	var (
		b   backfillBatch
		in  putInput
		rps = make([]tsdb.RefPoint, 0, batchPoints)
		r   = rungs{}
	)
	putReq, err := http.NewRequest(http.MethodPost, "/api/put", nil)
	if err != nil {
		return err
	}
	for op := 0; op < ladderPutOps; op++ {
		gen.next(&b)
		in.body = b.tmpl.body()
		in.request = b.tmpl.req
		in.telnet = in.telnet[:0]
		for i := range b.series {
			metric, sensor := backfillSeriesName(b.series[i])
			in.metric[i], in.sensor[i] = []byte(metric), []byte(sensor)
			in.ts[i] = pilotStart.UnixMilli() + int64(b.k[i])*1000
			in.value[i] = float64(valueMilli(b.series[i], b.k[i])) / 1000
			in.telnet = fmt.Appendf(in.telnet, "put %s %d %.3f sensor=%s\n", metric, in.ts[i], in.value[i], sensor)
		}
		want := int64(op+1) * batchPoints
		root := tr.root("put", op)
		var stepErr error
		note := func(err error) {
			if err != nil && stepErr == nil {
				stepErr = err
			}
		}
		r.add("tsdb.append_mem_us", tr.timed("tsdb.append_mem", root, func() { note(appendDirect(mem.db, &in, rps)) }))
		r.add("tsdb.append_wal_us", tr.timed("tsdb.append_wal", root, func() { note(appendDirect(wal.db, &in, rps)) }))
		r.add("rollup.append_us", tr.timed("rollup.append", root, func() { note(appendDirect(roll.db, &in, rps)) }))

		req := putReq.Clone(e.ctx)
		req.Body = io.NopCloser(bytes.NewReader(in.body))
		ack := tr.timed("api.put_ack", root, func() {
			if code := serveOnce(gw.h, req); code != http.StatusNoContent {
				note(fmt.Errorf("handler put: status %d", code))
			}
		})
		commit := tr.timed("api.put_commit", root, func() { note(gw.awaitUser(want)) })
		r.add("api.put_ack_us", ack)
		r.add("api.put_commit_us", commit)
		r.add("api.put_handler_us", ack+commit)

		lack := tr.timed("api.put_loopback_ack", root, func() {
			if _, err := sendPut(loop.c, in.request); err != nil {
				note(err)
			}
		})
		lcommit := tr.timed("api.put_loopback_commit", root, func() { note(loop.awaitUser(want)) })
		r.add("api.put_loopback_ack_us", lack)
		r.add("api.put_loopback_us", lack+lcommit)

		r.add("lineproto.put_us", tr.timed("lineproto.put", root, func() {
			if _, err := telConn.Write(in.telnet); err != nil {
				note(err)
				return
			}
			note(tel.awaitUser(want))
		}))
		if stepErr != nil {
			return fmt.Errorf("put ladder op %d: %w", op, stepErr)
		}
	}
	r.medians(out)
	return nil
}

// --- queries, panels, pipeline -----------------------------------------

// tsdbQuery is the store-level form of an explore query.
func (es exploreShape) tsdbQuery(metric string, startMS, endMS int64) tsdb.Query {
	return tsdb.Query{
		Metric: metric, Tags: map[string]string{"sensor": "*"},
		Start: startMS, End: endMS, Aggregator: tsdb.AggAvg,
		Downsample: es.downsample, SeriesLimit: es.topK,
	}
}

// getPair is one GET as the in-process rungs need it (identity and
// gzip) and as the loopback rung sends it.
type getPair struct {
	identity, gzip *http.Request
	wire           []byte
}

func newGetPair(e *env, path, wireEncoding string) (getPair, error) {
	id, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return getPair{}, err
	}
	gz := id.Clone(e.ctx)
	id.Header.Set("Accept-Encoding", "identity")
	gz.Header.Set("Accept-Encoding", "gzip")
	return getPair{id, gz, getRequest(path, wireEncoding)}, nil
}

// okOrNote serves req in-process and notes a non-200 in *errp.
func okOrNote(h http.Handler, req *http.Request, errp *error) {
	if code := serveOnce(h, req); code != http.StatusOK && *errp == nil {
		*errp = fmt.Errorf("%s: status %d", req.URL.RequestURI(), code)
	}
}

// okOrNoteWire sends req over the loopback connection likewise.
func okOrNoteWire(c *conn, req []byte, errp *error) {
	if status, _, err := c.roundTrip(req); (err != nil || status != http.StatusOK) && *errp == nil {
		*errp = fmt.Errorf("loopback: status %d, err %v", status, err)
	}
}

// pilot is the paper's deployment fast-forwarded in-process: the store
// the query ladders read.
type pilot struct {
	sys *core.System
	eng *rollup.Engine
}

// gateway builds a fresh gateway over the pilot's store, configured as
// ctt-server configures its own.
func (p *pilot) gateway() (*api.Gateway, http.Handler) {
	gw := api.New(p.sys.DB, p.sys.Dataport, api.Config{Now: p.sys.Now})
	return gw, gw.Handler()
}

// ladderQueries fast-forwards the pilot in-process (timing the paper's
// own pipeline on the way), then times the dashboard's cached queries,
// the explore mix's cold queries and the server-rendered panels over
// that store.
func ladderQueries(e *env, base string, tr *tracer, out map[string]Metric) error {
	cfg := core.TrondheimConfig(e.seed)
	cfg.Start = pilotStart
	cfg.Storage = &tsdb.Options{Dir: filepath.Join(base, "pilot"), DurableBlocks: true, FlushAge: 30 * time.Minute, FlushInterval: -1}
	sys, err := core.New(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	eng, err := rollup.New(sys.DB, rollup.Config{Tiers: serverTiers, Grace: time.Minute, FlushEvery: -1, Now: sys.Now})
	if err != nil {
		return err
	}
	defer eng.Close()
	begin := time.Now()
	if _, err := sys.Run(7 * 24 * time.Hour); err != nil {
		return err
	}
	took := time.Since(begin)
	out["core.pipeline_us_per_uplink"] = Metric{Value: float64(took.Microseconds()) / float64(sys.IngestCount()), Unit: "us", N: sys.IngestCount()}
	out["core.points_per_s"] = Metric{Value: float64(sys.DB.PointCount()) / took.Seconds(), Unit: "1/s", N: sys.DB.PointCount()}
	// History older than flush-age goes to block files, the last half
	// hour stays in the head: the queries below read disk + head.
	fs, err := sys.DB.FlushBlocks()
	if err != nil {
		return err
	}
	if fs.Points > 0 {
		out["tsdb.pilot_bytes_per_point"] = Metric{Value: float64(fs.Bytes) / float64(fs.Points), Unit: "bytes", N: fs.Points}
	}
	p := &pilot{sys, eng}
	r := rungs{}
	for _, step := range []func(*env, *pilot, *tracer, rungs, map[string]Metric) error{ladderCached, ladderPanels, ladderCold} {
		if err := step(e, p, tr, r, out); err != nil {
			return err
		}
	}
	r.medians(out)
	return nil
}

// ladderCached times the five panel queries, round-robin, each already
// in the cache: identity -> gzip -> gzip over loopback HTTP.
func ladderCached(e *env, p *pilot, tr *tracer, r rungs, _ map[string]Metric) error {
	gw, h := p.gateway()
	defer gw.Close()
	loop := &stack{}
	if err := loop.serve(h); err != nil {
		return err
	}
	defer loop.close()
	reqs := make([]getPair, len(panelShapes))
	for i, ps := range panelShapes {
		var err error
		path := queryPath(t0.Add(-ps.window).UnixMilli(), t0.UnixMilli(), ps.m)
		if reqs[i], err = newGetPair(e, path, "gzip"); err != nil {
			return err
		}
		okOrNote(h, reqs[i].identity, &err) // fills the cache
		if err != nil {
			return fmt.Errorf("cached ladder warm-up: %w", err)
		}
	}
	for op := 0; op < ladderCachedOps; op++ {
		req := reqs[op%len(reqs)]
		root := tr.root("query_cached", op)
		var stepErr error
		r.add("api.cached_identity_us", tr.timed("api.cached_identity", root, func() { okOrNote(h, req.identity, &stepErr) }))
		r.add("api.cached_gzip_us", tr.timed("api.cached_gzip", root, func() { okOrNote(h, req.gzip, &stepErr) }))
		r.add("api.cached_loopback_gzip_us", tr.timed("api.cached_loopback_gzip", root, func() { okOrNoteWire(loop.c, req.wire, &stepErr) }))
		if stepErr != nil {
			return fmt.Errorf("cached ladder op %d: %w", op, stepErr)
		}
	}
	return nil
}

// ladderPanels times what /panel/<name>.svg costs inside the dashboard
// handler, over the same five panels ctt-server registers.
func ladderPanels(e *env, p *pilot, tr *tracer, r rungs, _ map[string]Metric) error {
	dash := dashboard.New(p.sys.DB, p.sys.Dataport)
	dash.SetNow(p.sys.Now)
	for _, ps := range panelShapes {
		panel := dashboard.Panel{Name: ps.name, Title: ps.name, Metric: ps.metric, Agg: tsdb.AggAvg,
			Downsample: ps.downsample, Window: ps.window, TopK: ps.topK}
		if ps.grouped {
			panel.Tags = map[string]string{"sensor": "*"}
		}
		if err := dash.AddPanel(panel); err != nil {
			return err
		}
	}
	h := dash.Handler()
	for op := 0; op < ladderPanelOps; op++ {
		req, err := http.NewRequest(http.MethodGet, "/panel/"+panelShapes[op%len(panelShapes)].name+".svg", nil)
		if err != nil {
			return err
		}
		root := tr.root("panel", op)
		var stepErr error
		r.add("dashboard.panel_us", tr.timed("dashboard.panel", root, func() { okOrNote(h, req, &stepErr) }))
		if stepErr != nil {
			return fmt.Errorf("panel ladder op %d: %w", op, stepErr)
		}
	}
	return nil
}

// ladderCold times the explore mix, every key new to the gateway that
// serves it (one gateway per rung, so no rung warms another's cache):
// planner-served store read -> handler identity -> identity over
// loopback HTTP, with handler gzip beside the ladder. Last, with the
// engine closed and so the planner off, the same queries run as bare
// store reads; closing first would change what the other rungs
// measure, hence the separate pass (and why this ladder runs last).
func ladderCold(e *env, p *pilot, tr *tracer, r rungs, out map[string]Metric) error {
	var handlers [3]http.Handler
	for i := range handlers {
		gw, h := p.gateway()
		defer gw.Close()
		handlers[i] = h
	}
	loop := &stack{}
	if err := loop.serve(handlers[2]); err != nil {
		return err
	}
	defer loop.close()
	type coldOp struct {
		q   tsdb.Query
		req getPair
		raw bool
	}
	rng := rand.New(rand.NewSource(e.seed))
	ops := make([]coldOp, ladderColdOps)
	for i := range ops {
		shape, metric, startMS, endMS := exploreQuery(rng)
		es := exploreShapes[shape]
		req, err := newGetPair(e, queryPath(startMS, endMS, fmt.Sprintf(es.format, metric)), "identity")
		if err != nil {
			return err
		}
		ops[i] = coldOp{es.tsdbQuery(metric, startMS, endMS), req, shape == 0}
	}
	roots := make([]int, len(ops))
	drain := func(tsdb.ResultSeries) error { return nil }
	for op, c := range ops {
		roots[op] = tr.root("query_cold", op)
		var stepErr error
		r.add("rollup.execute_us", tr.timed("rollup.execute", roots[op], func() { stepErr = p.sys.DB.ExecuteStream(c.q, drain) }))
		r.add("api.cold_identity_us", tr.timed("api.cold_identity", roots[op], func() { okOrNote(handlers[0], c.req.identity, &stepErr) }))
		r.add("api.cold_gzip_us", tr.timed("api.cold_gzip", roots[op], func() { okOrNote(handlers[1], c.req.gzip, &stepErr) }))
		r.add("api.cold_loopback_us", tr.timed("api.cold_loopback", roots[op], func() { okOrNoteWire(loop.c, c.req.wire, &stepErr) }))
		if stepErr != nil {
			return fmt.Errorf("cold ladder op %d: %w", op, stepErr)
		}
	}
	if err := p.eng.Close(); err != nil {
		return err
	}
	var rawUS, rawPoints float64
	for op, c := range ops {
		points := 0
		count := func(rs tsdb.ResultSeries) error { points += len(rs.Points); return nil }
		var stepErr error
		d := tr.timed("tsdb.execute", roots[op], func() { stepErr = p.sys.DB.ExecuteStream(c.q, count) })
		if stepErr != nil {
			return fmt.Errorf("planner-off op %d: %w", op, stepErr)
		}
		r.add("tsdb.execute_us", d)
		if c.raw {
			rawUS += float64(d) / 1e3
			rawPoints += float64(points)
		}
	}
	if rawPoints > 0 {
		out["tsdb.raw_scan_us_per_kpoint"] = Metric{Value: rawUS / rawPoints * 1000, Unit: "us", N: int(rawPoints)}
	}
	return nil
}

// --- flush, WAL rewrite --------------------------------------------------

// ladderFlush times the two background passes directly: a WAL rewrite
// and a flush to block files, both over half a million cold points spread
// across the backfill's 2,000 series.
func ladderFlush(e *env, base string, tr *tracer, out map[string]Metric) error {
	s, err := newStack(filepath.Join(base, "flush"), levelWAL)
	if err != nil {
		return err
	}
	defer s.close()
	rps := make([]tsdb.RefPoint, 0, batchPoints)
	refs := make([]*tsdb.Ref, backfillSeries)
	for sid := range refs {
		metric, sensor := backfillSeriesName(sid)
		if refs[sid], err = s.db.InternBytes([]byte(metric), [][]byte{sensorKey, []byte(sensor)}); err != nil {
			return err
		}
	}
	for k := 0; k < flushPoints/backfillSeries; k++ {
		for lo := 0; lo < backfillSeries; lo += batchPoints {
			rps = rps[:0]
			for sid := lo; sid < lo+batchPoints; sid++ {
				rps = append(rps, tsdb.RefPoint{Ref: refs[sid], Point: tsdb.Point{
					Timestamp: pilotStart.UnixMilli() + int64(k)*1000, Value: float64(valueMilli(sid, k)) / 1000}})
			}
			if res := s.db.AppendRefs(rps); len(res.Errors) > 0 {
				return fmt.Errorf("AppendRefs: %d point errors", len(res.Errors))
			}
		}
	}
	if err := s.db.Sync(); err != nil {
		return err
	}
	root := tr.root("background", 0)
	var stepErr error
	d := tr.timed("tsdb.compact_wal", root, func() { stepErr = s.db.CompactWAL() })
	if stepErr != nil {
		return stepErr
	}
	out["tsdb.compact_wal_ms"] = Metric{Value: float64(d) / 1e6, Unit: "ms"}
	var fs tsdb.FlushStats
	d = tr.timed("tsdb.flush_blocks", root, func() { fs, stepErr = s.db.FlushBlocks() })
	if stepErr != nil {
		return stepErr
	}
	if fs.Points == 0 {
		return fmt.Errorf("FlushBlocks flushed nothing")
	}
	out["tsdb.flush_ms_per_mpoint"] = Metric{Value: float64(d) / 1e6 / (float64(fs.Points) / 1e6), Unit: "ms", N: fs.Points}
	out["tsdb.flush_bytes_per_point"] = Metric{Value: float64(fs.Bytes) / float64(fs.Points), Unit: "bytes", N: fs.Points}
	return nil
}

// --- stream push ---------------------------------------------------------

// ladderStreamPush times the hop the freshness number rides on: from
// the store's batch observer firing to the SSE event arriving at an
// in-process subscriber of a loopback gateway.
func ladderStreamPush(e *env, base string, tr *tracer, out map[string]Metric) error {
	db, err := tsdb.Open("")
	if err != nil {
		return err
	}
	defer db.Close()
	// Registered before the gateway, so it fires before the gateway's
	// own fan-out: the clock starts when the store hands the batch out.
	var fired atomic.Int64
	epoch := time.Now()
	db.AddBatchObserver(func([]tsdb.RefPoint) { fired.Store(int64(time.Since(epoch))) })
	gw := api.New(db, nil, api.Config{Now: frozen})
	defer gw.Close()
	s := &stack{}
	if err := s.serve(gw.Handler()); err != nil {
		return err
	}
	defer s.close()
	stream, err := openStream(s.addr, "canary.")
	if err != nil {
		return err
	}
	defer stream.close()
	ref, err := db.InternBytes([]byte("canary.freshness"), [][]byte{sensorKey, []byte("canary")})
	if err != nil {
		return err
	}
	r := rungs{}
	for op := 0; op < ladderPushOps; op++ {
		root := tr.root("stream_push", op)
		var stepErr error
		tr.timed("api.stream_push", root, func() {
			rp := []tsdb.RefPoint{{Ref: ref, Point: tsdb.Point{Timestamp: t0.UnixMilli() + int64(op), Value: float64(op)}}}
			if res := db.AppendRefs(rp); len(res.Errors) > 0 {
				stepErr = fmt.Errorf("AppendRefs: %v", res.Errors)
				return
			}
			if err := stream.c.SetReadDeadline(time.Now().Add(opTimeout)); err != nil {
				stepErr = err
				return
			}
			for {
				line, err := stream.br.ReadSlice('\n')
				if err != nil {
					stepErr = err
					return
				}
				if _, ok := canarySeq(line); ok {
					r.add("api.stream_push_us", time.Since(epoch)-time.Duration(fired.Load()))
					return
				}
			}
		})
		if stepErr != nil {
			return fmt.Errorf("stream push op %d: %w", op, stepErr)
		}
	}
	r.medians(out)
	return nil
}

// --- unattributed --------------------------------------------------------

// addUnattributed closes each ladder against the real binary: the
// real run's p50 minus the tallest rung, for whichever of the three
// workloads this invocation ran.
func addUnattributed(rep *report) {
	for _, c := range []struct{ name, workload, detail, top string }{
		{"put.unattributed_us", "ingest_backfill", "put_p50_ms", "api.put_loopback_ack_us"},
		{"query_cached.unattributed_us", "query_dashboard", "query_p50_ms", "api.cached_loopback_gzip_us"},
		{"query_cold.unattributed_us", "query_explore", "query_p50_ms", "api.cold_loopback_us"},
	} {
		top, ok := rep.Ladder[c.top]
		if !ok {
			continue
		}
		for _, r := range rep.Workloads {
			if real, ok := r.Detail[c.detail]; ok && r.Workload == c.workload {
				rep.Ladder[c.name] = Metric{Value: real.Value*1000 - top.Value, Unit: "us"}
			}
		}
	}
}
