// ctt-server is the production-shaped deployment of the CTT cloud: it
// runs the simulated pilot (internal/core) as a live feed and serves,
// on one address, the OpenTSDB-style HTTP gateway (internal/api) and
// the SVG dashboard (internal/dashboard) over the same time-series
// store, with the continuous-aggregation engine (internal/rollup) and
// the telnet line-protocol listener (internal/lineproto) attached:
//
//	POST /api/put      ingest JSON data-point batches (429 on overload,
//	                   gzip accepted)
//	GET  /api/query    aggregated/downsampled reads (LRU-cached with
//	                   write invalidation; downsamples ≥ a rollup tier
//	                   are served from the tiers, not raw scans)
//	GET  /api/suggest  metric and tag discovery
//	GET  /api/stream   live server-sent-event feed
//	GET  /metrics      gateway + rollup + line-protocol instrumentation
//	                   (Prometheus text format, with latency histograms)
//	GET  /healthz      queue headroom, WAL fsync age, rollup lag (503
//	                   when the ingest queue is saturated)
//	GET  /api/inflight live requests with elapsed time + current stage
//	GET  /api/traces   retained slow/sampled request traces (full span
//	                   trees under /api/traces/{id})
//	GET  /             dashboards, /wall, /live, /ops, /network.svg
//	tcp  -telnet addr  OpenTSDB telnet ingest: put <metric> <ts> <v> k=v
//
// Logs are structured (-log-level, -log-json); queries slower than
// -slow-query log their full per-stage span tree and are retained for
// /api/traces (-trace-retain sizes the ring). -pprof-addr starts
// net/http/pprof on a separate ops listener, off by default. Every
// -self-scrape interval the server writes its own /metrics gauges into
// the store under -self-prefix, so server health history is queryable
// like any other series and charted on /ops.
//
// The pilot fast-forwards -days of history (rolled up as it streams
// in), then keeps stepping one reporting interval every -tick of wall
// time; every stored point is pushed to /api/stream subscribers, so
// the /live page shows the city breathing. External producers can
// write alongside the pilot through /api/put or the telnet port.
//
// Usage:
//
//	go run ./cmd/ctt-server [-city trondheim|vejle] [-days 3] [-addr 127.0.0.1:4242] [-tick 1s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/lineproto"
	"repro/internal/repl"
	"repro/internal/rollup"
	"repro/internal/tsdb"
)

var (
	city    = flag.String("city", "trondheim", "pilot deployment: trondheim or vejle")
	days    = flag.Int("days", 3, "simulated days of history to fast-forward before serving")
	addr    = flag.String("addr", "127.0.0.1:4242", "listen address for gateway + dashboard")
	seed    = flag.Int64("seed", 1, "simulation seed")
	tick    = flag.Duration("tick", time.Second, "wall-clock time per simulated reporting interval (0 = freeze)")
	walSync = flag.Duration("wal-sync-interval", time.Second,
		"fsync the WAL this often (0 = only on shutdown); group commits buffer between syncs")
	dataDir = flag.String("data-dir", "",
		`persist the store in this directory: writes go to a WAL, cold data is
flushed to immutable block files under <dir>/blocks, and the WAL
truncates to the unflushed tail; at start the rollup engine rebuilds
its open windows from what the store holds (see docs/OPERATIONS.md)`)
	flushAge = flag.Duration("flush-age", 30*time.Minute,
		"points older than this (by simulated time) are flushed to block files")
	flushInterval = flag.Duration("flush-interval", time.Minute,
		"background flush cadence (negative = disabled)")
	compactInterval = flag.Duration("compact-interval", 10*time.Minute,
		"background block-compaction cadence (negative = disabled)")
	flushLagMax = flag.Duration("flush-lag-max", 0,
		"flip /healthz to 503 when the last successful flush is older than this wall time (0 = never)")
	queueSize = flag.Int("queue", 4096, "ingest queue capacity (points)")
	workers   = flag.Int("workers", 4, "ingest worker goroutines")
	rateLimit = flag.Float64("rate-limit", 0, "per-client ingest limit in points/sec (0 = off)")
	apiKey    = flag.String("api-key", "",
		`require this key on every data request: X-API-Key header over HTTP, "auth <key>" line over telnet ("" = open)`)

	telnetAddr = flag.String("telnet", "127.0.0.1:4243",
		`line-protocol (telnet "put") listener address ("" = disabled)`)
	rollupSpec = flag.String("rollup", "1m:168h,1h:2160h",
		`rollup tiers as resolution:retention pairs (retention 0 = keep forever); "off" disables the engine`)
	rawRetention = flag.Duration("raw-retention", 0,
		"age out raw points older than this (0 = keep forever; rollup tiers keep serving older history)")
	rollupGrace = flag.Duration("rollup-grace", time.Minute,
		"out-of-order allowance before a rollup window seals")

	logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
	logJSON   = flag.Bool("log-json", false, "emit logs as JSON instead of key=value text")
	slowQuery = flag.Duration("slow-query", time.Second,
		"log queries slower than this with their full per-stage span tree (0 = off)")
	traceSample = flag.Int("trace-sample", 0,
		"collect per-point detail timing (block decode, head scan) on every Nth query (0 = off)")
	traceRetain = flag.Int("trace-retain", 0,
		"retain the last N slow/sampled request traces for /api/traces (0 = default 256, negative = off)")
	pprofAddr = flag.String("pprof-addr", "",
		`serve net/http/pprof on this separate ops address ("" = disabled)`)

	shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second,
		"deadline for graceful HTTP shutdown on exit before remaining connections are force-closed")

	replicaOf = flag.String("replica-of", "",
		`run as a read-only replica of the primary at this -repl-listen
address: bootstrap its snapshot into -data-dir, apply its live WAL
stream, serve reads, refuse writes with 503 (requires -data-dir; see
docs/OPERATIONS.md "Running a replica")`)
	replListen = flag.String("repl-listen", "",
		`serve WAL-streaming replication to followers on this address
("" = disabled); followers authenticate with -api-key when one is set`)
	replLagMax = flag.Duration("repl-lag-max", 0,
		"on a replica, flip /healthz to 503 when replication lag exceeds this (0 = never)")

	selfScrape = flag.Duration("self-scrape", 15*time.Second,
		"write the server's own /metrics gauges into the store this often (0 = off)")
	selfPrefix = flag.String("self-prefix", "ctt.self",
		"metric namespace for self-scraped series (charted on /ops, queryable via /api/query)")
)

// newLogger builds the process logger from -log-level / -log-json.
func newLogger() (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %v", *logLevel, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if *logJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

// fatal logs the error and exits — the structured replacement for
// log.Fatal during startup, before the server is accepting traffic.
func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "err", err)
	os.Exit(1)
}

// parseTiers parses "1m:168h,1h:2160h" ("res" alone keeps forever).
func parseTiers(spec string) ([]rollup.Tier, error) {
	var tiers []rollup.Tier
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		resS, retS, hasRet := strings.Cut(part, ":")
		res, err := time.ParseDuration(resS)
		if err != nil {
			return nil, fmt.Errorf("bad tier resolution %q: %v", resS, err)
		}
		var ret time.Duration
		if hasRet {
			if ret, err = time.ParseDuration(retS); err != nil {
				return nil, fmt.Errorf("bad tier retention %q: %v", retS, err)
			}
		}
		tiers = append(tiers, rollup.Tier{Resolution: res, Retention: ret})
	}
	return tiers, nil
}

// validateFlags rejects conflicting flag combinations with one-line
// actionable errors before any state is touched. flag.Visit
// distinguishes an explicit -telnet from the default, so a plain
// "-replica-of host" run just disables the write listener instead of
// erroring on the default value.
func validateFlags() error {
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *replicaOf != "" {
		if *dataDir == "" {
			return fmt.Errorf("-replica-of requires -data-dir: the replica bootstraps the primary's snapshot there")
		}
		if explicit["telnet"] && *telnetAddr != "" {
			return fmt.Errorf(`-replica-of runs read-only: drop -telnet or pass -telnet "" (writes belong on the primary at %s)`, *replicaOf)
		}
		if *replListen != "" {
			return fmt.Errorf("-replica-of cannot be combined with -repl-listen: chained replication is not supported, point every follower at the primary")
		}
	}
	if *replListen != "" && *dataDir == "" {
		return fmt.Errorf("-repl-listen requires persistence: set -data-dir so there is a WAL to stream")
	}
	return nil
}

// rejectRemovedFlags names the replacement of a flag that no longer
// exists, in one line, instead of the flag package's generic
// "not defined" error and usage dump. It runs before flag.Parse.
func rejectRemovedFlags(args []string) error {
	for _, a := range args {
		if a == "--" {
			break
		}
		if name, _, _ := strings.Cut(a, "="); name == "-wal" || name == "--wal" {
			return fmt.Errorf("-wal was removed: use -data-dir DIR (WAL plus block files)")
		}
	}
	return nil
}

func main() {
	if err := rejectRemovedFlags(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	flag.Parse()
	logger, err := newLogger()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	if err := validateFlags(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *replicaOf != "" {
		runReplica(logger)
		return
	}
	var cfg core.Config
	switch *city {
	case "trondheim":
		cfg = core.TrondheimConfig(*seed)
	case "vejle":
		cfg = core.VejleConfig(*seed)
	default:
		fatal(logger, "unknown city", fmt.Errorf("%q", *city))
	}
	cfg.Start = time.Date(2017, time.March, 1, 0, 0, 0, 0, time.UTC)
	if *dataDir != "" {
		// Core defaults Storage.Now to the simulated clock, so
		// -flush-age is measured in pilot time.
		cfg.Storage = &tsdb.Options{
			Dir:             *dataDir,
			FlushAge:        *flushAge,
			FlushInterval:   *flushInterval,
			CompactInterval: *compactInterval,
		}
	}

	sys, err := core.New(cfg)
	if err != nil {
		fatal(logger, "pilot init", err)
	}
	defer sys.Close()

	// Rollup engine first, so the fast-forwarded history is rolled up
	// as it streams into the store.
	var eng *rollup.Engine
	if *rollupSpec != "off" {
		tiers, err := parseTiers(*rollupSpec)
		if err != nil {
			fatal(logger, "rollup tiers", err)
		}
		rcfg := rollup.Config{
			Tiers:        tiers,
			RawRetention: *rawRetention,
			Grace:        *rollupGrace,
			Now:          sys.Now, // retention/sealing follow simulated time
		}
		eng, err = rollup.New(sys.DB, rcfg)
		if err != nil {
			fatal(logger, "rollup init", err)
		}
		defer eng.Close()
	}

	logger.Info("fast-forwarding pilot history",
		"days", *days, "city", *city, "sensors", len(sys.Nodes))
	t0 := time.Now()
	if _, err := sys.Run(time.Duration(*days) * 24 * time.Hour); err != nil {
		fatal(logger, "pilot fast-forward", err)
	}
	logger.Info("fast-forward done",
		"took", time.Since(t0).Round(time.Millisecond).String(),
		"uplinks", sys.IngestCount(), "points", sys.DB.PointCount(), "series", sys.DB.SeriesCount())
	if eng != nil {
		// The engine's first clock tick, now instead of FlushEvery from
		// process start: what is late to the tiers does not depend on
		// how long the fast-forward took.
		eng.Flush(sys.Now())
	}
	// Serve a store in its steady state: the history the fast-forward
	// left in the head goes to block files now rather than at the
	// first flush tick after serving begins, and the heap the replay
	// grew is handed back before the first request.
	t0 = time.Now()
	if fs, err := sys.DB.FlushBlocks(); err != nil {
		logger.Warn("start-up flush failed; the background flusher retries", "err", err)
	} else {
		logger.Info("start-up flush done", "took", time.Since(t0).Round(time.Millisecond).String(),
			"points", fs.Points, "files", fs.Files)
	}
	debug.FreeOSMemory()

	// Gateway over the pilot's store and monitoring state.
	gw := api.New(sys.DB, sys.Dataport, api.Config{
		QueueSize:   *queueSize,
		Workers:     *workers,
		RateLimit:   *rateLimit,
		APIKey:      *apiKey,
		Now:         sys.Now,
		SlowQuery:   *slowQuery,
		TraceSample: *traceSample,
		TraceRetain: *traceRetain,
		Logger:      logger,
	})
	defer gw.Close()

	// Flush-lag health: if the background flusher stalls (disk full,
	// persistent write errors), /healthz flips to 503 so orchestrators
	// notice before the WAL grows unbounded. Wall-clock based — the
	// flusher runs on wall cadence even though cutoffs use pilot time.
	if *dataDir != "" && *flushLagMax > 0 {
		gw.AddHealthSource(func(m map[string]any) {
			st := sys.DB.DiskStats()
			if st.LastFlush.IsZero() {
				return // nothing flushed yet this process; not a stall
			}
			if lag := time.Since(st.LastFlush); lag > *flushLagMax {
				m["status"] = "saturated"
				m["reason"] = fmt.Sprintf("last flush %s ago exceeds -flush-lag-max %s",
					lag.Round(time.Second), *flushLagMax)
			}
		})
	}

	// Self-scrape: the server's own health gauges become ordinary
	// series under -self-prefix, so /api/query and the rollup tiers
	// serve server history exactly like sensor history.
	if *selfScrape > 0 {
		scraper := api.NewSelfScraper(gw, api.SelfScrapeConfig{
			Prefix:   *selfPrefix,
			Interval: *selfScrape,
		})
		scraper.Start()
		defer scraper.Close()
	}
	if eng != nil {
		// Rollup counters and fold latency land next to the gateway's
		// metrics, and the engine's worst watermark lag shows up on
		// /healthz.
		eng.RegisterMetrics(gw.Registry())
		gw.AddHealthSource(func(m map[string]any) {
			var lag int64
			for _, t := range eng.Stats().Tiers {
				if t.LagMS > lag {
					lag = t.LagMS
				}
			}
			m["rollup_watermark_lag_ms"] = lag
		})
	}

	// Telnet-style line-protocol ingest feeding the gateway's bounded
	// queue — same backpressure as HTTP.
	var lp *lineproto.Server
	if *telnetAddr != "" {
		lp = lineproto.New(gw, lineproto.Config{APIKey: *apiKey})
		lpAddr, err := lp.Start(*telnetAddr)
		if err != nil {
			fatal(logger, "line-protocol listener", err)
		}
		defer lp.Close()
		lp.RegisterMetrics(gw.Registry())
		logger.Info("line protocol listening", "addr", lpAddr.String(),
			"try", fmt.Sprintf("echo \"put ctt.co2 $(date +%%s) 415 sensor=cli\" | nc %s",
				strings.ReplaceAll(lpAddr.String(), ":", " ")))
	}

	// WAL-streaming replication: followers bootstrap a snapshot and
	// tail the log over this listener (docs/OPERATIONS.md "Running a
	// replica"). Auth shares -api-key with the data plane.
	var replSrv *repl.Server
	if *replListen != "" {
		replSrv = repl.NewServer(repl.ServerConfig{
			DB:        sys.DB,
			Logger:    logger,
			Authorize: gw.CheckAPIKey,
		})
		if err := replSrv.Start(*replListen); err != nil {
			fatal(logger, "replication listener", err)
		}
		defer replSrv.Close()
		reg := gw.Registry()
		reg.Gauge("ctt_repl_connected", func() float64 { return float64(replSrv.Stats().Connected) })
		reg.Gauge("ctt_repl_epoch", func() float64 { return float64(sys.DB.ReplEpoch()) })
		reg.Gauge("ctt_repl_bytes_total", func() float64 { return float64(replSrv.Stats().BytesOut) })
		reg.Gauge("ctt_repl_snapshots_total", func() float64 { return float64(replSrv.Stats().Snapshots) })
		gw.AddHealthSource(func(m map[string]any) {
			m["repl_followers"] = replSrv.Stats().Connected
			m["repl_epoch"] = sys.DB.ReplEpoch()
		})
		logger.Info("replication listening", "addr", replSrv.Addr().String())
	}

	// Opt-in pprof on its own listener, so profiling never shares a
	// port (or an auth story) with the data-plane endpoints.
	if *pprofAddr != "" {
		ops := http.NewServeMux()
		ops.HandleFunc("/debug/pprof/", pprof.Index)
		ops.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		ops.HandleFunc("/debug/pprof/profile", pprof.Profile)
		ops.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		ops.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// A real http.Server (not http.ListenAndServe) so the ops
		// listener gets timeouts and is closed on exit like the
		// data-plane one. No WriteTimeout: profile captures stream for
		// -seconds long.
		opsSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           ops,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			if err := opsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof listener", "err", err)
			}
		}()
		defer opsSrv.Close()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	// Dashboard over the same store.
	dash := dashboard.New(sys.DB, sys.Dataport)
	dash.SetNow(sys.Now)
	dash.SetSelfPrefix(*selfPrefix)
	dash.SendCommand = sys.SendCommand
	dash.Render = gw.Render
	window := time.Duration(*days) * 24 * time.Hour
	for _, p := range []dashboard.Panel{
		{Name: "co2", Title: "Air quality — CO2 by sensor", Metric: core.MetricCO2,
			Tags: map[string]string{"sensor": "*"}, Agg: tsdb.AggAvg,
			Downsample: time.Hour, Window: window, YLabel: "ppm"},
		{Name: "co2top", Title: "Air quality — top 5 CO2 hotspots", Metric: core.MetricCO2,
			Tags: map[string]string{"sensor": "*"}, Agg: tsdb.AggAvg,
			Downsample: time.Hour, Window: window, YLabel: "ppm", TopK: 5},
		{Name: "no2", Title: "Air quality — NO2 network mean", Metric: core.MetricNO2,
			Agg: tsdb.AggAvg, Downsample: time.Hour, Window: window, YLabel: "µg/m³"},
		{Name: "traffic", Title: "Traffic — city jam factor", Metric: "traffic.jamfactor",
			Agg: tsdb.AggAvg, Downsample: 30 * time.Minute, Window: 48 * time.Hour, YLabel: "jf"},
		{Name: "battery", Title: "Node battery", Metric: core.MetricBattery,
			Tags: map[string]string{"sensor": "*"}, Agg: tsdb.AggAvg,
			Downsample: time.Hour, Window: window, YLabel: "%"},
	} {
		if err := dash.AddPanel(p); err != nil {
			fatal(logger, "dashboard panel", err)
		}
	}

	// One origin: exact gateway paths go to the gateway, the rest —
	// index, panels, wall, live view, and the dashboard JSON APIs not
	// listed below — to the dashboard. /api/query is the gateway's
	// OpenTSDB-style endpoint, the only one there is.
	gwH := gw.Handler()
	root := http.NewServeMux()
	for _, p := range []string{"/api/put", "/api/query", "/api/suggest", "/api/stream", "/api/inflight", "/api/traces", "/api/traces/", "/metrics", "/healthz"} {
		root.Handle(p, gwH)
	}
	root.Handle("/", dash.Handler())

	// Live feed: keep the pilot stepping so /api/stream subscribers
	// and dashboard panels see fresh data.
	loops := newLoops()
	if *dataDir != "" {
		loops.syncWAL(sys.DB, logger)
	}
	loops.every(*tick, func() {
		if err := sys.Step(); err != nil {
			logger.Error("pilot step", "err", err)
		}
	})

	fmt.Printf("\ngateway     http://%s/api/put · /api/query · /api/suggest · /api/stream · /metrics · /healthz\n", *addr)
	fmt.Printf("dashboards  http://%s/  ·  wall http://%s/wall  ·  live http://%s/live\n", *addr, *addr, *addr)
	fmt.Printf("stepping %v of simulated time every %v — Ctrl-C to stop\n", sys.Interval, *tick)

	// The stepper is joined before the deferred closes tear down the
	// WAL and dataport an in-flight Step may still be writing to. SSE
	// streams and telnet sessions never finish on their own, so the
	// gateway (whose Close tears down the stream hub) and the
	// line-protocol listener close beside the HTTP drain; followers get
	// a shutdown frame and reconnect to whoever serves next. The
	// deferred closes above then find everything already shut and
	// no-op.
	serve(logger, root, loops, func() {
		if replSrv != nil {
			replSrv.Close()
		}
		gw.Close()
		if lp != nil {
			lp.Close()
		}
	})
}

// loops runs the server's periodic background work — the WAL sync,
// the pilot's stepper — until serve stops and joins it.
type loops struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func newLoops() *loops { return &loops{stop: make(chan struct{})} }

// every runs fn each d until the loops stop; d <= 0 runs nothing.
func (l *loops) every(d time.Duration, fn func()) {
	if d <= 0 {
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		ticker := time.NewTicker(d)
		defer ticker.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-ticker.C:
				fn()
			}
		}
	}()
}

// syncWAL fsyncs db's WAL every -wal-sync-interval (0 = only on
// shutdown): group commits land in the OS buffer per batch, and the
// periodic sync bounds what a power loss can lose.
func (l *loops) syncWAL(db *tsdb.DB, logger *slog.Logger) {
	l.every(*walSync, func() {
		if err := db.Sync(); err != nil {
			logger.Error("wal sync", "err", err)
		}
	})
}

// serve runs handler on -addr until an interrupt or a serve failure,
// stops and joins the loops, then shuts the server down gracefully:
// in-flight requests may finish within -shutdown-timeout while closers
// run concurrently, and whatever remains past the deadline is
// force-closed. Serve failures come back here rather than being
// log.Fatal'd in the goroutine: os.Exit would skip the caller's
// deferred closes and drop the buffered WAL tail.
func serve(logger *slog.Logger, handler http.Handler, loops *loops, closers func()) {
	// No WriteTimeout: /api/stream holds SSE responses open for the
	// life of the subscriber. Slow-loris headers and abandoned
	// keep-alives are still bounded.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			serveErr <- err
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case <-sig:
	case err := <-serveErr:
		logger.Error("serve", "err", err)
	}
	close(loops.stop)
	loops.wg.Wait()

	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	closersDone := make(chan struct{})
	go func() {
		defer close(closersDone)
		closers()
	}()
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Warn("graceful shutdown incomplete; force-closing", "err", err)
		srv.Close()
	}
	<-closersDone
}
