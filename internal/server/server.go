// Package server is the one assembly of the CTT service ctt-server
// runs. A primary runs the simulated pilot (internal/core) as a live
// feed and serves, on one address, the HTTP gateway (internal/api) and
// the SVG dashboard (internal/dashboard) over one store, with the
// rollup engine, the telnet and the replication listeners attached:
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
//	                   when the ingest queue is saturated, and
//	                   {"status":"starting"} until the service serves)
//	GET  /api/inflight live requests with elapsed time + current stage
//	GET  /api/traces   retained slow/sampled request traces (full span
//	                   trees under /api/traces/{id})
//	GET  /             dashboards, /wall, /live, /ops, /network.svg
//	tcp  Telnet        OpenTSDB telnet ingest: put <metric> <ts> <v> k=v
//	tcp  ReplListen    WAL streaming to followers
//	http PprofAddr     net/http/pprof on a separate ops listener
//
// The pilot fast-forwards Days of history, then steps one reporting
// interval every Tick; every SelfScrape the server stores its own
// gauges under SelfPrefix. A replica (ReplicaOf) bootstraps the
// primary's snapshot into DataDir, applies its WAL stream and serves
// the gateway alone — no pilot, telnet, self-scrape or rollup engine,
// so every point comes from the stream — refusing writes with 503
// until POST /api/promote. Listen binds every listener before Run
// touches any state, so a busy port leaves DataDir untouched.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/dataport"
	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/rollup"
	"repro/internal/tsdb"
)

// Server is one primary or replica. Call Listen, then Run, then Close
// once, also when Listen or Run failed.
type Server struct {
	cfg              Config
	log              *slog.Logger
	telnetLn, replLn net.Listener
	http             *http.Server
	serveErr         chan error
	handler          atomic.Pointer[http.Handler] // nil until Run serves
	stop             chan struct{}                // ends the periodic loops
	loops            sync.WaitGroup
	drain            []func()       // closed last-first beside the HTTP drain
	close            []func() error // closed last-first after it
}

// New returns a server for cfg, which Validate has accepted.
func New(cfg Config, logger *slog.Logger) *Server {
	if cfg.ReplicaOf != "" {
		logger = logger.With("role", "replica")
	}
	return &Server{cfg: cfg, log: logger, serveErr: make(chan error, 1), stop: make(chan struct{})}
}

// Config returns the configuration, with each listener's address as
// bound once Listen has run (so a ":0" port reads as the real one).
func (s *Server) Config() Config { return s.cfg }

// Listen binds every configured listener and starts answering HTTP
// with 503 {"status":"starting"} and pprof; it touches no other state.
// On an error nothing stays bound.
func (s *Server) Listen() error {
	addrs := []*string{&s.cfg.Addr, &s.cfg.Telnet, &s.cfg.ReplListen, &s.cfg.PprofAddr}
	lns := make([]net.Listener, len(addrs))
	for i, addr := range addrs {
		if *addr == "" && i > 0 {
			continue
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			for _, l := range lns[:i] {
				if l != nil {
					l.Close()
				}
			}
			return fmt.Errorf("-%s: %w", []string{"addr", "telnet", "repl-listen", "pprof-addr"}[i], err)
		}
		lns[i], *addr = ln, ln.Addr().String()
	}
	s.telnetLn, s.replLn = lns[1], lns[2]
	// No WriteTimeout: /api/stream holds SSE responses open for the
	// life of the subscriber; headers and idle keep-alives are bounded.
	s.http = &http.Server{Handler: http.HandlerFunc(s.route), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() {
		if err := s.http.Serve(lns[0]); err != http.ErrServerClosed {
			s.serveErr <- err
		}
	}()
	if lns[3] != nil {
		// Profiling has its own port (and no auth story) and can watch
		// the fast-forward; net/http/pprof registers on the default
		// mux, which nothing else uses. Captures stream, as SSE does.
		opsSrv := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
		go func() {
			if err := opsSrv.Serve(lns[3]); err != http.ErrServerClosed {
				s.log.Error("pprof listener", "err", err)
			}
		}()
		s.close = append(s.close, opsSrv.Close)
		s.log.Info("pprof listening", "addr", s.cfg.PprofAddr)
	}
	return nil
}

// route serves the assembled handler once Run has stored it.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	if h := s.handler.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, `{"status":"starting"}`+"\n")
}

// Run builds the role's state and serves it until ctx is done or the
// HTTP server fails. A primary fast-forwards the pilot first; a
// replica bootstraps from the primary.
func (s *Server) Run(ctx context.Context) error {
	start := s.primary
	if s.cfg.ReplicaOf != "" {
		start = s.replica
	}
	h, db, err := start()
	if err != nil {
		return err
	}
	if s.cfg.DataDir != "" {
		// The periodic fsync bounds what a power loss can lose.
		s.every(s.cfg.WALSyncInterval, func() {
			if err := db.Sync(); err != nil {
				s.log.Error("wal sync", "err", err)
			}
		})
	}
	s.handler.Store(&h)
	select {
	case <-ctx.Done():
		return nil
	case err := <-s.serveErr:
		return fmt.Errorf("serve: %w", err)
	}
}

// primary starts the pilot, the rollup engine and every listener.
func (s *Server) primary() (http.Handler, *tsdb.DB, error) {
	cfg := s.cfg
	pc := cities[cfg.City](cfg.Seed)
	pc.Start = time.Date(2017, time.March, 1, 0, 0, 0, 0, time.UTC)
	if cfg.DataDir != "" {
		// Core defaults Storage.Now to the pilot clock for -flush-age.
		opts := s.storeOptions(nil)
		pc.Storage = &opts
	}
	sys, err := core.New(pc)
	if err != nil {
		return nil, nil, fmt.Errorf("pilot init: %w", err)
	}
	s.close = append(s.close, sys.Close)

	// Rollup engine first, so the fast-forwarded history is rolled up
	// as it streams into the store.
	var eng *rollup.Engine
	if cfg.Rollup != "off" {
		tiers, _ := rollup.ParseTiers(cfg.Rollup) // Validate accepted it; tiers seal on pilot time
		eng, err = rollup.New(sys.DB, rollup.Config{Tiers: tiers, RawRetention: cfg.RawRetention, Grace: cfg.RollupGrace, Now: sys.Now})
		if err != nil {
			return nil, nil, fmt.Errorf("rollup init: %w", err)
		}
		s.close = append(s.close, eng.Close)
	}

	s.log.Info("fast-forwarding pilot history", "days", cfg.Days, "city", cfg.City, "sensors", len(sys.Nodes))
	t0 := time.Now()
	if _, err := sys.Run(time.Duration(cfg.Days) * 24 * time.Hour); err != nil {
		return nil, nil, fmt.Errorf("pilot fast-forward: %w", err)
	}
	s.log.Info("fast-forward done",
		"took", time.Since(t0).Round(time.Millisecond).String(),
		"uplinks", sys.IngestCount(), "points", sys.DB.PointCount(), "series", sys.DB.SeriesCount())
	if eng != nil {
		// The engine's first clock tick, now instead of FlushEvery from
		// process start: what is late to the tiers does not depend on
		// how long the fast-forward took.
		eng.Flush(sys.Now())
	}
	// Serve a store in its steady state: history goes to block files
	// now, not at the first flush tick, and the heap the replay grew is
	// handed back. The gateway comes after: its hub observes writes.
	t0 = time.Now()
	if fs, err := sys.DB.FlushBlocks(); err != nil {
		s.log.Warn("start-up flush failed; the background flusher retries", "err", err)
	} else {
		s.log.Info("start-up flush done", "took", time.Since(t0).Round(time.Millisecond).String(),
			"points", fs.Points, "files", fs.Files)
	}
	debug.FreeOSMemory()

	gw := s.gateway(sys.DB, sys.Dataport, sys.Now)
	reg := gw.Registry()
	// The server's own gauges become ordinary series, queried and
	// rolled up like sensor history.
	if cfg.SelfScrape > 0 {
		scraper := api.NewSelfScraper(gw, api.SelfScrapeConfig{Prefix: cfg.SelfPrefix, Interval: cfg.SelfScrape})
		scraper.Start()
		s.close = append(s.close, func() error { scraper.Close(); return nil })
	}
	if eng != nil {
		// Rollup counters and fold latency land next to the gateway's
		// metrics, and the engine's worst watermark lag on /healthz.
		eng.RegisterMetrics(reg)
		gw.AddHealthSource(func(m map[string]any) {
			var lag int64
			for _, t := range eng.Stats().Tiers {
				lag = max(lag, t.LagMS)
			}
			m["rollup_watermark_lag_ms"] = lag
		})
	}

	// Telnet ingest feeds the gateway's queue: HTTP's backpressure.
	if s.telnetLn != nil {
		lp := lineproto.New(gw, lineproto.Config{APIKey: cfg.APIKey})
		if err := lp.Serve(s.telnetLn); err != nil {
			return nil, nil, err
		}
		s.drain = append(s.drain, func() { lp.Close() })
		lp.RegisterMetrics(reg)
		s.log.Info("line protocol listening", "addr", cfg.Telnet,
			"try", fmt.Sprintf("echo \"put ctt.co2 $(date +%%s) 415 sensor=cli\" | nc %s",
				strings.ReplaceAll(cfg.Telnet, ":", " ")))
	}

	// Followers bootstrap a snapshot and tail the WAL here, keyed by
	// -api-key; on close they get a shutdown frame and reconnect to
	// whoever serves next (docs/OPERATIONS.md "Running a replica").
	if s.replLn != nil {
		replSrv := repl.NewServer(repl.ServerConfig{DB: sys.DB, Logger: s.log, Authorize: gw.CheckAPIKey})
		if err := replSrv.Serve(s.replLn); err != nil {
			return nil, nil, err
		}
		s.drain = append(s.drain, replSrv.Close)
		replGauges(reg, func() [3]float64 {
			st := replSrv.Stats()
			return [3]float64{float64(st.Connected), float64(sys.DB.ReplEpoch()), float64(st.BytesOut)}
		})
		reg.Gauge("ctt_repl_snapshots_total", func() float64 { return float64(replSrv.Stats().Snapshots) })
		gw.AddHealthSource(func(m map[string]any) {
			m["repl_followers"] = replSrv.Stats().Connected
			m["repl_epoch"] = sys.DB.ReplEpoch()
		})
		s.log.Info("replication listening", "addr", cfg.ReplListen)
	}

	dash := dashboard.New(sys.DB, sys.Dataport)
	dash.SetNow(sys.Now)
	dash.SetSelfPrefix(cfg.SelfPrefix)
	dash.SendCommand = sys.SendCommand
	dash.Render = gw.Render
	for _, p := range dashboard.PilotPanels(time.Duration(cfg.Days) * 24 * time.Hour) {
		if err := dash.AddPanel(p); err != nil {
			return nil, nil, fmt.Errorf("dashboard panel: %w", err)
		}
	}
	// One origin: the gateway's paths go to it, the rest (index,
	// panels, wall, live view, dashboard JSON) to the dashboard.
	gwH := gw.Handler()
	root := http.NewServeMux()
	for _, p := range []string{"/api/put", "/api/query", "/api/suggest", "/api/stream", "/api/inflight", "/api/traces", "/api/traces/", "/metrics", "/healthz"} {
		root.Handle(p, gwH)
	}
	root.Handle("/", dash.Handler())

	// Keep the pilot stepping so streams and panels see fresh data.
	s.every(cfg.Tick, func() {
		if err := sys.Step(); err != nil {
			s.log.Error("pilot step", "err", err)
		}
	})
	fmt.Printf("\ngateway     http://%s/api/put · /api/query · /api/suggest · /api/stream · /metrics · /healthz\n", cfg.Addr)
	fmt.Printf("dashboards  http://%s/  ·  wall http://%s/wall  ·  live http://%s/live\n", cfg.Addr, cfg.Addr, cfg.Addr)
	fmt.Printf("stepping %v of simulated time every %v — Ctrl-C to stop\n", sys.Interval, cfg.Tick)
	return root, sys.DB, nil
}

// replica bootstraps from the primary, opens the store and follows
// the primary's WAL stream.
func (s *Server) replica() (http.Handler, *tsdb.DB, error) {
	cfg := s.cfg
	s.log.Info("bootstrapping replica", "primary", cfg.ReplicaOf, "dir", cfg.DataDir)
	boot, err := repl.Bootstrap(repl.BootstrapConfig{Dir: cfg.DataDir, Primary: cfg.ReplicaOf, Key: cfg.APIKey, Logger: s.log})
	if err != nil {
		return nil, nil, fmt.Errorf("replica bootstrap: %w", err)
	}
	// Flush and compaction run on wall time: there is no pilot clock,
	// and streamed history must age out by real-world policy.
	db, err := tsdb.OpenOptions(s.storeOptions(time.Now))
	if err != nil {
		return nil, nil, fmt.Errorf("replica store open: %w", err)
	}
	s.close = append(s.close, db.Close)
	if boot.Snapshot {
		// The shipped files already hold everything the position covers;
		// commit it durably so a restart resumes instead of re-seeding.
		if err := db.CommitReplPos(boot.Pos); err != nil {
			return nil, nil, fmt.Errorf("replica position commit: %w", err)
		}
	}

	gw := s.gateway(db, nil, nil)
	fol := repl.NewFollower(repl.FollowerConfig{DB: db, Primary: cfg.ReplicaOf, Key: cfg.APIKey, Logger: s.log})
	gw.SetReplica(cfg.ReplicaOf, func() (uint64, error) {
		epoch, err := fol.Promote()
		if err == nil {
			s.log.Info("promoted: restart without -replica-of to re-enable rollups and the full write surface", "epoch", epoch)
		}
		return epoch, err
	})
	fol.Start(boot)
	s.drain = append(s.drain, fol.Close)

	reg := gw.Registry()
	reg.Gauge("ctt_repl_lag_seconds", func() float64 { return fol.Stats().LagSeconds })
	replGauges(reg, func() [3]float64 {
		st := fol.Stats()
		connected := 0.0
		if st.Connected {
			connected = 1
		}
		return [3]float64{connected, float64(st.Epoch), float64(st.BytesIn)}
	})
	gw.AddHealthSource(func(m map[string]any) {
		if ro, _ := gw.ReadOnly(); !ro {
			return // promoted: replication detail no longer applies
		}
		st := fol.Stats()
		m["repl_connected"] = st.Connected
		m["repl_lag_seconds"] = st.LagSeconds
		m["repl_epoch"] = st.Epoch
		if st.ResyncRequired {
			m["status"] = "resync_required"
			m["reason"] = "primary demands snapshot re-sync; restart this replica to re-bootstrap"
			return
		}
		if cfg.ReplLagMax > 0 && st.LagSeconds >= 0 && st.LagSeconds > cfg.ReplLagMax.Seconds() {
			m["status"] = "repl_lagging"
			m["reason"] = fmt.Sprintf("replication lag %.1fs exceeds -repl-lag-max %s", st.LagSeconds, cfg.ReplLagMax)
		}
	})
	fmt.Printf("\nreplica of %s — http://%s/api/query · /api/stream · /metrics · /healthz · POST /api/promote\n", cfg.ReplicaOf, cfg.Addr)
	return gw.Handler(), db, nil
}

// storeOptions is the store configuration of either role; now nil
// lets core default it to the pilot clock.
func (s *Server) storeOptions(now func() time.Time) tsdb.Options {
	c := s.cfg
	return tsdb.Options{Dir: c.DataDir, FlushAge: c.FlushAge, FlushInterval: c.FlushInterval, CompactInterval: c.CompactInterval, Now: now}
}

// gateway builds the gateway of either role over db; dp and now may
// be nil. With -flush-lag-max, /healthz flips to 503 when the flusher
// stalls (disk full?) for that long in wall time, the flusher's own
// cadence, so orchestrators notice before the WAL grows unbounded.
func (s *Server) gateway(db *tsdb.DB, dp *dataport.Dataport, now func() time.Time) *api.Gateway {
	cfg := s.cfg
	gw := api.New(db, dp, api.Config{QueueSize: cfg.Queue, Workers: cfg.Workers, RateLimit: cfg.RateLimit, APIKey: cfg.APIKey,
		Now: now, SlowQuery: cfg.SlowQuery, TraceSample: cfg.TraceSample, TraceRetain: cfg.TraceRetain, Logger: s.log})
	// Close tears down the stream hub, whose SSE responses would
	// otherwise hold the HTTP drain open.
	s.drain = append(s.drain, func() { gw.Close() })
	if cfg.DataDir != "" && cfg.FlushLagMax > 0 {
		gw.AddHealthSource(func(m map[string]any) {
			st := db.DiskStats()
			if st.LastFlush.IsZero() {
				return // nothing flushed yet this process; not a stall
			}
			if lag := time.Since(st.LastFlush); lag > cfg.FlushLagMax {
				m["status"] = "saturated"
				m["reason"] = fmt.Sprintf("last flush %s ago exceeds -flush-lag-max %s",
					lag.Round(time.Second), cfg.FlushLagMax)
			}
		})
	}
	return gw
}

// replGauges registers the ctt_repl_* gauges both roles export; st
// reports connected, epoch and bytes (streamed out on a primary, in
// on a replica).
func replGauges(reg *obs.Registry, st func() [3]float64) {
	for i, name := range []string{"ctt_repl_connected", "ctt_repl_epoch", "ctt_repl_bytes_total"} {
		reg.Gauge(name, func() float64 { return st()[i] })
	}
}

// every runs fn each d until Close; d <= 0 runs nothing.
func (s *Server) every(d time.Duration, fn func()) {
	if d <= 0 {
		return
	}
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		for t := time.NewTicker(d); ; {
			select {
			case <-s.stop:
				t.Stop()
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// Close joins the periodic loops, so no pilot step writes into a
// closing store, then drains HTTP for up to ShutdownTimeout and
// force-closes the rest. SSE streams, telnet sessions and replication
// links never end on their own, so their owners close beside the
// drain; the rest closes last-first after it, and reports its errors.
func (s *Server) Close() error {
	close(s.stop)
	s.loops.Wait()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for i := len(s.drain) - 1; i >= 0; i-- {
			s.drain[i]()
		}
	}()
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
		defer cancel()
		if err := s.http.Shutdown(ctx); err != nil {
			s.log.Warn("graceful shutdown incomplete; force-closing", "err", err)
			s.http.Close()
		}
	}
	<-drained
	var errs []error
	for i := len(s.close) - 1; i >= 0; i-- {
		errs = append(errs, s.close[i]())
	}
	if s.telnetLn != nil {
		s.telnetLn.Close() // in case Run never handed it over
	}
	if s.replLn != nil {
		s.replLn.Close()
	}
	return errors.Join(errs...)
}
