// Package api is the network-facing gateway of the CTT cloud: an
// OpenTSDB-compatible HTTP service over the embedded time-series
// store. The paper's Data Port feeds urban emission measurements into
// an OpenTSDB instance that dashboards and analysts query over HTTP;
// this package reproduces that surface:
//
//	POST /api/put      — JSON batches of data points, through a bounded
//	                     ingest queue with worker-pool batching,
//	                     backpressure (429 + Retry-After) and per-client
//	                     token-bucket rate limiting
//	GET  /api/query    — aggregated, downsampled, rate-converted reads
//	POST /api/query      with an LRU result cache keyed on the query and
//	                     an aligned time bucket
//	GET  /api/suggest  — metric/tag-key/tag-value discovery
//	GET  /api/stream   — server-sent events pushing matching points to
//	                     live dashboard subscribers
//	GET  /metrics      — Prometheus text exposition: the pre-existing
//	                     counters and gauges plus latency histograms for
//	                     every pipeline stage (request, ingest batch,
//	                     queue wait, WAL append/fsync, insert, fan-out)
//	GET  /healthz      — liveness with saturation detail: queue headroom,
//	                     WAL size and fsync age, subsystem lag; 503 with
//	                     a reason when the ingest queue is near capacity
//	GET  /api/inflight — live requests with elapsed time, current stage
//	                     and trace ID
//	GET  /api/traces   — the trace flight recorder: recently retained
//	                     request traces (slow or sampled), and
//	                     /api/traces/{id} for one full span tree
//
// Every query carries an obs.Trace through the store's streaming
// executor; queries slower than Config.SlowQuery log their full span
// tree as one structured line and are captured — along with every
// TraceSample'd query — into a bounded flight recorder, so the span
// tree stays fetchable after the request completes. The request
// histograms attach those trace IDs as OpenMetrics exemplars
// (GET /metrics?format=openmetrics).
package api

import (
	"crypto/subtle"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataport"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// Config tunes the gateway. Zero values select the defaults.
type Config struct {
	// QueueSize bounds the ingest queue (points). Default 4096.
	QueueSize int
	// Workers is the number of batching writer goroutines. Default 4.
	Workers int
	// BatchSize caps points per tsdb.AppendRefs call. Default 256.
	BatchSize int
	// RateLimit is the sustained per-client ingest budget in
	// points/second; 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket depth. Default max(RateLimit, 1).
	RateBurst float64
	// CacheSize bounds the query-result cache (entries). 0 selects
	// the default of 128; negative disables caching entirely.
	CacheSize int
	// CacheAlign aligns query time ranges to this bucket for cache
	// keying — the bound on result staleness. Default 10s.
	CacheAlign time.Duration
	// StreamBuffer is the per-subscriber event buffer; events beyond it
	// are dropped (slow-consumer protection). Default 256.
	StreamBuffer int
	// Heartbeat is the SSE keep-alive comment interval. Default 15s.
	Heartbeat time.Duration
	// APIKey, when non-empty, requires every data request (/api/put,
	// /api/query, /api/suggest, /api/stream) to carry the key in an
	// X-API-Key header; mismatches are 401s, counted on /metrics.
	// Ops endpoints (/metrics, /healthz) stay open.
	APIKey string
	// Now injects a clock for relative time parsing and cache
	// alignment (simulated pilots run on simulated time). Default
	// time.Now.
	Now func() time.Time
	// SlowQuery, when >0, logs every query whose total handling time
	// exceeds it: one structured line with the full span tree,
	// per-stage durations, result sizes and the planner decision.
	SlowQuery time.Duration
	// TraceSample turns on per-point detail timing (block decode, head
	// scan, downsample fold) for every Nth query; 0 disables detail.
	// The coarse per-stage numbers are always collected. Sampled
	// queries are also captured into the trace flight recorder.
	TraceSample int
	// TraceRetain sizes the trace flight recorder ring — how many
	// completed request traces /api/traces can serve after the fact.
	// 0 selects the default (obs.DefaultRecorderSize); negative
	// disables retention entirely.
	TraceRetain int
	// Logger receives the gateway's structured output (slow queries).
	// Default slog.Default().
	Logger *slog.Logger
}

func (c *Config) setDefaults() {
	if c.QueueSize <= 0 {
		c.QueueSize = 4096
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.RateBurst <= 0 {
		c.RateBurst = c.RateLimit
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.CacheAlign <= 0 {
		c.CacheAlign = 10 * time.Second
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = 256
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 15 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// Gateway is the HTTP ingest/query service.
type Gateway struct {
	db  *tsdb.DB
	dp  *dataport.Dataport // optional; enriches /metrics
	cfg Config

	queue  chan tsdb.RefPoint
	qmu    sync.Mutex
	closed bool
	wg     sync.WaitGroup

	limiter *rateLimiter
	cache   *queryCache
	hub     *streamHub

	// exec streams query results from the store. It defaults to
	// db.ExecuteStream; tests substitute it to exercise mid-stream
	// failures and flushing without corrupting a real store.
	exec func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error

	// removeObservers detaches the gateway's store observers (live
	// stream fan-out, cache invalidation) on Close.
	removeObservers []func()

	// reg is the metrics registry behind /metrics; inflight the live
	// request table behind /api/inflight; recorder the trace flight
	// recorder behind /api/traces (nil when disabled).
	reg      *obs.Registry
	inflight *obs.Inflight
	recorder *obs.Recorder

	// per-endpoint request latency plus the ingest queue-wait
	// histogram (marks recorded in EnqueueRefs, popped in worker).
	histQuery     *obs.Histogram // ctt_http_request_seconds{endpoint="query"}
	histPanel     *obs.Histogram // ctt_http_request_seconds{endpoint="panel"}
	histPut       *obs.Histogram // ctt_http_request_seconds{endpoint="put"}
	histSuggest   *obs.Histogram // ctt_http_request_seconds{endpoint="suggest"}
	histQueueWait *obs.Histogram // ctt_ingest_queue_wait_seconds

	// queue-wait marks: enqueue timestamps tagged with the cumulative
	// enqueue sequence; a worker whose dequeue counter passes a mark's
	// sequence observes its age. Bounded, so a stalled consumer costs
	// sampling coverage, never memory.
	markMu sync.Mutex
	marks  []queueMark
	enqSeq int64
	deqSeq atomic.Int64

	// role tracks replica mode (read-only + primary address + the
	// promotion hook behind /api/promote).
	role roleState

	// healthSources contribute subsystem detail (rollup watermark lag)
	// to /healthz without the gateway importing those packages.
	hsMu          sync.Mutex
	healthSources []func(m map[string]any)

	// counters
	ingested    atomic.Uint64 // points stored
	storeErrors atomic.Uint64 // points rejected by the store (post-queue)
	rejectFull  atomic.Uint64 // points refused: queue full
	rejectRate  atomic.Uint64 // points refused: rate limited
	invalid     atomic.Uint64 // points refused: validation
	putReqs     atomic.Uint64
	queryReqs   atomic.Uint64
	queryErrs   atomic.Uint64
	panelReqs   atomic.Uint64 // Render calls, for TraceSample
	authFails   atomic.Uint64 // requests refused: missing/wrong API key
	panics      atomic.Uint64 // handler panics recovered by the middleware

	rate ewmaRate

	srv *http.Server
	ln  net.Listener
}

// New builds a gateway over db and starts its ingest workers. dp may
// be nil. Call Close to drain and stop.
func New(db *tsdb.DB, dp *dataport.Dataport, cfg Config) *Gateway {
	g := newGateway(db, dp, cfg)
	g.startWorkers()
	return g
}

// newGateway assembles a gateway without launching workers (tests
// fill the queue deterministically before starting them).
func newGateway(db *tsdb.DB, dp *dataport.Dataport, cfg Config) *Gateway {
	cfg.setDefaults()
	g := &Gateway{
		db:      db,
		dp:      dp,
		cfg:     cfg,
		queue:   make(chan tsdb.RefPoint, cfg.QueueSize),
		limiter: newRateLimiter(cfg.RateLimit, cfg.RateBurst),
		cache:   newQueryCache(cfg.CacheSize),
		hub:     newStreamHub(cfg.StreamBuffer),
		exec:    db.ExecuteStream,
	}
	// Every stored point — whether it arrived over HTTP, telnet, or
	// from an in-process writer like the simulated pilot — feeds the
	// live stream and invalidates cached queries covering its range.
	// One batch-granular observer serves both: a 256-point batch costs
	// one fan-out call, not 512.
	g.removeObservers = append(g.removeObservers,
		db.AddBatchObserver(func(rps []tsdb.RefPoint) {
			for _, rp := range rps {
				g.cache.invalidate(rp.Ref.Metric(), rp.Timestamp)
			}
			g.hub.publishBatch(rps)
		}),
	)
	g.initObs()
	return g
}

// initObs builds the metrics registry: gauges over the gateway's and
// store's existing counters (names and order preserved from the
// pre-registry /metrics), the latency histograms, and the store-side
// ingest instrumentation.
func (g *Gateway) initObs() {
	reg := obs.NewRegistry()
	g.reg = reg
	g.inflight = obs.NewInflight()
	if g.cfg.TraceRetain >= 0 {
		g.recorder = obs.NewRecorder(g.cfg.TraceRetain)
	}

	obs.RegisterProcessMetrics(reg)
	obs.NewRuntimeCollector().Register(reg)
	reg.Gauge("ctt_traces_retained", func() float64 { return float64(g.recorder.Len()) })

	reg.Gauge("ctt_ingest_queue_depth", func() float64 { return float64(len(g.queue)) })
	reg.Gauge("ctt_ingest_queue_capacity", func() float64 { return float64(cap(g.queue)) })
	reg.Gauge("ctt_ingest_points_total", func() float64 { return float64(g.ingested.Load()) })
	reg.Gauge("ctt_ingest_store_errors_total", func() float64 { return float64(g.storeErrors.Load()) })
	reg.Gauge(`ctt_ingest_rejected_total{reason="queue_full"}`, func() float64 { return float64(g.rejectFull.Load()) })
	reg.Gauge(`ctt_ingest_rejected_total{reason="rate_limited"}`, func() float64 { return float64(g.rejectRate.Load()) })
	reg.Gauge(`ctt_ingest_rejected_total{reason="invalid"}`, func() float64 { return float64(g.invalid.Load()) })
	reg.Gauge("ctt_ingest_rate_points_per_second", func() float64 { return g.rate.value(time.Now()) })
	reg.Gauge("ctt_put_requests_total", func() float64 { return float64(g.putReqs.Load()) })
	reg.Gauge("ctt_query_requests_total", func() float64 { return float64(g.queryReqs.Load()) })
	reg.Gauge("ctt_query_errors_total", func() float64 { return float64(g.queryErrs.Load()) })
	reg.Gauge("ctt_auth_failures_total", func() float64 { return float64(g.authFails.Load()) })
	reg.Gauge("ctt_panics_total", func() float64 { return float64(g.panics.Load()) })
	reg.Gauge("ctt_loop_panics_total", func() float64 { return float64(obs.LoopPanics()) })
	reg.Gauge("ctt_loop_restarts_total", func() float64 { return float64(obs.LoopRestarts()) })
	reg.Gauge("ctt_degraded", func() float64 {
		if g.db.Degraded() != nil {
			return 1
		}
		return 0
	})
	reg.Gauge(`ctt_storage_errors_total{op="wal_append"}`, func() float64 { return float64(g.db.StorageErrors().WALAppend) })
	reg.Gauge(`ctt_storage_errors_total{op="wal_fsync"}`, func() float64 { return float64(g.db.StorageErrors().WALFsync) })
	reg.Gauge(`ctt_storage_errors_total{op="flush"}`, func() float64 { return float64(g.db.StorageErrors().Flush) })
	reg.Gauge(`ctt_storage_errors_total{op="compact"}`, func() float64 { return float64(g.db.StorageErrors().Compact) })
	reg.Gauge("ctt_query_cache_hits_total", func() float64 { h, _, _ := g.cache.stats(); return float64(h) })
	reg.Gauge("ctt_query_cache_misses_total", func() float64 { _, m, _ := g.cache.stats(); return float64(m) })
	reg.Gauge("ctt_query_cache_invalidations_total", func() float64 { _, _, inv := g.cache.stats(); return float64(inv) })
	reg.Gauge("ctt_query_cache_entries", func() float64 { n, _ := g.cache.size(); return float64(n) })
	reg.Gauge("ctt_query_cache_bytes", func() float64 { _, b := g.cache.size(); return float64(b) })
	reg.Gauge("ctt_query_cache_hit_ratio", func() float64 {
		h, m, _ := g.cache.stats()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
	reg.Gauge("ctt_stream_subscribers", func() float64 { return float64(g.hub.subscriberCount()) })
	reg.Gauge("ctt_stream_dropped_total", func() float64 { return float64(g.hub.droppedCount()) })
	reg.Gauge("ctt_tsdb_series", func() float64 { return float64(g.db.SeriesCount()) })
	reg.Gauge("ctt_tsdb_points", func() float64 { return float64(g.db.PointCount()) })
	reg.Gauge("ctt_tsdb_compressed_bytes", func() float64 { return float64(g.db.CompressedBytes()) })
	reg.Gauge("ctt_wal_bytes", func() float64 { return float64(g.db.WALBytes()) })
	// What this process has sealed, by the value encoding the data
	// chose: the xor share is the part of the deployment whose values
	// are not exact decimals and pay Gorilla's float cost.
	for i, label := range []string{"decimal", "xor"} {
		stats := func() tsdb.SealedStats {
			d, x := g.db.SealedChunks()
			return [2]tsdb.SealedStats{d, x}[i]
		}
		reg.Gauge(`ctt_tsdb_chunks_sealed_total{encoding="`+label+`"}`, func() float64 { return float64(stats().Chunks) })
		reg.Gauge(`ctt_tsdb_chunk_points_total{encoding="`+label+`"}`, func() float64 { return float64(stats().Points) })
		reg.Gauge(`ctt_tsdb_chunk_bytes_total{encoding="`+label+`"}`, func() float64 { return float64(stats().Bytes) })
	}
	reg.Gauge("ctt_tsdb_compression_ratio", func() float64 {
		// Over every chunk sealed so far, against 16 bytes/point raw
		// (int64 ts + float64 value). Points still in a head, and chunks
		// loaded from disk, are on neither side of the ratio.
		d, x := g.db.SealedChunks()
		if d.Bytes+x.Bytes == 0 {
			return 0
		}
		return float64((d.Points+x.Points)*16) / float64(d.Bytes+x.Bytes)
	})
	if g.db.DiskStats().Enabled {
		reg.Gauge("ctt_disk_bytes", func() float64 { return float64(g.db.DiskStats().Bytes) })
		reg.Gauge("ctt_disk_block_files", func() float64 { return float64(g.db.DiskStats().Files) })
		reg.Gauge("ctt_disk_chunks", func() float64 { return float64(g.db.DiskStats().Chunks) })
		reg.Gauge("ctt_disk_quarantined_total", func() float64 { return float64(g.db.DiskStats().Quarantined) })
		reg.Gauge("ctt_disk_read_errors_total", func() float64 { return float64(g.db.DiskStats().ReadErrors) })
		reg.Gauge("ctt_disk_flush_errors_total", func() float64 { return float64(g.db.DiskStats().FlushErrors) })
		reg.Gauge("ctt_disk_flushes_total", func() float64 { return float64(g.db.DiskStats().Flushes) })
		reg.Gauge("ctt_disk_compactions_total", func() float64 { return float64(g.db.DiskStats().Compactions) })
		reg.Gauge("ctt_last_flush_age_seconds", func() float64 {
			st := g.db.DiskStats()
			if st.LastFlush.IsZero() {
				return -1 // no flush yet this process
			}
			return time.Since(st.LastFlush).Seconds()
		})
	}
	if g.dp != nil {
		reg.Gauge("ctt_dataport_sensors", func() float64 { return float64(g.dp.Stats().Sensors) })
		reg.Gauge("ctt_dataport_gateways", func() float64 { return float64(g.dp.Stats().Gateways) })
		reg.Gauge("ctt_dataport_alarms_total", func() float64 { return float64(g.dp.Stats().Alarms) })
	}

	g.histQuery = reg.Histogram("ctt_http_request_seconds", `endpoint="query"`, nil)
	g.histPanel = reg.Histogram("ctt_http_request_seconds", `endpoint="panel"`, nil)
	g.histPut = reg.Histogram("ctt_http_request_seconds", `endpoint="put"`, nil)
	g.histSuggest = reg.Histogram("ctt_http_request_seconds", `endpoint="suggest"`, nil)
	g.histQueueWait = reg.Histogram("ctt_ingest_queue_wait_seconds", "", nil)
	g.db.SetInstrumentation(&tsdb.Instrumentation{
		IngestBatch: reg.Histogram("ctt_ingest_batch_seconds", "", nil),
		WALAppend:   reg.Histogram("ctt_wal_append_seconds", "", nil),
		WALFsync:    reg.Histogram("ctt_wal_fsync_seconds", "", nil),
		Insert:      reg.Histogram("ctt_tsdb_insert_seconds", "", nil),
		Fanout:      reg.Histogram("ctt_tsdb_fanout_seconds", "", nil),
		Flush:       reg.Histogram("ctt_flush_seconds", "", nil),
		Compact:     reg.Histogram("ctt_compact_seconds", "", nil),
	})
}

// Registry exposes the gateway's metrics registry so sibling
// subsystems (the rollup engine, the line-protocol listener) register
// their counters, gauges and histograms next to the gateway's.
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// AddHealthSource registers fn to fold subsystem detail into the
// /healthz body (the rollup engine reports its watermark lag here).
func (g *Gateway) AddHealthSource(fn func(m map[string]any)) {
	g.hsMu.Lock()
	g.healthSources = append(g.healthSources, fn)
	g.hsMu.Unlock()
}

func (g *Gateway) startWorkers() {
	for i := 0; i < g.cfg.Workers; i++ {
		g.wg.Add(1)
		go g.worker()
	}
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/put", g.requireKey(g.handlePut))
	mux.HandleFunc("/api/query", g.requireKey(g.handleQuery))
	mux.HandleFunc("/api/suggest", g.requireKey(g.handleSuggest))
	mux.HandleFunc("/api/stream", g.requireKey(g.handleStream))
	mux.HandleFunc("/api/promote", g.requireKey(g.handlePromote))
	mux.HandleFunc("/api/inflight", g.requireKey(g.handleInflight))
	mux.HandleFunc("/api/traces", g.requireKey(g.handleTraces))
	mux.HandleFunc("/api/traces/", g.requireKey(g.handleTraces))
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/healthz", g.handleHealthz)
	return g.withRecover(mux)
}

// recoverWriter tracks whether the handler already wrote to the
// response, so the recover middleware knows whether a clean 500 is
// still possible or the stream must be torn down instead.
type recoverWriter struct {
	http.ResponseWriter
	wrote bool
}

func (rw *recoverWriter) WriteHeader(code int) {
	rw.wrote = true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recoverWriter) Write(p []byte) (int, error) {
	rw.wrote = true
	return rw.ResponseWriter.Write(p)
}

// Flush passes through so SSE streaming keeps working behind the
// middleware.
func (rw *recoverWriter) Flush() {
	if f, ok := rw.ResponseWriter.(http.Flusher); ok {
		rw.wrote = true
		f.Flush()
	}
}

// withRecover contains handler panics per request: one poisoned
// request must not kill the whole server, and a half-written response
// must not be completed as if it were healthy. If nothing has been
// written yet the client gets a clean 500; mid-stream the connection
// is aborted (via http.ErrAbortHandler) so the client sees a torn
// transfer, never a silently truncated body. http.ErrAbortHandler
// itself passes through uncounted — it is the standard way handlers
// abort deliberately.
func (g *Gateway) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &recoverWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if err, ok := rec.(error); ok && err == http.ErrAbortHandler {
				panic(rec)
			}
			g.panics.Add(1)
			g.cfg.Logger.Error("handler panic",
				"method", r.Method, "path", r.URL.Path,
				"panic", rec, "stack", string(debug.Stack()))
			if !rw.wrote {
				httpError(rw, http.StatusInternalServerError, "internal server error")
				return
			}
			// Response already underway: abort the connection so the
			// client cannot mistake the truncated body for a complete one.
			panic(http.ErrAbortHandler)
		}()
		next.ServeHTTP(rw, r)
	})
}

// requireKey gates a data endpoint behind Config.APIKey. With no key
// configured it is a pass-through.
func (g *Gateway) requireKey(h http.HandlerFunc) http.HandlerFunc {
	if g.cfg.APIKey == "" {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !g.CheckAPIKey(r.Header.Get("X-API-Key")) {
			g.authFails.Add(1)
			httpError(w, http.StatusUnauthorized, "missing or invalid X-API-Key")
			return
		}
		h(w, r)
	}
}

// RequiresAPIKey reports whether the gateway demands a key on data
// requests. The telnet listener (internal/lineproto) consults it, so
// configuring the gateway's key once protects both ingest edges.
func (g *Gateway) RequiresAPIKey() bool { return g.cfg.APIKey != "" }

// CheckAPIKey reports whether key matches the configured API key, in
// constant time. With no key configured every caller is authorized.
// Together with RequiresAPIKey this is the one auth policy shared
// with the telnet listener.
func (g *Gateway) CheckAPIKey(key string) bool {
	if g.cfg.APIKey == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(key), []byte(g.cfg.APIKey)) == 1
}

// Start serves on addr until Close.
func (g *Gateway) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	g.ln = ln
	// No WriteTimeout: /api/stream holds SSE connections open
	// indefinitely. Header-read and idle timeouts still bound
	// slow-loris and abandoned keep-alive connections.
	g.srv = &http.Server{
		Handler:           g.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go g.srv.Serve(ln)
	return ln.Addr(), nil
}

// Close stops accepting writes, drains the queue, and shuts the
// server and stream hub down.
func (g *Gateway) Close() error {
	g.qmu.Lock()
	if !g.closed {
		g.closed = true
		close(g.queue)
	}
	g.qmu.Unlock()
	g.wg.Wait()
	for _, remove := range g.removeObservers {
		remove()
	}
	g.hub.closeAll()
	if g.srv != nil {
		return g.srv.Close()
	}
	return nil
}

// clientKey identifies a client for rate limiting: the remote IP.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// --- /api/suggest ------------------------------------------------------

func (g *Gateway) handleSuggest(w http.ResponseWriter, r *http.Request) {
	defer g.histSuggest.ObserveSince(time.Now())
	q := r.URL.Query()
	max := 25
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "bad max %q (want a positive integer)", v)
			return
		}
		max = n
	}
	prefix := q.Get("q")
	var out []string
	switch t := q.Get("type"); t {
	case "metrics":
		out = g.db.SuggestMetrics(prefix, max)
	case "tagk":
		out = g.db.SuggestTagKeys(prefix, max)
	case "tagv":
		out = g.db.SuggestTagValues(prefix, max)
	default:
		httpError(w, http.StatusBadRequest, "type must be metrics, tagk or tagv")
		return
	}
	if out == nil {
		out = []string{}
	}
	writeJSON(w, http.StatusOK, out)
}

// --- /metrics ----------------------------------------------------------

// handleMetrics serves the registry. Expose snapshots every value and
// formats entirely outside the registry lock, so a slow scrape can
// never stall registration or another scrape. ?format=openmetrics
// (or an Accept header naming application/openmetrics-text) selects
// the OpenMetrics flavor, whose histogram buckets carry trace-linked
// exemplars.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsOpenMetrics(r) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.Write(g.reg.ExposeOpenMetrics())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(g.reg.Expose())
}

// wantsOpenMetrics reports whether the scrape asked for the
// OpenMetrics exposition, by query parameter or Accept header.
func wantsOpenMetrics(r *http.Request) bool {
	if r.URL.Query().Get("format") == "openmetrics" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
}

// --- /healthz ----------------------------------------------------------

// healthSaturation is the queue-occupancy fraction at which /healthz
// flips to 503: ingest is still accepting, but the next burst will 429,
// so load balancers should stop routing new producers here.
const healthSaturation = 0.95

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	depth, capacity := len(g.queue), cap(g.queue)
	m := map[string]any{
		"status":                "ok",
		"ingest_queue_depth":    depth,
		"ingest_queue_capacity": capacity,
		"wal_bytes":             g.db.WALBytes(),
	}
	if ro, primary := g.ReadOnly(); ro {
		m["role"] = "replica"
		m["primary"] = primary
	} else {
		m["role"] = "primary"
	}
	if t, ok := g.db.WALLastSync(); ok {
		m["wal_last_fsync_age_ms"] = time.Since(t).Milliseconds()
	}
	if ds := g.db.DiskStats(); ds.Enabled {
		m["disk_bytes"] = ds.Bytes
		m["disk_block_files"] = ds.Files
		m["disk_quarantined"] = ds.Quarantined
		m["disk_flush_errors"] = ds.FlushErrors
		m["wal_truncation_pending"] = ds.WALTruncationPending
		if !ds.LastFlush.IsZero() {
			m["last_flush_age_ms"] = time.Since(ds.LastFlush).Milliseconds()
		}
	}
	g.hsMu.Lock()
	srcs := g.healthSources
	g.hsMu.Unlock()
	for _, fn := range srcs {
		fn(m)
	}
	code := http.StatusOK
	// A health source may flip the status itself (ctt-server's flush-lag
	// source does); any non-"ok" status serves 503 so load balancers see
	// subsystem saturation, not just queue pressure.
	if s, _ := m["status"].(string); s != "" && s != "ok" {
		code = http.StatusServiceUnavailable
	}
	if capacity > 0 && float64(depth) >= healthSaturation*float64(capacity) {
		m["status"] = "saturated"
		m["reason"] = fmt.Sprintf("ingest queue %d/%d is over %.0f%% full", depth, capacity, healthSaturation*100)
		code = http.StatusServiceUnavailable
	}
	retryAfter := "1"
	// Degraded wins over saturation: the store has stopped accepting
	// writes until an operator intervenes, which matters more to a load
	// balancer than transient queue pressure — and warrants a longer
	// back-off.
	if derr := g.db.Degraded(); derr != nil {
		m["status"] = "degraded"
		m["degraded_error"] = derr.Error()
		if since, ok := g.db.DegradedSince(); ok {
			m["degraded_for_ms"] = time.Since(since).Milliseconds()
		}
		code = http.StatusServiceUnavailable
		retryAfter = "30"
	}
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfter)
	}
	writeJSON(w, code, m)
}

// --- /api/inflight -----------------------------------------------------

// handleInflight lists live requests, longest-running first, each with
// its elapsed time and the pipeline stage it last entered.
func (g *Gateway) handleInflight(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.inflight.Snapshot())
}

// ewmaRate tracks an exponentially-weighted ingest rate.
type ewmaRate struct {
	mu   sync.Mutex
	rate float64
	last time.Time
}

// observe credits n points at time now.
func (e *ewmaRate) observe(n int, now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last.IsZero() {
		e.last, e.rate = now, 0
		return
	}
	dt := now.Sub(e.last).Seconds()
	if dt <= 0 {
		return
	}
	inst := float64(n) / dt
	// ~10s time constant.
	alpha := 1 - math.Exp(-dt/10)
	e.rate += alpha * (inst - e.rate)
	e.last = now
}

func (e *ewmaRate) value(now time.Time) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last.IsZero() {
		return 0
	}
	// Decay toward zero when idle.
	if dt := now.Sub(e.last).Seconds(); dt > 0 {
		return e.rate * math.Exp(-dt/10)
	}
	return e.rate
}
