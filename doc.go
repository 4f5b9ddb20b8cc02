// Package repro is a from-scratch Go reproduction of "Analysis and
// Visualization of Urban Emission Measurements in Smart Cities"
// (Ahlers et al., EDBT 2018): the Carbon Track & Trace (CTT) urban
// emission monitoring ecosystem.
//
// The implementation lives under internal/ (one package per
// subsystem), runnable examples under examples/, and executables under
// cmd/. README.md is the system inventory and docs/ARCHITECTURE.md the
// walk through the write and read paths; cmd/ctt-experiments
// regenerates every figure and table of the paper and prints its
// numbers. The bench_test.go file in this directory holds one benchmark per paper
// artifact (Figures 1–8, Table 1, §3 deployments); bench_gateway_test.go
// tracks the HTTP gateway's ingest throughput and query latency.
//
// The network-facing surface is internal/api: an OpenTSDB-compatible
// HTTP gateway over the internal/tsdb store with batched writes,
// backpressure, per-client rate limiting, gzip request/response
// bodies, a cached query engine with write invalidation, metric and
// tag suggestions from the store's postings index (which every series
// lookup reads), and a server-sent-event live stream with a backfill
// catch-up window. Query execution is streaming end to end:
// internal/tsdb yields result series one at a time (ExecuteStream,
// with the internal/rollup tier planner feeding per-bucket points into
// the same iterator), and /api/query encodes them incrementally — a
// chunked JSON array, or NDJSON under Accept: application/x-ndjson,
// gzip composing on top — so wide queries stream instead of buffering
// the whole response. m=topk(K,...) / m=bottomk(K,...) select the K
// highest/lowest-mean series on a bounded heap before anything is
// serialized. An optional shared API key (X-API-Key over HTTP, a
// one-line auth command over telnet) gates the data endpoints.
// internal/lineproto adds the OpenTSDB telnet line protocol
// (put <metric> <ts> <value> tag=v) as a second ingest edge feeding
// the same bounded queue. internal/rollup continuously aggregates
// every write into tiered windows (raw → 1m → 1h, per-tier retention)
// and serves coarse downsampled queries from those tiers instead of
// raw block scans. cmd/ctt-server runs the simulated pilot as a live
// feed behind that gateway together with the internal/dashboard SVG
// dashboards — the closest analogue of the paper's deployed CTT
// cloud.
//
// Durability: internal/tsdb is a tiered store. Recent points live in
// per-series head buffers and in-memory Gorilla blocks; with a data
// directory (tsdb.Options.Dir, ctt-server: -data-dir) a background
// flusher seals data older than FlushAge into immutable,
// time-partitioned on-disk block files — per-chunk CRC32C, a
// CRC-protected tail index, pread-on-demand reads through the same
// cursor stack queries already use — and truncates the WAL to the
// unflushed tail via fsynced flush markers, so restart replays
// seconds of log instead of months. A background compactor merges
// small adjacent files, applies retention by whole-partition deletes,
// and finishes interrupted truncations; corrupt files are quarantined
// (never deleted) with their points recovered from the WAL. The rollup
// engine keeps no file of its own: at start it rebuilds its unsealed
// aggregation tail from the points the store restored. docs/FORMAT.md
// is the normative byte-level spec of all three on-disk formats;
// docs/ARCHITECTURE.md walks the write/read/flush paths and
// docs/OPERATIONS.md covers running and tuning the server.
//
// Performance, write path: ingest is zero-allocation per point for
// previously-seen series. A sharded interning registry resolves
// (metric, tags) to a stable handle (tsdb.Ref: SeriesID, canonical
// tags, storage slot) via an order-independent tag hash — no tag
// sorting, no key strings — and that one resolution is carried
// through the whole pipeline: the HTTP edge decodes /api/put arrays
// streamingly into pooled scratch and interns from raw bytes, the
// telnet edge parses put lines zero-copy, the bounded ingest queue
// moves compact (Ref, Point) pairs, the WAL group-commits a batch
// with one lock acquisition and one buffered write (series identity
// as dictionary records, points as packed 20-byte entries; retention
// passes rewrite the log from live state so it stops growing),
// observers get one
// batch-granular fan-out call, and the rollup engine keys its windows
// by SeriesID.
//
// Performance, read path: the storage engine's Gorilla codec does
// word-granular bit I/O (a 64-bit buffered word, one masked shift per
// field; byte stream unchanged and fuzz-pinned to a bit-at-a-time
// reference), and the query path reads through per-point cursors —
// sealed blocks decode directly into the downsample fold and the
// k-way interpolating cross-series merge, with one per-query scratch
// buffer replacing per-bucket percentile sort copies. ExecuteStream
// reduces result groups one after another in deterministic group-key
// order on the caller's goroutine, and topk/bottomk candidates are
// ranked by folding member cursors (served from rollup tier
// statistics when a tier covers the range and is shorter than the raw
// series) so only the K winners ever materialize. The gateway appends
// each result series to one pooled response buffer without strconv
// on the common path — a dps key reuses the digits of ts/1e8 from the
// point before and writes its low eight from a digit-pair table, and a
// reading of at most three decimals is written from the same table by
// internal/jsonenc's one float printer — and pushes it to the socket
// after the first series and then on a 32 KiB / 50 ms threshold. CI enforces a bench-regression gate: gateway,
// tsdb, lineproto and obs benchmark medians (ns/op and allocs/op) are
// compared against ci/bench_baseline.json (see ci/benchcmp) and a
// >30% slowdown fails the build; that baseline is the one committed
// perf record (the BENCH_*.json reports are CI artifacts). See
// README.md ("Performance") for numbers, a quickstart and an
// architecture sketch.
//
// Observability: internal/obs is a dependency-free metrics registry
// (atomic counters, gauge closures, lock-free fixed-bucket
// histograms in Prometheus exposition format) plus a pooled span
// tracer threaded through both hot paths — query execution (parse →
// series match → block decode / head scan → k-way merge → downsample
// fold → group reduce → serialize → wire → flush) and ingest
// (decode → enqueue → WAL append/fsync → shard insert → observer
// fan-out). The gateway surfaces it as /metrics stage histograms, a
// structured slow-query log with the full span tree (-slow-query,
// -trace-sample), a live /api/inflight listing, a deep /healthz
// (WAL fsync age, queue depth, rollup watermark lag; 503 on
// saturation), and an opt-in pprof ops listener (-pprof-addr).
//
// Traces & self-metrics: every request carries a random 16-hex trace
// ID shared across surfaces. Slow and sampled traces are snapshotted
// into a lock-free flight-recorder ring (-trace-retain) and served by
// GET /api/traces (list) and /api/traces/{id} (full span tree as
// nested JSON); /metrics?format=openmetrics renders the same
// histogram families with per-bucket exemplars —
// `# {trace_id="..."} value ts` — whose IDs resolve on /api/traces,
// plus runtime/metrics gauges (goroutines, heap, GC) and
// ctt_build_info. A self-scrape loop (-self-scrape, -self-prefix)
// writes the registry's values back into the store as ordinary
// ctt.self.* series tagged src=self, so server health history is
// queryable via /api/query, rolled up like sensor data, and charted
// on the dashboard's /ops page. See README.md ("Observability").
package repro
