package main

// Result assembly: what one workload run reports, how sample
// populations become latency metrics, and how two /metrics scrapes
// become per-layer counts.

import (
	"time"
)

// workloadResult is everything one workload run measured. EndToEnd is
// keyed by the metric names of BENCHMARK.json's end_to_end list, Detail
// by this workload's own client-seen numbers behind them (see README.md
// "What op and op2 are"), Layer by per_layer names.
type workloadResult struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	WindowS     float64           `json:"window_s"`
	EndToEnd    map[string]Metric `json:"end_to_end"`
	Detail      map[string]Metric `json:"detail"`
	Layer       map[string]Metric `json:"per_layer"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	ScheduleSHA string            `json:"schedule_sha"`
	// Invalid is non-empty when the numbers measure the generator and
	// not the server (see genCheck); the command then fails.
	Invalid string `json:"invalid,omitempty"`
}

func newResult(e *env, name string) *workloadResult {
	return &workloadResult{
		Workload: name, Seed: e.seed, WindowS: e.window.Seconds(),
		EndToEnd: map[string]Metric{}, Detail: map[string]Metric{}, Layer: map[string]Metric{},
	}
}

// windowed returns the samples whose due time lies in [from, to).
func windowed(all []sample, from, to time.Duration) []sample {
	var out []sample
	for _, s := range all {
		if s.due >= from && s.due < to {
			out = append(out, s)
		}
	}
	return out
}

// latenciesMS extracts the latencies of the samples of the given kinds:
// from the due time to completion, which keeps the wait a stalled
// answer imposes on the ops queued behind it, less the generator's own
// lateness (Go timers fire up to a millisecond late on an idle
// processor; that is not the server's doing).
func latenciesMS(samples []sample, kinds ...uint8) []float64 {
	var out []float64
	for _, s := range samples {
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, float64(s.done-s.due-s.late)/1e6)
				break
			}
		}
	}
	return out
}

// setLatency records <prefix>_p50_ms and the tail percentiles the
// population supports under <prefix>_p95_ms and <prefix>_p99_ms. A tail
// with fewer than tailBeyond samples beyond it is left out, never
// printed.
func setLatency(dst map[string]Metric, prefix string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	p50, p95, ok95 := latencySummary(ms, 95)
	dst[prefix+"_p50_ms"] = Metric{Value: p50, Unit: "ms", N: len(ms)}
	if ok95 {
		dst[prefix+"_p95_ms"] = Metric{Value: p95, Unit: "ms", N: len(ms)}
	}
	if tailSupported(len(ms), 99) {
		dst[prefix+"_p99_ms"] = Metric{Value: percentile(ms, 99), Unit: "ms", N: len(ms)}
	}
}

// Generator self-check limits: beyond them an open-loop workload's
// numbers describe the load generator, not the server. Lateness is
// judged at its 95th percentile: on a shared VM a single 100 ms
// hypervisor pause already moves the 99th of a 10 s window.
const (
	genLateLimitMS  = 5.0
	genCPULimitCore = 0.5
)

// genCheck records how late the generator ran and how much CPU it
// took, and marks the workload invalid past the limits.
func genCheck(r *workloadResult, samples []sample, o *observation, window time.Duration) {
	late := make([]float64, 0, len(samples))
	for _, s := range samples {
		late = append(late, float64(s.late)/1e6)
	}
	_, p95, ok := latencySummary(late, 95)
	if ok {
		r.Layer["gen.late_p95_ms"] = Metric{Value: p95, Unit: "ms", N: len(late)}
	}
	if tailSupported(len(late), 99) {
		r.Layer["gen.late_p99_ms"] = Metric{Value: percentile(late, 99), Unit: "ms", N: len(late)}
	}
	share := o.genCPU.Seconds() / window.Seconds()
	r.Layer["gen.cpu_share"] = Metric{Value: share, Unit: "cores"}
	switch {
	case ok && p95 > genLateLimitMS:
		r.Invalid = "generator-bound: gen.late_p95_ms above 5 ms"
	case share > genCPULimitCore:
		r.Invalid = "generator-bound: gen.cpu_share above 0.5 cores"
	}
}

// layerCounts turns the window's two scrapes into per-layer metrics.
// A series missing from either scrape yields no metric, not an error:
// names may be consolidated by later clean-ups.
func layerCounts(r *workloadResult, o *observation) {
	b, a := o.before, o.after
	setMean := func(name, hist string, scale float64, unit string) {
		if v, ok := histMean(b, a, hist); ok {
			r.Layer[name] = Metric{Value: v * scale, Unit: unit}
		}
	}
	setDelta := func(name, series, unit string, scale float64) {
		if v, ok := delta(b, a, series); ok {
			r.Layer[name] = Metric{Value: v * scale, Unit: unit}
		}
	}
	setEnd := func(name, series, unit string) {
		if v, ok := a[series]; ok {
			r.Layer[name] = Metric{Value: v, Unit: unit}
		}
	}
	ratio := func(name string, num, den float64, ok bool) {
		if ok && den > 0 {
			r.Layer[name] = Metric{Value: num / den, Unit: "ratio"}
		}
	}

	setMean("api.queue_wait_us", "ctt_ingest_queue_wait_seconds", 1e6, "us")
	setMean("api.ingest_batch_us", "ctt_ingest_batch_seconds", 1e6, "us")
	setMean("tsdb.wal_append_us", "ctt_wal_append_seconds", 1e6, "us")
	setMean("tsdb.wal_fsync_ms", "ctt_wal_fsync_seconds", 1e3, "ms")
	setMean("tsdb.insert_us", "ctt_tsdb_insert_seconds", 1e6, "us")
	setMean("tsdb.fanout_us", "ctt_tsdb_fanout_seconds", 1e6, "us")
	setMean("tsdb.flush_ms", "ctt_flush_seconds", 1e3, "ms")
	setMean("tsdb.compact_ms", "ctt_compact_seconds", 1e3, "ms")
	setMean("rollup.observe_us", "ctt_rollup_observe_seconds", 1e6, "us")

	hits, okH := delta(b, a, "ctt_query_cache_hits_total")
	misses, okM := delta(b, a, "ctt_query_cache_misses_total")
	ratio("api.cache_hit_ratio", hits, hits+misses, okH && okM)
	setDelta("api.cache_invalidations", "ctt_query_cache_invalidations_total", "count", 1)
	setDelta("api.stream_dropped", "ctt_stream_dropped_total", "count", 1)
	setDelta("tsdb.flush_count", "ctt_disk_flushes_total", "count", 1)
	setEnd("tsdb.series_end", "ctt_tsdb_series", "count")
	setEnd("tsdb.wal_bytes_end", "ctt_wal_bytes", "bytes")
	setEnd("tsdb.block_bytes_end", "ctt_disk_bytes", "bytes")

	observed, okO := delta(b, a, "ctt_rollup_points_observed_total")
	late, okL := delta(b, a, "ctt_rollup_late_dropped_total")
	ratio("rollup.late_dropped_ratio", late, observed, okO && okL)
	qh, okQ := delta(b, a, "ctt_rollup_query_hits_total")
	qf, okF := delta(b, a, "ctt_rollup_query_fallbacks_total")
	ratio("rollup.query_hit_ratio", qh, qh+qf, okQ && okF)

	setDelta("obs.gc_pause_ms", "ctt_go_gc_pause_seconds_total", "ms", 1e3)
	setDelta("obs.gc_cycles", "ctt_go_gc_cycles_total", "count", 1)

	if len(o.lagMS) > 0 {
		// The 10 Hz sampler collects 10 samples per window second, so
		// p90 is the highest percentile a 10 s window supports.
		lag := append([]float64(nil), o.lagMS...)
		if _, p90, ok := latencySummary(lag, 90); ok {
			r.Layer["repl.lag_p90_ms"] = Metric{Value: p90, Unit: "ms", N: len(lag)}
		}
	}
	if o.fBefore != nil {
		bytes, okB := delta(o.fBefore, o.fAfter, "ctt_repl_bytes_total")
		pts, okP := delta(o.fBefore, o.fAfter, "ctt_tsdb_points")
		if okB && okP && pts > 0 {
			r.Layer["repl.bytes_per_point"] = Metric{Value: bytes / pts, Unit: "bytes"}
		}
	}
}
