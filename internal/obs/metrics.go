// Package obs is the zero-dependency observability core of the CTT
// cloud: atomic counters and gauges, lock-cheap fixed-bucket
// histograms, and a pooled span tracer, rendered through a registry in
// Prometheus text exposition format. Everything here is stdlib-only
// and built for the hot path: counters and histogram observations are
// single atomic operations, registries snapshot values before any
// formatting happens, and the tracer costs nothing when no trace is
// attached (every method is nil-receiver safe).
package obs

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefBuckets are the default latency buckets, in seconds: 100µs .. 10s
// exponentially, covering everything from a WAL fsync to a pathological
// cold scan.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// Histogram is a fixed-bucket histogram. Observations are lock-free:
// one atomic add on the bucket counter plus a CAS loop folding the
// value into the float64 sum. Bucket bounds are immutable after
// construction. Each bucket additionally holds one exemplar slot — the
// last traced observation that landed in it, published as an atomic
// pointer swap — so the OpenMetrics exposition can link a latency
// bucket to the retained trace that produced it.
type Histogram struct {
	name      string // family name, e.g. "ctt_http_request_seconds"
	labels    string // inline label pairs without braces, e.g. `endpoint="query"`
	bounds    []float64
	counts    []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sum       atomic.Uint64   // math.Float64bits of the running sum
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar is one traced observation attached to a histogram bucket:
// the observed value, the trace it belongs to, and when it happened.
// Immutable once published.
type Exemplar struct {
	Value   float64
	TraceID string
	Time    time.Time
}

func newHistogram(name, labels string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{
		name:      name,
		labels:    labels,
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one value. Nil-safe so partially-wired
// instrumentation costs nothing.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.addSum(v)
}

// ObserveExemplar records one value and publishes it as the bucket's
// exemplar, tagged with the trace it came from. Only traced (sampled
// or slow) requests take this path — it allocates one Exemplar — so
// the untraced hot path keeps Observe's zero-alloc cost, and every
// exemplar in the exposition points at a trace the flight recorder
// actually retained. An empty traceID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := h.bucket(v)
	h.counts[i].Add(1)
	h.addSum(v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
	}
}

// bucket returns the index of the bucket v falls into.
func (h *Histogram) bucket(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// addSum folds v into the running float sum with a CAS loop.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// histSnapshot is one histogram's values, read once before formatting.
type histSnapshot struct {
	name, labels string
	bounds       []float64
	counts       []uint64
	sum          float64
	exemplars    []*Exemplar // per bucket; entries may be nil
}

// snapshot reads the histogram without locking Observe out. Under
// concurrent observation the counts and sum are not read atomically as
// a pair, so one scrape can show a _sum that leads or trails
// _bucket/_count by the in-flight observations. Rates and quantiles —
// the values Prometheus derives — are unaffected; exact point-in-time
// _sum/_count agreement is deliberately not guaranteed.
func (h *Histogram) snapshot() histSnapshot {
	s := histSnapshot{
		name:   h.name,
		labels: h.labels,
		bounds: h.bounds,
		counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
	}
	s.sum = math.Float64frombits(h.sum.Load())
	s.exemplars = make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		s.exemplars[i] = h.exemplars[i].Load()
	}
	return s
}

// Registry holds metrics and renders them in Prometheus text
// exposition format. It is the one way a value reaches /metrics and
// the self-scrape loop: every subsystem registers its counters, gauges
// and histograms here. Registration order is preserved for counters
// and gauges; histograms render after them, grouped by family so each
// family gets exactly one `# TYPE` header. Expose snapshots every
// value first and formats entirely outside the registry lock.
type Registry struct {
	mu      sync.RWMutex
	scalars []scalarEntry
	hists   []*Histogram
}

// scalarEntry is one counter or gauge: exactly one of count and gauge
// is set.
type scalarEntry struct {
	name  string // full name including any inline {labels}
	count func() uint64
	gauge func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers and returns a counter. name may carry inline
// labels, e.g. `ctt_ingest_rejected_total{reason="queue_full"}`.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.Uint(name, c.Value)
	return c
}

// Uint registers an integer metric read from fn at scrape time — a
// counter, or a count-valued gauge, that a subsystem keeps in its own
// atomics. It renders as a plain integer at any size, where Gauge's
// shortest float would print 1000000 as 1e+06.
func (r *Registry) Uint(name string, fn func() uint64) {
	r.mu.Lock()
	r.scalars = append(r.scalars, scalarEntry{name: name, count: fn})
	r.mu.Unlock()
}

// Gauge registers a gauge whose value is read from fn at scrape time.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.mu.Lock()
	r.scalars = append(r.scalars, scalarEntry{name: name, gauge: fn})
	r.mu.Unlock()
}

// Histogram registers and returns a histogram. labels are inline label
// pairs without braces (`endpoint="query"`), empty for none; nil
// bounds select DefBuckets. Histograms sharing a family name share one
// `# TYPE` header in the rendered output.
func (r *Registry) Histogram(name, labels string, bounds []float64) *Histogram {
	h := newHistogram(name, labels, bounds)
	r.mu.Lock()
	r.hists = append(r.hists, h)
	r.mu.Unlock()
	return h
}

// Expose renders the registry in Prometheus text exposition format.
// The registry lock is held only to copy the (append-only) entry
// slices; every value is snapshotted and formatted lock-free.
func (r *Registry) Expose() []byte { return r.expose(false) }

// ExposeOpenMetrics renders the registry in OpenMetrics flavor: the
// same families and values, with each histogram bucket carrying its
// last traced observation as an exemplar —
//
//	name_bucket{le="0.25"} 7 # {trace_id="a1b2..."} 0.231 1520879607.789
//
// — and the body terminated by the mandatory "# EOF" marker, so
// Prometheus scraping with exemplar storage enabled can link a
// latency bucket straight to GET /api/traces/{trace_id}.
func (r *Registry) ExposeOpenMetrics() []byte { return r.expose(true) }

func (r *Registry) expose(openmetrics bool) []byte {
	r.mu.RLock()
	scalars := r.scalars
	hists := r.hists
	r.mu.RUnlock()

	// Snapshot phase: read every value before formatting anything.
	type scalarVal struct {
		name      string
		isCounter bool
		u         uint64
		f         float64
	}
	svals := make([]scalarVal, len(scalars))
	for i, e := range scalars {
		if e.count != nil {
			svals[i] = scalarVal{name: e.name, isCounter: true, u: e.count()}
		} else {
			svals[i] = scalarVal{name: e.name, f: e.gauge()}
		}
	}
	hvals := make([]histSnapshot, len(hists))
	for i, h := range hists {
		hvals[i] = h.snapshot()
	}

	// Format phase.
	b := make([]byte, 0, 4096)
	for _, v := range svals {
		b = append(b, v.name...)
		b = append(b, ' ')
		if v.isCounter {
			b = strconv.AppendUint(b, v.u, 10)
		} else {
			b = appendMetricFloat(b, v.f)
		}
		b = append(b, '\n')
	}
	// Histograms grouped by family, in first-registration order, so
	// each family gets exactly one TYPE header.
	seen := map[string]bool{}
	for i := range hvals {
		fam := hvals[i].name
		if seen[fam] {
			continue
		}
		seen[fam] = true
		b = append(b, "# TYPE "...)
		b = append(b, fam...)
		b = append(b, " histogram\n"...)
		for j := i; j < len(hvals); j++ {
			if hvals[j].name == fam {
				b = appendHistogram(b, &hvals[j], openmetrics)
			}
		}
	}
	if openmetrics {
		b = append(b, "# EOF\n"...)
	}
	return b
}

// Each visits every scalar value the registry can express as a number:
// counters and gauges under their registered names (inline labels
// included), then each histogram's _count and _sum. It is the
// machine-readable walk behind the self-scrape loop — the same values
// /metrics renders as text, delivered as (name, float) pairs with no
// formatting.
func (r *Registry) Each(fn func(name string, v float64)) {
	r.mu.RLock()
	scalars := r.scalars
	hists := r.hists
	r.mu.RUnlock()
	for _, e := range scalars {
		if e.count != nil {
			fn(e.name, float64(e.count()))
		} else {
			fn(e.name, e.gauge())
		}
	}
	for _, h := range hists {
		s := h.snapshot()
		var n uint64
		for _, c := range s.counts {
			n += c
		}
		fn(histSeriesName(h.name, "_count", h.labels), float64(n))
		fn(histSeriesName(h.name, "_sum", h.labels), s.sum)
	}
}

// histSeriesName builds "name_suffix" or "name_suffix{labels}".
func histSeriesName(name, suffix, labels string) string {
	if labels == "" {
		return name + suffix
	}
	return name + suffix + "{" + labels + "}"
}

// appendHistogram renders one histogram's _bucket/_sum/_count lines
// from its snapshot. Bucket counts are cumulative; the +Inf bucket
// equals _count by construction, so monotonicity holds even against
// concurrent observations. In OpenMetrics mode each bucket holding an
// exemplar appends it after the count, "# {labels} value timestamp".
func appendHistogram(b []byte, s *histSnapshot, openmetrics bool) []byte {
	appendLabeled := func(b []byte, suffix, extra string) []byte {
		b = append(b, s.name...)
		b = append(b, suffix...)
		if s.labels != "" || extra != "" {
			b = append(b, '{')
			b = append(b, s.labels...)
			if s.labels != "" && extra != "" {
				b = append(b, ',')
			}
			b = append(b, extra...)
			b = append(b, '}')
		}
		return b
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		le := "+Inf"
		if i < len(s.bounds) {
			le = strconv.FormatFloat(s.bounds[i], 'g', -1, 64)
		}
		b = appendLabeled(b, "_bucket", `le="`+le+`"`)
		b = append(b, ' ')
		b = strconv.AppendUint(b, cum, 10)
		if openmetrics && i < len(s.exemplars) {
			if ex := s.exemplars[i]; ex != nil {
				b = appendExemplar(b, ex)
			}
		}
		b = append(b, '\n')
	}
	b = appendLabeled(b, "_sum", "")
	b = append(b, ' ')
	b = appendMetricFloat(b, s.sum)
	b = append(b, '\n')
	b = appendLabeled(b, "_count", "")
	b = append(b, ' ')
	b = strconv.AppendUint(b, cum, 10)
	b = append(b, '\n')
	return b
}

// appendExemplar renders one OpenMetrics exemplar suffix:
//
//	# {trace_id="<16 hex>"} <value> <unix seconds>
//
// The timestamp keeps millisecond precision, which is what the
// recorder's retention granularity justifies.
func appendExemplar(b []byte, ex *Exemplar) []byte {
	b = append(b, ` # {trace_id="`...)
	b = append(b, ex.TraceID...)
	b = append(b, `"} `...)
	b = appendMetricFloat(b, ex.Value)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, float64(ex.Time.UnixMilli())/1000, 'f', 3, 64)
	return b
}

// appendMetricFloat renders a gauge value: integral floats print as
// integers (matching the pre-registry /metrics output the tests pin),
// everything else in shortest-roundtrip form.
func appendMetricFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}
