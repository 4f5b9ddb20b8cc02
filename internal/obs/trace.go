package obs

// Span tracer: a Trace is a pooled, fixed-capacity tree of monotonic-
// clock spans plus a set of named stage accumulators. Spans mark the
// coarse phases of a request (parse → plan → scan → flush); stages
// accumulate time spent in hot pipeline sections that run many times
// per request (k-way merge, group reduce, ordered-delivery wait),
// where a span per invocation would cost more than the work it
// measures. Every method is safe on a nil *Trace / zero Span, so
// uninstrumented paths pay a single nil check. Concurrent use is safe:
// span slots are claimed with an atomic counter and published with a
// ready flag, so /api/inflight can render a live trace while workers
// are still opening spans on it.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

const (
	maxSpans  = 48
	maxStages = 24
)

type spanData struct {
	name   string
	parent int32        // span index, or -1 for the trace root
	start  int64        // ns since trace t0
	end    atomic.Int64 // ns since t0; -1 while open
	ready  atomic.Bool  // published: name/parent/start are visible
}

// Stage accumulates total duration and invocation count for one named
// pipeline section. Adds are two atomic ops; safe from any goroutine.
type Stage struct {
	name string
	ns   atomic.Int64
	n    atomic.Int64
}

// Add credits d to the stage.
func (s *Stage) Add(d time.Duration) {
	if s != nil {
		s.ns.Add(int64(d))
		s.n.Add(1)
	}
}

// Count returns the number of Add calls.
func (s *Stage) Count() int64 {
	if s == nil {
		return 0
	}
	return s.n.Load()
}

// Trace is one request's span tree. Obtain with NewTrace, return with
// Release; the backing arrays are pooled and reused.
type Trace struct {
	name     string
	detail   string
	t0       time.Time
	detailed bool

	// id is a random 64-bit trace identifier, assigned by NewTrace and
	// stable for the trace's lifetime. It is what /api/inflight rows,
	// histogram exemplars and the flight recorder use to refer to one
	// request across surfaces.
	id uint64

	nspans  atomic.Int32
	spans   [maxSpans]spanData
	dropped atomic.Int32

	stageMu sync.Mutex
	nstages atomic.Int32
	stages  [maxStages]Stage

	// cur tracks the most recently opened unfinished span, for the
	// inflight listing's "current stage" column. Best-effort under
	// concurrency.
	cur atomic.Int32

	// plans is the plan note: each query plan the request ran, in
	// order, rendered only by Capture and the slow-query log. Unlike
	// spans and stages it belongs to the request's goroutine.
	plans []fmt.Stringer
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// NewTrace returns a pooled trace rooted at now. name is the request
// kind ("query", "put"); detail identifies the request (URI).
func NewTrace(name, detail string) *Trace {
	t := tracePool.Get().(*Trace)
	t.name, t.detail = name, detail
	t.t0 = time.Now()
	t.detailed = false
	t.id = rand.Uint64() | 1 // nonzero, so 0 can mean "no trace"
	t.cur.Store(-1)
	return t
}

// Release resets the trace and returns it to the pool. The caller must
// not touch the trace (or any Span on it) afterwards.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	n := t.spanCount()
	for i := 0; i < n; i++ {
		t.spans[i].name = ""
		t.spans[i].ready.Store(false)
		t.spans[i].end.Store(0)
	}
	t.nspans.Store(0)
	ns := int(t.nstages.Load())
	for i := 0; i < ns; i++ {
		t.stages[i].name = ""
		t.stages[i].ns.Store(0)
		t.stages[i].n.Store(0)
	}
	t.nstages.Store(0)
	t.dropped.Store(0)
	clear(t.plans)
	t.plans = t.plans[:0]
	t.name, t.detail = "", ""
	tracePool.Put(t)
}

// ID renders the trace's random identifier as 16 lowercase hex
// digits — the form exemplars, the inflight listing and /api/traces
// all share. Empty for a nil trace.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return formatTraceID(t.id)
}

// formatTraceID renders a 64-bit trace id as fixed-width hex.
func formatTraceID(id uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// Name returns the trace's request kind.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Detail returns the trace's request identifier.
func (t *Trace) Detail() string {
	if t == nil {
		return ""
	}
	return t.detail
}

// Elapsed returns the time since the trace started.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// SetDetailed enables per-point detail timing for this trace (the
// sampled mode: cursor sources wrap themselves in timers).
func (t *Trace) SetDetailed(on bool) {
	if t != nil {
		t.detailed = on
	}
}

// Detailed reports whether per-point detail timing is on.
func (t *Trace) Detailed() bool { return t != nil && t.detailed }

func (t *Trace) spanCount() int {
	n := int(t.nspans.Load())
	if n > maxSpans {
		n = maxSpans
	}
	return n
}

// Span is a lightweight handle onto one span slot of a trace. The zero
// Span (and any Span from a nil trace) is inert.
type Span struct {
	t *Trace
	i int32
}

// StartSpan opens a child of the trace root.
func (t *Trace) StartSpan(name string) Span { return t.startSpan(name, -1) }

// StartSpan opens a child of this span.
func (s Span) StartSpan(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.startSpan(name, s.i)
}

func (t *Trace) startSpan(name string, parent int32) Span {
	if t == nil {
		return Span{}
	}
	i := t.nspans.Add(1) - 1
	if int(i) >= maxSpans {
		t.dropped.Add(1)
		return Span{t: t, i: -1}
	}
	sd := &t.spans[i]
	sd.name = name
	sd.parent = parent
	sd.start = int64(time.Since(t.t0))
	sd.end.Store(-1)
	sd.ready.Store(true)
	t.cur.Store(i)
	return Span{t: t, i: i}
}

// End closes the span.
func (s Span) End() {
	if s.t == nil || s.i < 0 {
		return
	}
	sd := &s.t.spans[s.i]
	sd.end.Store(int64(time.Since(s.t.t0)))
	// Restore the parent as "current" if we were it (best-effort).
	s.t.cur.CompareAndSwap(s.i, sd.parent)
}

// Stage resolves (registering on first use) the named stage
// accumulator. The fast path is a lock-free scan of the registered
// names; registration takes a mutex. Returns nil (inert) when the
// trace is nil or the stage table is full.
func (t *Trace) Stage(name string) *Stage {
	if t == nil {
		return nil
	}
	n := int(t.nstages.Load())
	for i := 0; i < n; i++ {
		if t.stages[i].name == name {
			return &t.stages[i]
		}
	}
	t.stageMu.Lock()
	defer t.stageMu.Unlock()
	n = int(t.nstages.Load())
	for i := 0; i < n; i++ {
		if t.stages[i].name == name {
			return &t.stages[i]
		}
	}
	if n >= maxStages {
		return nil
	}
	st := &t.stages[n]
	st.name = name
	st.ns.Store(0)
	st.n.Store(0)
	t.nstages.Store(int32(n + 1)) // publish after name is set
	return st
}

// AddPlan appends a query plan to the trace's plan note. The plan is
// kept as it is and rendered only when the trace is captured or logged,
// so an uncaptured request pays nothing to format it.
func (t *Trace) AddPlan(p fmt.Stringer) {
	if t != nil {
		t.plans = append(t.plans, p)
	}
}

// Plans returns the trace's plan note in the order it was added; the
// slice is the trace's own, valid until Release.
func (t *Trace) Plans() []fmt.Stringer {
	if t == nil {
		return nil
	}
	return t.plans
}

// StageCount returns the invocation count of the named stage (0 if
// absent).
func (t *Trace) StageCount(name string) int64 {
	return t.findStage(name).Count()
}

// findStage is Stage without the registering slow path.
func (t *Trace) findStage(name string) *Stage {
	if t == nil {
		return nil
	}
	n := int(t.nstages.Load())
	for i := 0; i < n; i++ {
		if t.stages[i].name == name {
			return &t.stages[i]
		}
	}
	return nil
}

// CurrentStage names the most recently opened unfinished span — the
// inflight listing's "where is it now" column. Falls back to the trace
// name when no span is open.
func (t *Trace) CurrentStage() string {
	if t == nil {
		return ""
	}
	i := t.cur.Load()
	if i >= 0 && int(i) < t.spanCount() && t.spans[i].ready.Load() {
		return t.spans[i].name
	}
	return t.name
}

// RenderTree renders the span tree and stage totals as one line (see
// TraceCapture.String). Safe to call on a live trace: only published
// spans appear.
func (t *Trace) RenderTree() string {
	if t == nil {
		return ""
	}
	return t.capture().String()
}

// appendDur renders a duration rounded to the microsecond.
func appendDur(b []byte, d time.Duration) []byte {
	return append(b, d.Round(time.Microsecond).String()...)
}

// --- context plumbing --------------------------------------------------

type traceKey struct{}
type spanKey struct{}

// WithTrace attaches a trace to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// StartSpan opens a span as a child of the context's current span (or
// of the trace root), returning a derived context carrying the new
// span. With no trace attached it is a no-op returning ctx unchanged.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	t := TraceFrom(ctx)
	if t == nil {
		return ctx, Span{}
	}
	var sp Span
	if parent, ok := ctx.Value(spanKey{}).(Span); ok && parent.t == t {
		sp = parent.StartSpan(name)
	} else {
		sp = t.StartSpan(name)
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}
