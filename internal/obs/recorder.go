package obs

// Flight recorder: a Trace lives only while its request is in flight —
// the pooled span tree is reset on Release. Capture takes an immutable,
// heap-owned snapshot of the spans and stages just before that, and
// Recorder keeps the last N snapshots in a lock-light ring buffer so an
// operator can answer "why was that query slow?" after the fact via
// GET /api/traces/{id}. Writers claim slots with one atomic add and
// publish with one atomic pointer store; readers walk the slots with
// atomic loads — no mutex anywhere, so recording never contends with
// the request path and listing never stalls recording.

import (
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// CapturedSpan is one span of a trace snapshot. Parent indexes into
// the capture's Spans slice (-1 for children of the trace root);
// parents always precede their children. EndNS is -1 for a span still
// open at capture time.
type CapturedSpan struct {
	Name    string
	Parent  int
	StartNS int64
	EndNS   int64
}

// Open reports whether the span was still running when captured.
func (s CapturedSpan) Open() bool { return s.EndNS < 0 }

// Duration returns the span's length; for an open span, the time from
// its start to the capture instant.
func (s CapturedSpan) Duration(captureNS int64) time.Duration {
	if s.Open() {
		return time.Duration(captureNS - s.StartNS)
	}
	return time.Duration(s.EndNS - s.StartNS)
}

// CapturedStage is one stage accumulator of a trace snapshot.
type CapturedStage struct {
	Name     string
	Duration time.Duration
	Count    int64
}

// TraceCapture is an immutable snapshot of one trace, safe to retain
// and read long after the originating Trace is released and repooled.
type TraceCapture struct {
	ID       string
	Name     string
	Detail   string
	Start    time.Time
	Duration time.Duration
	Detailed bool
	Dropped  int
	Spans    []CapturedSpan
	Stages   []CapturedStage
	Plans    []string // the plan note, one rendered plan per query
}

// Capture snapshots the trace onto the heap: published spans, stage
// totals, the rendered plan note, drop count and elapsed time as of
// now. Call it just before Release; the result shares nothing with the
// pooled trace. Nil-safe.
func (t *Trace) Capture() *TraceCapture {
	if t == nil {
		return nil
	}
	c := t.capture()
	for _, p := range t.plans {
		c.Plans = append(c.Plans, p.String())
	}
	return c
}

// capture is Capture without the plan note.
func (t *Trace) capture() *TraceCapture {
	c := &TraceCapture{
		ID:       t.ID(),
		Name:     t.name,
		Detail:   t.detail,
		Start:    t.t0,
		Duration: t.Elapsed(),
		Detailed: t.detailed,
		Dropped:  int(t.dropped.Load()),
	}
	n := t.spanCount()
	if n > 0 {
		// Unpublished slots (claimed, fields not yet visible) are
		// skipped, shifting indices; remap parents accordingly. A parent
		// always claims its slot before any child, so a single forward
		// pass sees every parent before its children.
		remap := make([]int, n)
		c.Spans = make([]CapturedSpan, 0, n)
		for i := 0; i < n; i++ {
			sd := &t.spans[i]
			if !sd.ready.Load() {
				remap[i] = -1
				continue
			}
			parent := -1
			if sd.parent >= 0 && int(sd.parent) < n {
				parent = remap[sd.parent]
			}
			remap[i] = len(c.Spans)
			c.Spans = append(c.Spans, CapturedSpan{
				Name:    sd.name,
				Parent:  parent,
				StartNS: sd.start,
				EndNS:   sd.end.Load(),
			})
		}
	}
	if ns := int(t.nstages.Load()); ns > 0 {
		c.Stages = make([]CapturedStage, 0, ns)
		for i := 0; i < ns; i++ {
			st := &t.stages[i]
			cnt := st.n.Load()
			if cnt == 0 {
				continue
			}
			c.Stages = append(c.Stages, CapturedStage{
				Name:     st.name,
				Duration: time.Duration(st.ns.Load()),
				Count:    cnt,
			})
		}
	}
	return c
}

// String renders the capture as one line, the slow-query log's trace:
//
//	query 12.4ms {parse 81µs; scan 12.1ms {flush 0.3ms}} stages{member_prime=9.1ms/48 ...}
//
// A span open at capture renders its duration so far and a trailing
// "+"; spans the trace dropped render as a trailing "dropped=N".
func (c *TraceCapture) String() string {
	b := appendDur(append([]byte(c.Name), ' '), c.Duration)
	if len(c.Spans) > 0 {
		b = append(c.appendSpans(append(b, " {"...), -1), '}')
	}
	sep := " stages{"
	for _, st := range c.Stages {
		b = appendDur(append(append(append(b, sep...), st.Name...), '='), st.Duration)
		b = strconv.AppendInt(append(b, '/'), st.Count, 10)
		sep = " "
	}
	if len(c.Stages) > 0 {
		b = append(b, '}')
	}
	if c.Dropped > 0 {
		b = strconv.AppendInt(append(b, " dropped="...), int64(c.Dropped), 10)
	}
	return string(b)
}

// appendSpans renders the children of span parent (-1: the trace
// root), each followed by its own children in braces.
func (c *TraceCapture) appendSpans(b []byte, parent int) []byte {
	sep := ""
	for i, sp := range c.Spans {
		if sp.Parent != parent {
			continue
		}
		b = appendDur(append(append(append(b, sep...), sp.Name...), ' '), sp.Duration(c.Duration.Nanoseconds()))
		sep = "; "
		if sp.Open() {
			b = append(b, '+')
		}
		n := len(b)
		if b = c.appendSpans(append(b, " {"...), i); len(b) > n+2 {
			b = append(b, '}')
		} else {
			b = b[:n] // no children
		}
	}
	return b
}

// DefaultRecorderSize is the ring capacity NewRecorder uses when the
// caller passes size <= 0.
const DefaultRecorderSize = 256

// Recorder is the bounded trace ring. The zero value is unusable; a
// nil *Recorder is inert (Add drops, Get and List return nothing), so
// callers can compile the flight recorder out by configuration.
type Recorder struct {
	slots []atomic.Pointer[TraceCapture]
	next  atomic.Uint64
}

// NewRecorder returns a recorder retaining the last size captures
// (DefaultRecorderSize when size <= 0).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	return &Recorder{slots: make([]atomic.Pointer[TraceCapture], size)}
}

// Add retains a capture, evicting the oldest entry once the ring is
// full. Safe for concurrent use; cost is one atomic add and one
// atomic store.
func (r *Recorder) Add(c *TraceCapture) {
	if r == nil || c == nil {
		return
	}
	i := (r.next.Add(1) - 1) % uint64(len(r.slots))
	r.slots[i].Store(c)
}

// Get returns the retained capture with the given ID, or nil.
func (r *Recorder) Get(id string) *TraceCapture {
	if r == nil {
		return nil
	}
	for i := range r.slots {
		if c := r.slots[i].Load(); c != nil && c.ID == id {
			return c
		}
	}
	return nil
}

// List returns the retained captures, newest first.
func (r *Recorder) List() []*TraceCapture {
	if r == nil {
		return nil
	}
	out := make([]*TraceCapture, 0, len(r.slots))
	for i := range r.slots {
		if c := r.slots[i].Load(); c != nil {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Len reports how many captures are currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.slots {
		if r.slots[i].Load() != nil {
			n++
		}
	}
	return n
}
