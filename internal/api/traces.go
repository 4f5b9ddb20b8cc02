package api

// Trace flight-recorder endpoints: GET /api/traces lists the recently
// retained request traces (newest first), GET /api/traces/{id} returns
// one trace's full span tree as nested JSON. Traces are retained by
// the epilogue of the query and put handlers — always for requests
// slower than Config.SlowQuery, and for every Config.TraceSample'd
// query — so the IDs surfaced by /api/inflight, the slow-query log and
// the OpenMetrics exemplars all resolve here once the request is done.

import (
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// traceSummary is one /api/traces list row.
type traceSummary struct {
	ID         string             `json:"id"`
	Name       string             `json:"name"`
	Detail     string             `json:"detail"`
	Start      time.Time          `json:"start"`
	DurationMS float64            `json:"duration_ms"`
	Detailed   bool               `json:"detailed"`
	Spans      int                `json:"spans"`
	Dropped    int                `json:"dropped,omitempty"`
	Stages     map[string]float64 `json:"stages,omitempty"` // total ms per stage
}

// traceDetail is the /api/traces/{id} body: the summary fields plus
// the span tree, per-stage counts and the plan note — one plan per
// query the request ran, naming each member's source and decline
// reason.
type traceDetail struct {
	ID         string       `json:"id"`
	Name       string       `json:"name"`
	Detail     string       `json:"detail"`
	Start      time.Time    `json:"start"`
	DurationMS float64      `json:"duration_ms"`
	Detailed   bool         `json:"detailed"`
	Dropped    int          `json:"dropped,omitempty"`
	Spans      []*spanNode  `json:"spans"`
	Stages     []stageEntry `json:"stages"`
	Plans      []string     `json:"plans,omitempty"`
}

type spanNode struct {
	Name       string      `json:"name"`
	StartMS    float64     `json:"start_ms"` // offset from trace start
	DurationMS float64     `json:"duration_ms"`
	Open       bool        `json:"open,omitempty"` // still running at capture
	Children   []*spanNode `json:"children,omitempty"`
}

type stageEntry struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
	Count      int64   `json:"count"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if g.recorder == nil {
		httpError(w, http.StatusNotFound, "trace retention is disabled (TraceRetain < 0)")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/api/traces")
	id = strings.TrimPrefix(id, "/")
	if id == "" {
		g.listTraces(w)
		return
	}
	c := g.recorder.Get(id)
	if c == nil {
		httpError(w, http.StatusNotFound, "no retained trace %q (evicted, never captured, or still in flight)", id)
		return
	}
	writeJSON(w, http.StatusOK, captureDetail(c))
}

func (g *Gateway) listTraces(w http.ResponseWriter) {
	caps := g.recorder.List()
	out := make([]traceSummary, 0, len(caps))
	for _, c := range caps {
		s := traceSummary{
			ID:         c.ID,
			Name:       c.Name,
			Detail:     c.Detail,
			Start:      c.Start,
			DurationMS: ms(c.Duration),
			Detailed:   c.Detailed,
			Spans:      len(c.Spans),
			Dropped:    c.Dropped,
		}
		if len(c.Stages) > 0 {
			s.Stages = make(map[string]float64, len(c.Stages))
			for _, st := range c.Stages {
				s.Stages[st.Name] = ms(st.Duration)
			}
		}
		out = append(out, s)
	}
	writeJSON(w, http.StatusOK, out)
}

// captureDetail converts a flat capture (parent indices) into the
// nested span tree the detail endpoint serves.
func captureDetail(c *obs.TraceCapture) traceDetail {
	d := traceDetail{
		ID:         c.ID,
		Name:       c.Name,
		Detail:     c.Detail,
		Start:      c.Start,
		DurationMS: ms(c.Duration),
		Detailed:   c.Detailed,
		Dropped:    c.Dropped,
		Spans:      []*spanNode{},
		Stages:     make([]stageEntry, 0, len(c.Stages)),
		Plans:      c.Plans,
	}
	captureNS := c.Duration.Nanoseconds()
	nodes := make([]*spanNode, len(c.Spans))
	for i, sp := range c.Spans {
		nodes[i] = &spanNode{
			Name:       sp.Name,
			StartMS:    ms(time.Duration(sp.StartNS)),
			DurationMS: ms(sp.Duration(captureNS)),
			Open:       sp.Open(),
		}
		// Parents precede children in capture order, so the parent node
		// always exists by the time a child links to it.
		if sp.Parent >= 0 {
			p := nodes[sp.Parent]
			p.Children = append(p.Children, nodes[i])
		} else {
			d.Spans = append(d.Spans, nodes[i])
		}
	}
	for _, st := range c.Stages {
		d.Stages = append(d.Stages, stageEntry{Name: st.Name, DurationMS: ms(st.Duration), Count: st.Count})
	}
	return d
}

// recordTrace is the shared handler epilogue: observe the request
// latency on hist — with the trace ID attached as an exemplar when the
// trace is retained — and feed the flight recorder. A trace is
// retained when it was slow (past Config.SlowQuery) or when it was one
// of the TraceSample'd detailed traces. Returns whether the trace was
// retained, so callers can log the ID knowing it is resolvable.
func (g *Gateway) recordTrace(tr *obs.Trace, hist *obs.Histogram, elapsed time.Duration) bool {
	secs := elapsed.Seconds()
	slow := g.cfg.SlowQuery > 0 && elapsed >= g.cfg.SlowQuery
	if g.recorder == nil || (!slow && !tr.Detailed()) {
		hist.Observe(secs)
		return false
	}
	c := tr.Capture()
	g.recorder.Add(c)
	hist.ObserveExemplar(secs, c.ID)
	return true
}
