// Package dashboard is the visualization platform of the paper's
// Fig. 6 and Fig. 8 (implemented there on Apache Zeppelin + OpenTSDB):
// an HTTP server whose panels are declaratively bound to time-series
// queries, serving rendered SVG charts, a live network map, JSON panel
// and alarm APIs, and a combined "wall display" view. Attendees of the
// demo "can vary system and analysis properties, and observe the
// reflection on the dashboard" — a panel is re-rendered whenever data
// arriving through the pipeline lands in its window, so it shows up
// immediately.
package dashboard

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataport"
	"repro/internal/sensors"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// Panel binds a chart to a TSDB query over a trailing window.
type Panel struct {
	Name   string // URL-safe identifier
	Title  string
	Metric string
	Tags   map[string]string
	Agg    tsdb.Aggregator
	// Downsample interval for rendering (0 = raw).
	Downsample time.Duration
	// Window is the trailing time range shown.
	Window time.Duration
	// YLabel annotates the chart.
	YLabel string
	// TopK, when >0, renders only the K series ranking highest by
	// mean value — keeps a group-by panel over hundreds of sensors
	// readable (and cheap: only K series are ever materialized).
	TopK int
}

// Server is the dashboard HTTP server.
type Server struct {
	db *tsdb.DB
	dp *dataport.Dataport // optional: enables /network.svg and alarms

	mu     sync.Mutex
	panels []Panel
	now    func() time.Time

	// selfPrefix is the metric namespace the /ops page charts — the
	// self-scrape loop's -self-prefix. Empty selects "ctt.self".
	selfPrefix string

	// SendCommand, when set, enables the C&C endpoint
	// POST /api/command — the dashboard becomes the command-and-
	// control surface the paper's pipeline feeds ("up to C&C
	// centers", §2.1). It receives a device ID and a downlink payload.
	SendCommand func(devID string, payload []byte) error

	// Render answers a panel: it runs the query, hands the result
	// series to render and returns the bytes. New sets it to read the
	// store directly and render every request; ctt-server points it at
	// api.Gateway.Render, the gateway's read path, which caches the
	// bytes until a write lands in the query's range.
	Render func(kind string, q tsdb.Query, render func([]tsdb.ResultSeries) []byte) ([]byte, error)

	srv *http.Server
	ln  net.Listener
}

// New creates a dashboard over a database. dp may be nil.
func New(db *tsdb.DB, dp *dataport.Dataport) *Server {
	s := &Server{db: db, dp: dp, now: time.Now}
	s.Render = s.renderStore
	return s
}

// renderStore is the default Render: one store read, one render.
func (s *Server) renderStore(_ string, q tsdb.Query, render func([]tsdb.ResultSeries) []byte) ([]byte, error) {
	var res []tsdb.ResultSeries
	if err := s.db.ExecuteStream(q, func(rs tsdb.ResultSeries) error {
		res = append(res, rs)
		return nil
	}); err != nil {
		return nil, err
	}
	return render(res), nil
}

// SetNow injects the simulation clock so trailing windows work on
// simulated time.
func (s *Server) SetNow(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// SetSelfPrefix points the /ops page at the metric namespace the
// self-scrape loop writes under.
func (s *Server) SetSelfPrefix(prefix string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.selfPrefix = prefix
}

// AddPanel registers a panel. Panels render in registration order.
func (s *Server) AddPanel(p Panel) error {
	if p.Name == "" || strings.ContainsAny(p.Name, "/ ") {
		return fmt.Errorf("dashboard: bad panel name %q", p.Name)
	}
	if !p.Agg.Valid() {
		return fmt.Errorf("dashboard: bad aggregator %q", p.Agg)
	}
	if p.Window <= 0 {
		p.Window = 24 * time.Hour
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, existing := range s.panels {
		if existing.Name == p.Name {
			return fmt.Errorf("dashboard: duplicate panel %q", p.Name)
		}
	}
	s.panels = append(s.panels, p)
	return nil
}

// Panels returns the registered panels.
func (s *Server) Panels() []Panel {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Panel(nil), s.panels...)
}

// Handler returns the HTTP handler (usable without a listener).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/panel/", s.handlePanelSVG)
	mux.HandleFunc("/network.svg", s.handleNetworkSVG)
	mux.HandleFunc("/wall", s.handleWall)
	mux.HandleFunc("/live", s.handleLive)
	mux.HandleFunc("/ops", s.handleOps)
	mux.HandleFunc("/api/panels", s.handlePanels)
	mux.HandleFunc("/api/alarms", s.handleAlarms)
	mux.HandleFunc("/api/metrics", s.handleMetrics)
	mux.HandleFunc("/api/command", s.handleCommand)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	return mux
}

// Start serves on addr until Close.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dashboard: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln)
	return ln.Addr(), nil
}

// Close stops the server.
func (s *Server) Close() error {
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

func (s *Server) clock() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now()
}

// panelQuery is the store query behind a panel: its trailing window
// ending now.
func (s *Server) panelQuery(p Panel) tsdb.Query {
	now := s.clock()
	return tsdb.Query{
		Metric:      p.Metric,
		Tags:        p.Tags,
		Start:       now.Add(-p.Window).UnixMilli(),
		End:         now.UnixMilli(),
		Aggregator:  p.Agg,
		Downsample:  p.Downsample,
		SeriesLimit: p.TopK,
	}
}

// panelSeries converts a panel's query result to viz series.
func panelSeries(res []tsdb.ResultSeries) []viz.Series {
	var out []viz.Series
	for _, rs := range res {
		name := rs.Metric
		if len(rs.Tags) > 0 {
			keys := make([]string, 0, len(rs.Tags))
			for k := range rs.Tags {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var parts []string
			for _, k := range keys {
				parts = append(parts, k+"="+rs.Tags[k])
			}
			name += "{" + strings.Join(parts, ",") + "}"
		}
		vs := viz.Series{Name: name}
		for _, pt := range rs.Points {
			vs.Times = append(vs.Times, pt.Time())
			vs.Values = append(vs.Values, pt.Value)
		}
		out = append(out, vs)
	}
	return out
}

// --- handlers ----------------------------------------------------------

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>CTT dashboards</title>
<style>body{font-family:sans-serif;margin:20px}.panel{margin-bottom:24px}</style>
</head><body>
<h1>CTT — air quality &amp; traffic dashboards</h1>
<p><a href="/wall">wall display</a> · <a href="/live">live feed</a> · <a href="/ops">ops</a> · <a href="/network.svg">network map</a> · <a href="/api/alarms">alarms</a></p>
{{range .}}<div class="panel"><h2>{{.Title}}</h2><img src="/panel/{{.Name}}.svg" alt="{{.Title}}"/></div>
{{end}}</body></html>`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	indexTmpl.Execute(w, s.Panels())
}

func (s *Server) handlePanelSVG(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/panel/"), ".svg")
	var panel *Panel
	for _, p := range s.Panels() {
		if p.Name == name {
			pp := p
			panel = &pp
			break
		}
	}
	if panel == nil {
		http.Error(w, "unknown panel", http.StatusNotFound)
		return
	}
	render := func(res []tsdb.ResultSeries) []byte {
		return viz.LineChartSVG(panelSeries(res), viz.ChartOptions{
			Title: panel.Title, YLabel: panel.YLabel, Width: 800, Height: 300,
		})
	}
	svg, err := s.Render("/panel/"+panel.Name+".svg", s.panelQuery(*panel), render)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Write(svg)
}

func (s *Server) handleNetworkSVG(w http.ResponseWriter, r *http.Request) {
	if s.dp == nil {
		http.Error(w, "no dataport attached", http.StatusNotFound)
		return
	}
	snap, err := s.dp.Snapshot(s.clock())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Write(viz.NetworkMapSVG(snap, 800, 600))
}

var wallTmpl = template.Must(template.New("wall").Parse(`<!DOCTYPE html>
<html><head><title>CTT wall display</title>
<style>body{background:#111;color:#eee;font-family:sans-serif;margin:0;padding:12px}
.grid{display:flex;flex-wrap:wrap;gap:12px}.cell{background:#fff;border-radius:4px;padding:4px}</style>
</head><body><h1>CTT network monitoring &amp; data</h1><div class="grid">
<div class="cell"><img src="/network.svg" width="780"/></div>
{{range .}}<div class="cell"><img src="/panel/{{.Name}}.svg"/></div>
{{end}}</div></body></html>`))

func (s *Server) handleWall(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	wallTmpl.Execute(w, s.Panels())
}

func (s *Server) handlePanels(w http.ResponseWriter, r *http.Request) {
	type panelJSON struct {
		Name, Title, Metric string
		Agg                 string
		WindowSeconds       float64
	}
	var out []panelJSON
	for _, p := range s.Panels() {
		out = append(out, panelJSON{
			Name: p.Name, Title: p.Title, Metric: p.Metric,
			Agg: string(p.Agg), WindowSeconds: p.Window.Seconds(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleAlarms(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.dp == nil {
		w.Write([]byte("[]"))
		return
	}
	log := s.dp.AlarmLog()
	if log == nil {
		log = []dataport.Alarm{}
	}
	json.NewEncoder(w).Encode(log)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.db.Metrics())
}

// handleCommand serves POST /api/command?device=ID with one of:
//
//	interval=<minutes>   — change the node's reporting interval
//	lowbattery=<pct>     — change the adaptive-interval threshold
//
// The command travels the downlink path (TTN queue → class-A window)
// via the injected SendCommand func.
func (s *Server) handleCommand(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.SendCommand == nil {
		http.Error(w, "command channel not configured", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	dev := q.Get("device")
	if dev == "" {
		http.Error(w, "device required", http.StatusBadRequest)
		return
	}
	var payload []byte
	if v := q.Get("interval"); v != "" {
		minutes, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad interval", http.StatusBadRequest)
			return
		}
		p, err := sensors.EncodeSetInterval(minutes)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		payload = append(payload, p...)
	}
	if v := q.Get("lowbattery"); v != "" {
		pct, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad lowbattery", http.StatusBadRequest)
			return
		}
		p, err := sensors.EncodeSetLowBattery(pct)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		payload = append(payload, p...)
	}
	if len(payload) == 0 {
		http.Error(w, "no command given (interval= or lowbattery=)", http.StatusBadRequest)
		return
	}
	if err := s.SendCommand(dev, payload); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"queued":true,"device":%q,"bytes":%d}`, dev, len(payload))
}
