package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rollup"
	"repro/internal/tsdb"
)

// renderTS is the start of the panel tests' data: one point a minute
// for six hours on two sensors.
const renderTS = int64(1488326400000)

func renderStore(t *testing.T, cfg Config) (*Gateway, *tsdb.DB) {
	t.Helper()
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	var rps []tsdb.RefPoint
	for _, sensor := range []string{"a", "b"} {
		ref, err := db.Intern("panel.co2", map[string]string{"sensor": sensor})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 360; i++ {
			rps = append(rps, tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: renderTS + i*60000, Value: 400 + float64(i%17)}})
		}
	}
	if res := db.AppendRefs(rps); len(res.Errors) > 0 {
		t.Fatal(res.Errors[0].Err)
	}
	g := New(db, nil, cfg)
	t.Cleanup(func() {
		g.Close()
		db.Close()
	})
	return g, db
}

func panelQuery() tsdb.Query {
	return tsdb.Query{
		Metric: "panel.co2", Tags: map[string]string{"sensor": "*"},
		Start: renderTS, End: renderTS + 6*3600000,
		Aggregator: tsdb.AggAvg, Downsample: time.Hour,
	}
}

// drawSeries is a stand-in renderer: the series and their points as
// text, counting how often it runs.
func drawSeries(calls *int) func([]tsdb.ResultSeries) []byte {
	return func(res []tsdb.ResultSeries) []byte {
		*calls++
		var b bytes.Buffer
		for _, rs := range res {
			fmt.Fprintf(&b, "%s%v:", rs.Metric, rs.Tags)
			for _, p := range rs.Points {
				fmt.Fprintf(&b, " %d=%g", p.Timestamp, p.Value)
			}
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
}

// uncachedRender is what a panel renders when read from the store
// directly.
func uncachedRender(t *testing.T, db *tsdb.DB, q tsdb.Query) []byte {
	t.Helper()
	var res []tsdb.ResultSeries
	if err := db.ExecuteStream(q, func(rs tsdb.ResultSeries) error {
		res = append(res, rs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var calls int
	return drawSeries(&calls)(res)
}

func render(t *testing.T, g *Gateway, kind string, q tsdb.Query, calls *int) []byte {
	t.Helper()
	body, err := g.Render(kind, q, drawSeries(calls))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRenderCacheHit: a repeated panel is served from the cache — the
// same bytes, render not run again, one more hit on the cache's
// counter — and a different kind over the same query is its own entry.
func TestRenderCacheHit(t *testing.T) {
	g, db := renderStore(t, Config{})
	var calls int
	first := render(t, g, "/panel/co2.svg", panelQuery(), &calls)
	if want := uncachedRender(t, db, panelQuery()); !bytes.Equal(first, want) || len(first) == 0 {
		t.Fatalf("rendered %q, want the uncached render %q", first, want)
	}
	hits, _, _ := g.cache.stats()
	if again := render(t, g, "/panel/co2.svg", panelQuery(), &calls); !bytes.Equal(again, first) {
		t.Fatalf("repeat rendered %q, want %q", again, first)
	}
	if h, _, _ := g.cache.stats(); calls != 1 || h != hits+1 {
		t.Fatalf("repeat: %d renders and %d more hits, want 1 render and 1 hit", calls, h-hits)
	}
	render(t, g, "/panel/other.svg", panelQuery(), &calls)
	if calls != 2 {
		t.Fatalf("a second kind over the same query rendered %d times in all, want 2", calls)
	}
	if _, err := g.Render("/panel/bad.svg", tsdb.Query{Metric: "panel.co2", Aggregator: "nope"}, drawSeries(&calls)); err == nil {
		t.Fatal("a query with an unknown aggregator rendered")
	}
}

// TestRenderInvalidatedByWrite: a write inside the panel's window drops
// the entry, so the next render equals a fresh uncached one; a write
// outside it does not.
func TestRenderInvalidatedByWrite(t *testing.T) {
	g, db := renderStore(t, Config{CacheAlign: time.Hour})
	var calls int
	before := render(t, g, "/panel/co2.svg", panelQuery(), &calls)
	ref, err := db.Intern("panel.co2", map[string]string{"sensor": "a"})
	if err != nil {
		t.Fatal(err)
	}
	db.AppendRefs([]tsdb.RefPoint{{Ref: ref, Point: tsdb.Point{Timestamp: renderTS + 9*60000 + 30000, Value: 9000}}})
	after := render(t, g, "/panel/co2.svg", panelQuery(), &calls)
	if calls != 2 || bytes.Equal(after, before) {
		t.Fatalf("after a write in the window: %d renders, body changed %v; want 2 renders and a new body", calls, !bytes.Equal(after, before))
	}
	if want := uncachedRender(t, db, panelQuery()); !bytes.Equal(after, want) {
		t.Fatalf("after a write in the window rendered %q, want the uncached render %q", after, want)
	}
	db.AppendRefs([]tsdb.RefPoint{{Ref: ref, Point: tsdb.Point{Timestamp: renderTS + 7*3600000, Value: 1}}})
	if render(t, g, "/panel/co2.svg", panelQuery(), &calls); calls != 2 {
		t.Fatal("a write outside the window invalidated the panel")
	}
}

// TestRenderFillPoisoning: a write that lands while the panel's query
// reads the store keeps what was read out of the cache — the render
// is served once, and the next request reads the store again.
func TestRenderFillPoisoning(t *testing.T) {
	g, db := renderStore(t, Config{})
	ref, err := db.Intern("panel.co2", map[string]string{"sensor": "b"})
	if err != nil {
		t.Fatal(err)
	}
	exec := g.exec
	g.exec = func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error {
		err := exec(q, yield)
		db.AppendRefs([]tsdb.RefPoint{{Ref: ref, Point: tsdb.Point{Timestamp: renderTS + 3600000 + 1, Value: 7}}})
		return err
	}
	var calls int
	stale := render(t, g, "/panel/co2.svg", panelQuery(), &calls)
	g.exec = exec
	fresh := render(t, g, "/panel/co2.svg", panelQuery(), &calls)
	if calls != 2 {
		t.Fatalf("%d renders, want 2: the poisoned fill was cached", calls)
	}
	if bytes.Equal(stale, fresh) {
		t.Fatal("the write during the fill did not change the panel")
	}
	if n := g.cache.fillCount.Load(); n != 0 {
		t.Errorf("fillCount = %d after the fills ended, want 0", n)
	}
}

// TestRenderBesideQuery: a panel and the /api/query answer to the same
// question are two entries that do not displace each other.
func TestRenderBesideQuery(t *testing.T) {
	g, _ := renderStore(t, Config{})
	h := g.Handler()
	url := "/api/query?start=" + strconv.FormatInt(renderTS, 10) + "&end=" + strconv.FormatInt(renderTS+6*3600000, 10) + "&m=avg:1h-avg:panel.co2{sensor=*}"
	query := func() (string, []byte) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Header().Get("X-Cache"), rec.Body.Bytes()
	}
	var calls int
	if c, _ := query(); c != "miss" {
		t.Fatalf("first query: X-Cache %s", c)
	}
	panel := render(t, g, "/panel/co2.svg", panelQuery(), &calls)
	c, body := query()
	if c != "hit" {
		t.Fatalf("query after the panel: X-Cache %s, want hit", c)
	}
	if again := render(t, g, "/panel/co2.svg", panelQuery(), &calls); calls != 1 || !bytes.Equal(again, panel) {
		t.Fatalf("panel after the query: %d renders, want 1 and the same bytes", calls)
	}
	if bytes.Equal(body, panel) {
		t.Fatal("the panel entry served the JSON answer")
	}
	if n, _ := g.cache.size(); n != 2 {
		t.Fatalf("%d cache entries, want the JSON answer and the panel", n)
	}
}

// TestRenderEviction: panel bytes count against the cache's byte
// bound like JSON bodies, and a panel bigger than one entry is served
// but never kept.
func TestRenderEviction(t *testing.T) {
	g, _ := renderStore(t, Config{CacheSize: 1000})
	calls := 0
	big := func(n int) func([]tsdb.ResultSeries) []byte {
		return func([]tsdb.ResultSeries) []byte {
			calls++
			return make([]byte, n)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := g.Render(fmt.Sprintf("/panel/p%03d.svg", i), panelQuery(), big(maxCacheBody)); err != nil {
			t.Fatal(err)
		}
		if _, b := g.cache.size(); b > maxCacheBytes {
			t.Fatalf("after %d panels the cache holds %d bytes, bound %d", i+1, b, maxCacheBytes)
		}
	}
	if g.Render("/panel/p000.svg", panelQuery(), big(maxCacheBody)); calls != 101 {
		t.Error("the oldest panel survived byte-bound eviction")
	}
	n, _ := g.cache.size()
	body, err := g.Render("/panel/huge.svg", panelQuery(), big(maxCacheBody+1))
	if err != nil || len(body) != maxCacheBody+1 {
		t.Fatalf("oversized panel: %d bytes, %v", len(body), err)
	}
	if m, _ := g.cache.size(); m != n {
		t.Fatal("an oversized panel was cached")
	}
}

// TestRenderObservable: a panel is an obs trace named "panel" — in
// /api/inflight while it reads, then in the flight recorder and the
// slow-query log with the planner's decision, here the rollup tier.
func TestRenderObservable(t *testing.T) {
	var buf syncBuffer
	now := time.UnixMilli(renderTS + 7*3600000)
	g, db := renderStore(t, Config{
		SlowQuery: time.Nanosecond, // everything is slow, so retained
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
		Now:       func() time.Time { return now },
	})
	eng, err := rollup.New(db, rollup.Config{Grace: time.Minute, FlushEvery: -1, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Flush(now)
	h := g.Handler()

	// In flight: park the store read and look.
	release, entered := make(chan struct{}), make(chan struct{})
	exec := g.exec
	g.exec = func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error {
		close(entered)
		<-release
		return exec(q, yield)
	}
	done := make(chan error)
	var calls int
	go func() {
		_, err := g.Render("/panel/co2.svg", panelQuery(), drawSeries(&calls))
		done <- err
	}()
	<-entered
	var live []struct{ Name, Detail string }
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/inflight", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &live); err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || live[0].Name != "panel" || live[0].Detail != "/panel/co2.svg" {
		t.Errorf("inflight = %+v, want the panel", live)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var list []struct{ ID, Name, Detail string }
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/traces", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "panel" || list[0].Detail != "/panel/co2.svg" {
		t.Fatalf("/api/traces = %+v, want the panel", list)
	}
	line := buf.String()
	for _, field := range []string{"slow query", "uri=/panel/co2.svg", "trace_id=" + list[0].ID, "cache=miss", "series=2", "scan", "render"} {
		if !strings.Contains(line, field) {
			t.Errorf("slow-query line missing %q: %s", field, line)
		}
	}
	if !strings.Contains(line, "planner=rollup") && !strings.Contains(line, "planner=mixed") {
		t.Errorf("slow-query line does not show the rollup tier serving the panel: %s", line)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if body, _ := io.ReadAll(rec.Body); !strings.Contains(string(body), `ctt_http_request_seconds_count{endpoint="panel"} 1`) {
		t.Errorf("/metrics does not count the panel under endpoint=\"panel\"")
	}
}

// TestRenderConcurrent: panels rendered from several goroutines while
// writes land in their window never leave a stale entry behind — once
// the writes stop, the panel is what the store says.
func TestRenderConcurrent(t *testing.T) {
	g, db := renderStore(t, Config{CacheAlign: time.Hour})
	ref, err := db.Intern("panel.co2", map[string]string{"sensor": "a"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := g.Render("/panel/co2.svg", panelQuery(), drawSeries(new(int))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := int64(0); i < 100; i++ {
		db.AppendRefs([]tsdb.RefPoint{{Ref: ref, Point: tsdb.Point{Timestamp: renderTS + i*3000 + 7, Value: float64(i)}}})
	}
	wg.Wait()
	if got, want := render(t, g, "/panel/co2.svg", panelQuery(), new(int)), uncachedRender(t, db, panelQuery()); !bytes.Equal(got, want) {
		t.Fatalf("after concurrent renders and writes the panel is stale:\n got %q\nwant %q", got, want)
	}
}
