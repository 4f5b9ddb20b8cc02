package api

// Tests for the streaming query pipeline: chunked JSON-array parity
// with a materialized reference, NDJSON framing, gzip composition,
// first-byte-before-scan-completion (via a flushing recorder),
// mid-stream store-error truncation, topk/bottomk selection and its
// cache keying, API-key auth, and /api/stream backfill catch-up.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// newStreamTestGateway is newTestGateway plus access to the store.
func newStreamTestGateway(t *testing.T, cfg Config) (*tsdb.DB, *Gateway, *httptest.Server) {
	t.Helper()
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	g := New(db, nil, cfg)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		srv.Close()
		g.Close()
		db.Close()
	})
	return db, g, srv
}

// seedWide writes sensors×points 1s-cadence points straight into the
// store (validated shape, no HTTP round-trips).
func seedWide(t *testing.T, db *tsdb.DB, sensors, points int) {
	t.Helper()
	var batch []tsdb.RefPoint
	for s := 0; s < sensors; s++ {
		ref, err := db.Intern("air.co2", map[string]string{"sensor": fmt.Sprintf("w%03d", s), "city": "t"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < points; i++ {
			batch = append(batch, tsdb.RefPoint{Ref: ref,
				Point: tsdb.Point{Timestamp: 1488326400000 + int64(i)*1000, Value: float64(400 + s + i%7)}})
		}
	}
	if res := db.AppendRefs(batch); len(res.Errors) > 0 {
		t.Fatalf("seed errors: %v", res.Errors[0])
	}
}

const wideQuery = "/api/query?start=1488326400&end=1488330000&m=avg:air.co2{sensor=*}"

// wireResult is the decoded /api/query response shape: dps as the
// timestamp-keyed map the OpenTSDB wire format uses.
type wireResult struct {
	Metric string             `json:"metric"`
	Tags   map[string]string  `json:"tags"`
	DPS    map[string]float64 `json:"dps"`
}

// toWire converts a store result to the decoded wire shape.
func toWire(rs tsdb.ResultSeries) wireResult {
	w := wireResult{Metric: rs.Metric, Tags: rs.Tags, DPS: make(map[string]float64, len(rs.Points))}
	if w.Tags == nil {
		w.Tags = map[string]string{}
	}
	for _, p := range rs.Points {
		w.DPS[strconv.FormatInt(p.Timestamp, 10)] = p.Value
	}
	return w
}

// referenceResults materializes the query the buffered path would
// have produced, through the same store.
func referenceResults(t *testing.T, db *tsdb.DB) []wireResult {
	t.Helper()
	res, err := db.Execute(tsdb.Query{
		Metric: "air.co2", Tags: map[string]string{"sensor": "*"},
		Start: 1488326400000, End: 1488330000000, Aggregator: tsdb.AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]wireResult, 0, len(res))
	for _, rs := range res {
		out = append(out, toWire(rs))
	}
	return out
}

// sortResults orders series for comparison.
func sortResults(rs []wireResult) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Tags["sensor"] < rs[j].Tags["sensor"] })
}

// TestQueryStreamedParity: a >64KB response arrives chunked and
// decodes to exactly what the buffered path produced.
func TestQueryStreamedParity(t *testing.T) {
	db, _, srv := newStreamTestGateway(t, Config{CacheSize: -1})
	seedWide(t, db, 40, 120) // ~40 series × 120 dps ≈ well over 64KB

	resp, err := http.Get(srv.URL + wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if len(body) <= 64<<10 {
		t.Fatalf("test body only %d bytes; raise the seed so streaming is exercised past 64KB", len(body))
	}
	// No Content-Length on a streamed response: net/http chunks it.
	if resp.ContentLength != -1 {
		t.Errorf("ContentLength = %d, want -1 (chunked stream)", resp.ContentLength)
	}
	var got []wireResult
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("streamed body is not a JSON array: %v", err)
	}
	want := referenceResults(t, db)
	sortResults(got)
	sortResults(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed result differs from buffered reference (%d vs %d series)", len(got), len(want))
	}
}

// TestQueryNDJSON: Accept: application/x-ndjson switches framing to
// one series object per line, same content, correct content type.
func TestQueryNDJSON(t *testing.T) {
	db, _, srv := newStreamTestGateway(t, Config{CacheSize: -1})
	seedWide(t, db, 5, 20)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+wideQuery, nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ctNDJSON {
		t.Fatalf("Content-Type = %q, want %q", ct, ctNDJSON)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d NDJSON lines, want 5:\n%s", len(lines), body)
	}
	var got []wireResult
	for i, ln := range lines {
		var qr wireResult
		if err := json.Unmarshal([]byte(ln), &qr); err != nil {
			t.Fatalf("line %d is not a JSON object: %v (%q)", i, err, ln)
		}
		got = append(got, qr)
	}
	want := referenceResults(t, db)
	sortResults(got)
	sortResults(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("NDJSON content differs from the JSON-array result")
	}

	// A wildcard Accept must NOT opt into NDJSON.
	req2, _ := http.NewRequest(http.MethodGet, srv.URL+wideQuery, nil)
	req2.Header.Set("Accept", "*/*")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != ctJSON {
		t.Fatalf("wildcard Accept got Content-Type %q, want %q", ct, ctJSON)
	}
}

// TestQueryNDJSONGzip: gzip composes over the NDJSON stream.
func TestQueryNDJSONGzip(t *testing.T) {
	db, _, srv := newStreamTestGateway(t, Config{CacheSize: -1})
	seedWide(t, db, 5, 20)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+wideQuery, nil)
	req.Header.Set("Accept", "application/x-ndjson")
	req.Header.Set("Accept-Encoding", "gzip") // explicit: transport stays transparent-off
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(plain), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("gunzipped NDJSON has %d lines, want 5", len(lines))
	}
	for _, ln := range lines {
		var qr wireResult
		if err := json.Unmarshal([]byte(ln), &qr); err != nil {
			t.Fatalf("bad NDJSON line after gunzip: %v", err)
		}
	}
}

// flushRecorder records the body length at every Flush — how the
// push-policy test observes bytes reaching the wire mid-scan.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushLens []int
}

func (f *flushRecorder) Flush() { f.flushLens = append(f.flushLens, f.Body.Len()) }

// TestQueryStreamsBeforeScanCompletes pins the push policy: the first
// series is on the wire before the scan produces the second — first
// byte beats scan end — and after that the encoder pushes on a byte or
// time threshold, not per series.
func TestQueryStreamsBeforeScanCompletes(t *testing.T) {
	_, g, _ := newStreamTestGateway(t, Config{CacheSize: -1})

	mkSeries := func(i, points int) tsdb.ResultSeries {
		rs := tsdb.ResultSeries{Metric: "air.co2", Tags: map[string]string{"sensor": fmt.Sprintf("f%d", i)}}
		for j := 0; j < points; j++ {
			rs.Points = append(rs.Points, tsdb.Point{Timestamp: int64(i*points+j) * 1000, Value: float64(i) + 0.125})
		}
		return rs
	}
	// run answers one query whose scan yields n series of the given
	// size; flushedAtYield[i] is how many bytes had been flushed to the
	// recorder when series i was produced by the (still running) scan.
	run := func(n, points int) (rec *flushRecorder, flushedAtYield []int) {
		t.Helper()
		rec = &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
		g.exec = func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error {
			for i := 0; i < n; i++ {
				flushed := 0
				if k := len(rec.flushLens); k > 0 {
					flushed = rec.flushLens[k-1]
				}
				flushedAtYield = append(flushedAtYield, flushed)
				if err := yield(mkSeries(i, points)); err != nil {
					return err
				}
			}
			return nil
		}
		g.handleQuery(rec, httptest.NewRequest(http.MethodGet, wideQuery, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		var out []wireResult
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out) != n {
			t.Fatalf("final body invalid: %v (%d series, want %d)", err, len(out), n)
		}
		return rec, flushedAtYield
	}

	// Three tiny series: the first is flushed, alone, before the second
	// is produced; the other two ride out with the end of the stream.
	rec, at := run(3, 1)
	if at[1] == 0 || at[1] >= rec.Body.Len() {
		t.Fatalf("second yield saw %d flushed bytes of %d total; first series not on the wire first", at[1], rec.Body.Len())
	}
	if at[2] != at[1] {
		t.Fatalf("a tiny second series was pushed on its own: flushed %v", at)
	}
	if len(rec.flushLens) >= 3 {
		t.Fatalf("%d pushes for 3 tiny series, want fewer than one a series", len(rec.flushLens))
	}

	// A body well past flushBytes: more than one push before the end,
	// each but the first carrying at least the threshold, and still
	// fewer pushes than series.
	const n = 60
	rec, _ = run(n, 150)
	if rec.Body.Len() < 4*flushBytes {
		t.Fatalf("test body only %d bytes; raise the series size", rec.Body.Len())
	}
	mid := rec.flushLens[:len(rec.flushLens)-1]
	if len(mid) < 3 || len(rec.flushLens) >= n {
		t.Fatalf("%d pushes for %d series over %d bytes; want several, fewer than one a series", len(rec.flushLens), n, rec.Body.Len())
	}
	for i := 1; i < len(mid); i++ {
		if d := mid[i] - mid[i-1]; d < flushBytes {
			t.Fatalf("push %d carried %d bytes, under the %d-byte threshold: %v", i, d, flushBytes, rec.flushLens)
		}
	}

	// A slow scan: small series trickling in are pushed once flushEvery
	// has passed since the last push, however few bytes are pending.
	// The clock is the one series takes as an argument.
	rec = &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	enc := newStreamEncoder(rec, nil, "miss", false, false, false)
	defer enc.release()
	clock := time.Unix(1488326400, 0)
	for i, step := range []struct {
		after  time.Duration
		pushes int
	}{
		{0, 1},                      // the first series, at once
		{flushEvery / 2, 1},         // nothing is due
		{flushEvery/2 - 1, 1},       // a nanosecond short of the threshold
		{1, 2},                      // flushEvery since the first push
		{flushEvery - 1, 2},         // the threshold counts from the last push
		{flushEvery + time.Hour, 3}, // a stalled scan
	} {
		clock = clock.Add(step.after)
		if err := enc.series(toQueryResult(mkSeries(i, 1)), clock); err != nil {
			t.Fatal(err)
		}
		if len(rec.flushLens) != step.pushes {
			t.Fatalf("step %d (+%v): %d pushes, want %d", i, step.after, len(rec.flushLens), step.pushes)
		}
	}
}

// TestQueryMidStreamError: a failure — of the store, or of encoding a
// series — after bytes have reached the client must end the stream
// with an explicit truncation marker (and never cache the partial
// body); a failure before the first push is still a clean 500.
func TestQueryMidStreamError(t *testing.T) {
	_, g, srv := newStreamTestGateway(t, Config{CacheAlign: time.Hour})

	boom := errors.New("block decode failed")
	g.exec = func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error {
		if err := yield(tsdb.ResultSeries{
			Metric: "air.co2", Tags: map[string]string{"sensor": "ok"},
			Points: []tsdb.Point{{Timestamp: 1000, Value: 1}},
		}); err != nil {
			return err
		}
		return boom
	}

	get := func(accept string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+wideQuery, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}

	// JSON array: final element is the error marker.
	resp, body := get("")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (headers were already committed)", resp.StatusCode)
	}
	var raw []json.RawMessage
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatalf("truncated body is not valid JSON: %v\n%s", err, body)
	}
	if len(raw) != 2 {
		t.Fatalf("%d elements, want series + marker:\n%s", len(raw), body)
	}
	var marker errorBody
	if err := json.Unmarshal(raw[1], &marker); err != nil || !strings.Contains(marker.Error.Message, "truncated") {
		t.Fatalf("last element is not a truncation marker: %s", raw[1])
	}

	// The partial result must not have been cached.
	resp2, _ := get("")
	if c := resp2.Header.Get("X-Cache"); c != "miss" {
		t.Fatalf("partial body was served from cache (X-Cache=%s)", c)
	}

	// NDJSON: the marker is the final line.
	_, nd := get("application/x-ndjson")
	lines := strings.Split(strings.TrimRight(nd, "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "truncated") {
		t.Fatalf("NDJSON truncation marker missing:\n%s", nd)
	}

	// Failure before any series: clean 500, structured error body.
	g.exec = func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error { return boom }
	resp3, body3 := get("")
	if resp3.StatusCode != http.StatusInternalServerError {
		t.Fatalf("pre-stream failure status = %d, want 500", resp3.StatusCode)
	}
	if enc := resp3.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("500 carries Content-Encoding %q", enc)
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(body3), &eb); err != nil || eb.Error.Code != 500 {
		t.Fatalf("500 body not structured: %s", body3)
	}

	// A series that cannot be encoded (JSON has no NaN) fails the same
	// two ways. As the first series nothing has reached the client —
	// output is buffered until the first push — so it is a clean 500,
	// in either encoding, with no half-written series in the body.
	okSeries := func(sensor string) tsdb.ResultSeries {
		return tsdb.ResultSeries{Metric: "air.co2", Tags: map[string]string{"sensor": sensor},
			Points: []tsdb.Point{{Timestamp: 1000, Value: 1}}}
	}
	nanSeries := tsdb.ResultSeries{Metric: "air.co2", Tags: map[string]string{"sensor": "nan"},
		Points: []tsdb.Point{{Timestamp: 1000, Value: 1}, {Timestamp: 2000, Value: math.NaN()}}}
	g.exec = func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error { return yield(nanSeries) }
	for _, accept := range []string{"", ctNDJSON} {
		resp4, body4 := get(accept)
		if resp4.StatusCode != http.StatusInternalServerError || resp4.Header.Get("X-Cache") != "" {
			t.Fatalf("unencodable first series (Accept %q): status %d, X-Cache %q; want a clean 500",
				accept, resp4.StatusCode, resp4.Header.Get("X-Cache"))
		}
		if err := json.Unmarshal([]byte(body4), &eb); err != nil || !strings.Contains(eb.Error.Message, "unsupported value") {
			t.Fatalf("500 body for an unencodable series: %s", body4)
		}
	}
	// After a push the status is committed: the stream ends with the
	// marker, the series encoded before it intact — including one still
	// pending in the buffer — and nothing of the broken one.
	g.exec = func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error {
		for _, rs := range []tsdb.ResultSeries{okSeries("a"), okSeries("b"), nanSeries} {
			if err := yield(rs); err != nil {
				return err
			}
		}
		return nil
	}
	resp5, body5 := get("")
	if resp5.StatusCode != http.StatusOK {
		t.Fatalf("unencodable third series: status %d, want the committed 200", resp5.StatusCode)
	}
	raw = nil
	if err := json.Unmarshal([]byte(body5), &raw); err != nil || len(raw) != 3 {
		t.Fatalf("want two series and a marker, got %d elements (%v):\n%s", len(raw), err, body5)
	}
	if err := json.Unmarshal(raw[2], &marker); err != nil || !strings.Contains(marker.Error.Message, "unsupported value") || strings.Contains(body5, "nan") {
		t.Fatalf("stream did not end in a clean truncation marker:\n%s", body5)
	}
	if resp6, _ := get(""); resp6.Header.Get("X-Cache") != "miss" {
		t.Fatal("a truncated body was cached")
	}
}

// TestQueryTopK: the m=topk(...) syntax returns exactly K series with
// brute-force parity, bottomk the inverse, and the cache keys on K.
func TestQueryTopK(t *testing.T) {
	db, _, srv := newStreamTestGateway(t, Config{CacheAlign: time.Hour})
	seedWide(t, db, 8, 30) // sensor w007 has the highest values, w000 the lowest

	get := func(m string) []wireResult {
		t.Helper()
		resp, err := http.Get(srv.URL + "/api/query?start=1488326400&end=1488330000&m=" + m)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("m=%s status %d: %s", m, resp.StatusCode, body)
		}
		var out []wireResult
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	top2 := get("topk(2,avg:air.co2{sensor=*})")
	if len(top2) != 2 || top2[0].Tags["sensor"] != "w007" || top2[1].Tags["sensor"] != "w006" {
		t.Fatalf("topk(2) = %v", tagsOf(top2))
	}
	bot2 := get("bottomk(2,avg:air.co2{sensor=*})")
	if len(bot2) != 2 || bot2[0].Tags["sensor"] != "w000" || bot2[1].Tags["sensor"] != "w001" {
		t.Fatalf("bottomk(2) = %v", tagsOf(bot2))
	}

	// Brute-force parity: topk(K) must equal the K best-ranked series
	// of the unlimited query.
	full := get("avg:air.co2{sensor=*}")
	if len(full) != 8 {
		t.Fatalf("unlimited returned %d series", len(full))
	}
	scores := map[string]float64{}
	for _, qr := range full {
		var pts []tsdb.Point
		for _, v := range qr.DPS {
			pts = append(pts, tsdb.Point{Value: v})
		}
		scores[qr.Tags["sensor"]] = tsdb.SeriesScore(pts)
	}
	ref := append([]wireResult(nil), full...)
	sort.Slice(ref, func(i, j int) bool {
		return scores[ref[i].Tags["sensor"]] > scores[ref[j].Tags["sensor"]]
	})
	top3 := get("topk(3,avg:air.co2{sensor=*})")
	for i := 0; i < 3; i++ {
		if top3[i].Tags["sensor"] != ref[i].Tags["sensor"] {
			t.Fatalf("topk(3) rank %d = %s, want %s", i, top3[i].Tags["sensor"], ref[i].Tags["sensor"])
		}
		if !reflect.DeepEqual(top3[i].DPS, ref[i].DPS) {
			t.Fatalf("topk(3) rank %d points differ from reference", i)
		}
	}

	// Cache keys on K: topk(2) (already cached) stays 2 series on a
	// hit; topk(3) is its own entry, not a truncation or extension of
	// the other.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/query?start=1488326400&end=1488330000&m=topk(2,avg:air.co2{sensor=*})", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if c := resp.Header.Get("X-Cache"); c != "hit" {
		t.Fatalf("repeat topk(2) X-Cache = %s, want hit", c)
	}
	var hit []wireResult
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil || len(hit) != 2 {
		t.Fatalf("cached topk(2) returned %d series (%v)", len(hit), err)
	}
}

func tagsOf(rs []wireResult) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.Tags["sensor"])
	}
	return out
}

// TestQueryTopKPost: the JSON body form of topk/bottomk.
func TestQueryTopKPost(t *testing.T) {
	db, _, srv := newStreamTestGateway(t, Config{CacheSize: -1})
	seedWide(t, db, 6, 10)

	body := `{"start":1488326400,"end":1488330000,"queries":[{"aggregator":"avg","metric":"air.co2","tags":{"sensor":"*"},"topk":2}]}`
	resp, err := http.Post(srv.URL+"/api/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []wireResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Tags["sensor"] != "w005" {
		t.Fatalf("POST topk = %v", tagsOf(out))
	}

	// topk and bottomk together are rejected up front.
	bad := `{"start":1,"queries":[{"aggregator":"avg","metric":"air.co2","topk":2,"bottomk":2}]}`
	resp2, err := http.Post(srv.URL+"/api/query", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("topk+bottomk status = %d, want 400", resp2.StatusCode)
	}
}

// TestAPIKeyAuth: with a key configured, data endpoints demand
// X-API-Key, failures are counted on /metrics, and ops endpoints
// stay open.
func TestAPIKeyAuth(t *testing.T) {
	g, srv := newTestGateway(t, Config{APIKey: "sekrit"})

	do := func(method, path, key string, body string) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, _ := http.NewRequest(method, srv.URL+path, rd)
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	pt := `{"metric":"air.co2","timestamp":1488326400,"value":1,"tags":{"sensor":"n1"}}`
	if r := do(http.MethodPost, "/api/put", "", pt); r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated put = %d, want 401", r.StatusCode)
	}
	if r := do(http.MethodGet, "/api/query?start=1&m=avg:air.co2", "wrong", ""); r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-key query = %d, want 401", r.StatusCode)
	}
	if r := do(http.MethodPost, "/api/put", "sekrit", pt); r.StatusCode != http.StatusNoContent {
		t.Fatalf("authenticated put = %d, want 204", r.StatusCode)
	}
	waitIngested(t, g, 1)
	if r := do(http.MethodGet, "/api/query?start=1&m=avg:air.co2", "sekrit", ""); r.StatusCode != http.StatusOK {
		t.Fatalf("authenticated query = %d, want 200", r.StatusCode)
	}
	// /api/inflight exposes live request URIs (query params and all),
	// so it is gated like the data endpoints, not open like /healthz.
	if r := do(http.MethodGet, "/api/inflight", "", ""); r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated inflight = %d, want 401", r.StatusCode)
	}
	if r := do(http.MethodGet, "/api/inflight", "sekrit", ""); r.StatusCode != http.StatusOK {
		t.Fatalf("authenticated inflight = %d, want 200", r.StatusCode)
	}
	// /api/traces replays full request URIs too — same gate.
	if r := do(http.MethodGet, "/api/traces", "", ""); r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated traces = %d, want 401", r.StatusCode)
	}
	if r := do(http.MethodGet, "/api/traces", "sekrit", ""); r.StatusCode != http.StatusOK {
		t.Fatalf("authenticated traces = %d, want 200", r.StatusCode)
	}
	if r := do(http.MethodGet, "/healthz", "", ""); r.StatusCode != http.StatusOK {
		t.Fatalf("/healthz gated = %d, want open", r.StatusCode)
	}

	mr := do(http.MethodGet, "/metrics", "", "")
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics gated = %d, want open", mr.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mr.Body)
	if !strings.Contains(buf.String(), "ctt_auth_failures_total 4") {
		t.Fatalf("/metrics missing auth failure count:\n%s", buf.String())
	}
}

// TestStreamBackfill: backfill=<dur> replays the stored window as
// "event: backfill" frames before the ": live" switch, then keeps
// pushing live events on the same connection.
func TestStreamBackfill(t *testing.T) {
	now := time.Date(2017, time.March, 1, 12, 0, 0, 0, time.UTC)
	db, g, srv := newStreamTestGateway(t, Config{
		Heartbeat: time.Hour,
		Now:       func() time.Time { return now },
	})

	// Five historical points 10 minutes back, plus one outside the
	// backfill window.
	hist := now.Add(-10 * time.Minute).UnixMilli()
	ref, err := db.Intern("air.co2", map[string]string{"sensor": "bf"})
	if err != nil {
		t.Fatal(err)
	}
	var batch []tsdb.RefPoint
	for i := 0; i < 5; i++ {
		batch = append(batch, tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: hist + int64(i)*1000, Value: float64(i)}})
	}
	batch = append(batch, tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: now.Add(-3 * time.Hour).UnixMilli(), Value: 99}})
	if res := db.AppendRefs(batch); len(res.Errors) > 0 {
		t.Fatal(res.Errors[0])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/api/stream?metric=air.&backfill=1h", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	var backfilled []streamEvent
	sawLive := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ": live"):
			sawLive = true
		case strings.HasPrefix(line, "data: "):
			var ev streamEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
			backfilled = append(backfilled, ev)
		}
		if sawLive {
			break
		}
	}
	if !sawLive {
		t.Fatalf("no ': live' switch seen: %v", sc.Err())
	}
	if len(backfilled) != 5 {
		t.Fatalf("backfill replayed %d events, want 5 (window must exclude the 3h-old point)", len(backfilled))
	}
	for i, ev := range backfilled {
		if ev.Timestamp != hist+int64(i)*1000 {
			t.Fatalf("backfill event %d at %d, want %d (ordered replay)", i, ev.Timestamp, hist+int64(i)*1000)
		}
	}

	// Live events still flow after the catch-up.
	if err := g.Enqueue([]tsdb.DataPoint{{
		Metric: "air.co2", Tags: map[string]string{"sensor": "bf"},
		Point: tsdb.Point{Timestamp: now.UnixMilli(), Value: 415},
	}}); err != nil {
		t.Fatal(err)
	}
	gotLive := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			var ev streamEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Value == 415 {
				gotLive = true
				break
			}
		}
	}
	if !gotLive {
		t.Fatalf("live event not delivered after backfill: %v", sc.Err())
	}

	// A malformed backfill duration is a 400, not an open stream.
	resp2, err := http.Get(srv.URL + "/api/stream?backfill=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad backfill status = %d, want 400", resp2.StatusCode)
	}
}

// TestQueryStructuredErrors: malformed queries — including every
// topk/bottomk mis-spelling — are 400s with the structured error
// envelope, decided before any stream bytes.
func TestQueryStructuredErrors(t *testing.T) {
	_, srv := newTestGateway(t, Config{})
	for _, tc := range []string{
		"/api/query?start=1&m=nope:air.x",                          // unknown aggregator
		"/api/query?start=1&m=avg",                                 // no metric
		"/api/query?start=1&m=avg:1h-bogus:air.x",                  // bad downsample fn
		"/api/query?start=1&m=topk(0,avg:air.x)",                   // zero count
		"/api/query?start=1&m=topk(-2,avg:air.x)",                  // negative count
		"/api/query?start=1&m=topk(x,avg:air.x)",                   // non-numeric count
		"/api/query?start=1&m=topk(2)",                             // no inner spec
		"/api/query?start=1&m=topk(2,avg:air.x",                    // unterminated
		"/api/query?start=1&m=bottomk(2,topk(2,avg:air.x))",        // nested selection
		"/api/query?start=1&m=topk(2,nope:air.x)",                  // bad inner aggregator
		"/api/query?start=2000000000&end=1000000000&m=avg:air.x",   // inverted range
		"/api/query?start=1&m=" + strings.Repeat("topk(2,", 1)[:6], // mangled prefix "topk(2"
	} {
		resp, err := http.Get(srv.URL + tc)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc, resp.StatusCode, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != 400 || eb.Error.Message == "" {
			t.Errorf("%s: error body not structured: %s", tc, body)
		}
	}
}
