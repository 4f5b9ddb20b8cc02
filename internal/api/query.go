package api

// Query path: GET /api/query with OpenTSDB metric specs
// (m=avg:1h-avg:rate:air.co2{sensor=*}, optionally wrapped in
// topk(5,...) / bottomk(5,...) server-side selection) or POST with a
// JSON request body. Requests are validated up front (a malformed
// query is a 400 with a structured error body, never a partial 200);
// results then stream to the client series by series — chunked JSON
// array or NDJSON — through internal/api/encode.go, and completed
// streams land in an LRU cache keyed on the canonical query (including
// K and the response framing) and the time range aligned to
// Config.CacheAlign, so repeated dashboard polls within one alignment
// bucket cost one store read.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

// subQuery is one metric selection within a query request.
type subQuery struct {
	Aggregator string            `json:"aggregator"`
	Metric     string            `json:"metric"`
	Tags       map[string]string `json:"tags"`
	Downsample string            `json:"downsample"` // "1h-avg"
	Rate       bool              `json:"rate"`
	// TopK/BottomK, when >0, keep only the K series ranking highest or
	// lowest by the mean of their result points (at most one of the
	// two). GET form: m=topk(5,sum:air.co2{sensor=*}).
	TopK    int `json:"topk"`
	BottomK int `json:"bottomk"`
}

// queryRequest is the POST /api/query body.
type queryRequest struct {
	Start   json.RawMessage `json:"start"`
	End     json.RawMessage `json:"end"`
	Queries []subQuery      `json:"queries"`
}

// queryResult is one output series, OpenTSDB-style: dps maps the
// timestamp (milliseconds, as a string key) to the value. The result
// keeps the store's point slice and serializes it directly — building
// the dps object append-only in timestamp order instead of through a
// map[string]float64, whose per-key string allocations and marshal-
// time key sort dominated cold-query encoding cost.
type queryResult struct {
	Metric string
	Tags   map[string]string
	Points []tsdb.Point
}

// MarshalJSON renders the OpenTSDB wire shape; the streaming encoder
// calls appendJSON directly.
func (qr queryResult) MarshalJSON() ([]byte, error) {
	return qr.appendJSON(make([]byte, 0, 64+len(qr.Points)*24))
}

// appendJSON appends the OpenTSDB wire shape to b, byte for byte what
// encoding/json renders for the equivalent struct of string, sorted
// map and timestamp-keyed object: {"metric":…,"tags":{…},"dps":{…}}.
// Duplicate timestamps keep the last value, matching the old map
// semantics. It allocates nothing once b has room.
func (qr queryResult) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"metric":`...)
	b = appendJSONString(b, qr.Metric)
	b = append(b, `,"tags":{`...)
	var arr [8]string
	keys := arr[:0]
	for k := range qr.Tags {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, k)
		b = append(b, ':')
		b = appendJSONString(b, qr.Tags[k])
	}
	b = append(b, `},"dps":{`...)
	first := true
	for i, p := range qr.Points {
		if i+1 < len(qr.Points) && qr.Points[i+1].Timestamp == p.Timestamp {
			continue // duplicate key: last wins, like the old map
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '"')
		b = strconv.AppendInt(b, p.Timestamp, 10)
		b = append(b, '"', ':')
		var err error
		if b, err = appendJSONFloat(b, p.Value); err != nil {
			return nil, err
		}
	}
	return append(b, '}', '}'), nil
}

// appendJSONString appends s as encoding/json renders a string. Series
// names are validated at ingest to a plain ASCII alphabet, which is
// quoted as is; anything that needs escaping takes the library's path.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends a float the way encoding/json renders
// float64 values (shortest round-trip digits in 'f' format, switching
// to exponent form outside [1e-6, 1e21) and trimming the two-digit
// exponent's leading zero), so streamed bodies stay byte-compatible
// with reflective marshaling.
//
// Sensor readings are decimals of at most three places, and for those
// the shortest form needs no search: when f is exactly the double
// nearest r/1000 for an integer r below 1e15, the at most 15
// significant digits of r/1000 are the only decimal that short to
// round-trip to f, hence what strconv's shortest formatter prints —
// r with a point three from the right, trailing zeros cut. Everything
// else (−0, which prints its sign; values under 1e-3, whose digits sit
// further right) goes through strconv.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("unsupported value: %v", f)
	}
	abs := math.Abs(f)
	if r := math.Round(abs * 1000); r < 1e15 && r/1000 == abs && (abs >= 1e-3 || (f == 0 && !math.Signbit(f))) {
		if f < 0 {
			b = append(b, '-')
		}
		u := uint64(r)
		b = strconv.AppendUint(b, u/1000, 10)
		if frac := u % 1000; frac != 0 {
			b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
			for b[len(b)-1] == '0' {
				b = b[:len(b)-1]
			}
		}
		return b, nil
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// queryState carries what the slow-query log needs out of a request.
type queryState struct {
	cacheStatus string
	series      int
	points      int
}

// startTrace opens the trace of one read — a query or a panel — and
// returns it with the state the read fills in and the epilogue to
// defer: the latency on hist, the flight recorder, the slow-query log,
// and the trace's release. Every TraceSample'th read counted by reqs
// is traced in detail, and the read is listed in /api/inflight until
// the epilogue runs.
func (g *Gateway) startTrace(name, detail string, reqs *atomic.Uint64, hist *obs.Histogram) (*obs.Trace, *queryState, func()) {
	tr, n := obs.NewTrace(name, detail), reqs.Add(1)
	if s := g.cfg.TraceSample; s > 0 && n%uint64(s) == 0 {
		tr.SetDetailed(true)
	}
	untrack := g.inflight.Track(tr)
	st := &queryState{cacheStatus: "miss"}
	return tr, st, func() {
		elapsed := tr.Elapsed()
		g.recordTrace(tr, hist, elapsed)
		untrack()
		g.maybeLogSlow(tr, st, elapsed)
		tr.Release()
	}
}

func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	tr, st, done := g.startTrace("query", r.URL.RequestURI(), &g.queryReqs, g.histQuery)
	defer done()

	sp := tr.StartSpan("parse")
	var (
		start, end int64
		subs       []subQuery
		err        error
	)
	switch r.Method {
	case http.MethodGet:
		start, end, subs, err = parseQueryParams(r, g.cfg.Now)
	case http.MethodPost:
		start, end, subs, err = parseQueryBody(r, g.cfg.Now)
	default:
		sp.End()
		httpError(w, http.StatusMethodNotAllowed, "GET or POST required")
		return
	}
	if err != nil {
		sp.End()
		g.queryErrs.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Convert and validate every sub-query before the first response
	// byte: once streaming starts the status is committed, so anything
	// malformed — unknown aggregator, bad downsample, inverted range —
	// must 400 here, never 200 with a broken or empty stream.
	queries := make([]tsdb.Query, len(subs))
	for i, sq := range subs {
		q, qerr := sq.toTSDB(start, end)
		if qerr == nil {
			qerr = q.Validate()
		}
		if qerr != nil {
			sp.End()
			g.queryErrs.Add(1)
			httpError(w, http.StatusBadRequest, "%v", qerr)
			return
		}
		q.Trace = tr
		queries[i] = q
	}
	sp.End()

	ndjson := wantsNDJSON(r)
	key := g.cacheKey(start, end, subs, ndjson)
	gz := acceptsGzip(r)
	if body, ok := g.cache.get(key, gz); ok {
		st.cacheStatus = "hit"
		writeQueryBody(w, body, "hit", ndjson, gz)
		return
	}

	// Cache miss: stream series to the client as the store yields
	// them. The encoder pushes the first series at once and the rest on
	// a byte or time threshold, keeps the plain body for the cache
	// while it fits an entry, and — if the store fails mid-scan, after
	// a 200 is already on the wire — ends the stream with an explicit
	// truncation marker instead of a silently short result.
	//
	// Register the fill before the first store read: a write landing
	// in this range while we scan poisons the token, and put discards
	// a poisoned body instead of caching a result the write's own
	// invalidation could no longer reach.
	metrics := make([]string, 0, len(subs))
	for _, sq := range subs {
		metrics = append(metrics, sq.Metric)
	}
	fill := g.cache.beginFill(start, end, metrics)
	defer g.cache.endFill(fill)
	scan := tr.StartSpan("scan")
	enc := newStreamEncoder(w, tr, "miss", ndjson, gz, fill != nil)
	defer enc.release()
	var streamErr error
	for _, q := range queries {
		if streamErr = g.exec(q, func(rs tsdb.ResultSeries) error {
			st.series++
			st.points += len(rs.Points)
			return enc.series(toQueryResult(rs), time.Now())
		}); streamErr != nil {
			break
		}
	}
	scan.End()
	if streamErr != nil {
		g.queryErrs.Add(1)
		if !enc.started {
			// Nothing has reached the client yet (the scan failed, or
			// the first series could not be encoded): a clean error
			// status is still possible.
			enc.abort()
			httpError(w, http.StatusInternalServerError, "%v", streamErr)
			return
		}
		enc.finish(streamErr)
		return
	}
	sp = tr.StartSpan("flush")
	body, cacheable := enc.finish(nil)
	sp.End()
	if cacheable {
		g.cache.put(key, body, start, end, metrics, fill)
	}
}

// Render answers q through the read path /api/query takes (the same
// exec, trace stages and rollup planner) and returns what render makes
// of the result series, cached beside the JSON answers: the key is the
// query's aligned canonical form prefixed by kind, a hit is a lookup,
// and an entry is dropped by a write into its range like any other —
// a write during the read poisons the fill. kind names the rendering
// (the dashboard passes its panel's path); one kind and query must
// always render the same bytes from the same series. Each call is an
// obs trace named "panel" with kind as its detail, visible in
// /api/inflight, the flight recorder and the slow-query log.
func (g *Gateway) Render(kind string, q tsdb.Query, render func([]tsdb.ResultSeries) []byte) ([]byte, error) {
	tr, st, done := g.startTrace("panel", kind, &g.panelReqs, g.histPanel)
	defer done()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	key := strconv.Quote(kind) + "|" + g.cacheKey(q.Start, q.End, []subQuery{toSubQuery(q)}, false)
	if body, ok := g.cache.get(key, false); ok {
		st.cacheStatus = "hit"
		return body, nil
	}
	metrics := []string{q.Metric}
	fill := g.cache.beginFill(q.Start, q.End, metrics)
	defer g.cache.endFill(fill)
	q.Trace = tr
	var res []tsdb.ResultSeries
	scan := tr.StartSpan("scan")
	err := g.exec(q, func(rs tsdb.ResultSeries) error {
		st.series++
		st.points += len(rs.Points)
		res = append(res, rs)
		return nil
	})
	scan.End()
	if err != nil {
		return nil, err
	}
	sp := tr.StartSpan("render")
	body := render(res)
	sp.End()
	g.cache.put(key, body, q.Start, q.End, metrics, fill)
	return body, nil
}

// toSubQuery is the request form of a store query, for its cache key.
func toSubQuery(q tsdb.Query) subQuery {
	sq := subQuery{Aggregator: string(q.Aggregator), Metric: q.Metric, Tags: q.Tags, Rate: q.Rate}
	if q.Downsample > 0 {
		fn := q.DownsampleFn
		if fn == "" {
			fn = q.Aggregator
		}
		sq.Downsample = q.Downsample.String() + "-" + string(fn)
	}
	if q.LimitLowest {
		sq.BottomK = q.SeriesLimit
	} else {
		sq.TopK = q.SeriesLimit
	}
	return sq
}

// maybeLogSlow emits the slow-query record: one structured line with
// the full span tree (per-stage durations and counts), result sizes,
// cache status, the planner decision — whether the plans read rollup
// tiers, raw block scans, or a mix — and the plans themselves, each
// member's source and decline reason. Its uri is the trace's detail:
// the request URI of a query, the path of a panel.
func (g *Gateway) maybeLogSlow(tr *obs.Trace, st *queryState, elapsed time.Duration) {
	if g.cfg.SlowQuery <= 0 || elapsed < g.cfg.SlowQuery {
		return
	}
	served, raw := 0, 0
	plans := make([]string, 0, len(tr.Plans()))
	for _, p := range tr.Plans() {
		if p, ok := p.(*tsdb.Plan); ok {
			served, raw = served+p.Tiered, raw+p.Raw
		}
		plans = append(plans, p.String())
	}
	planner := "raw"
	switch {
	case served > 0 && raw > 0:
		planner = "mixed"
	case served > 0:
		planner = "rollup"
	}
	g.cfg.Logger.Warn("slow query",
		"uri", tr.Detail(),
		"trace_id", tr.ID(),
		"elapsed", elapsed.Round(time.Microsecond).String(),
		"cache", st.cacheStatus,
		"series", st.series,
		"points", st.points,
		"planner", planner,
		"plan", strings.Join(plans, " | "),
		"trace", tr.RenderTree(),
	)
}

// toQueryResult converts a store result series to the OpenTSDB wire
// shape; the point slice is carried through and serialized directly.
func toQueryResult(rs tsdb.ResultSeries) queryResult {
	return queryResult{Metric: rs.Metric, Tags: rs.Tags, Points: rs.Points}
}

// writeQueryBody sends a fully cached query result: body is the
// cache's stored bytes, already in the encoding the client asked for
// (gz says which), so either kind of hit is the headers and one Write.
func writeQueryBody(w http.ResponseWriter, body []byte, cacheStatus string, ndjson, gz bool) {
	setQueryHeaders(w.Header(), cacheStatus, ndjson, gz)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// acceptsGzip reports whether the request's Accept-Encoding lists
// gzip (or the wildcard) with a non-zero quality.
func acceptsGzip(r *http.Request) bool {
	return accepts(r.Header.Get("Accept-Encoding"), "gzip", "*")
}

// toTSDB converts a subQuery to a store query.
func (sq subQuery) toTSDB(start, end int64) (tsdb.Query, error) {
	q := tsdb.Query{
		Metric:     sq.Metric,
		Tags:       sq.Tags,
		Start:      start,
		End:        end,
		Aggregator: tsdb.Aggregator(sq.Aggregator),
		Rate:       sq.Rate,
	}
	if sq.Metric == "" {
		return q, fmt.Errorf("metric required")
	}
	if sq.Downsample != "" {
		interval, fn, err := parseDownsample(sq.Downsample)
		if err != nil {
			return q, err
		}
		q.Downsample = interval
		q.DownsampleFn = fn
	}
	switch {
	case sq.TopK < 0 || sq.BottomK < 0:
		return q, fmt.Errorf("topk/bottomk must be positive")
	case sq.TopK > 0 && sq.BottomK > 0:
		return q, fmt.Errorf("topk and bottomk are mutually exclusive")
	case sq.TopK > 0:
		q.SeriesLimit = sq.TopK
	case sq.BottomK > 0:
		q.SeriesLimit = sq.BottomK
		q.LimitLowest = true
	}
	return q, nil
}

// parseQueryParams handles GET ?start=&end=&m=agg:[ds:][rate:]metric{tags}.
func parseQueryParams(r *http.Request, now func() time.Time) (int64, int64, []subQuery, error) {
	v := r.URL.Query()
	start, end, err := parseRange(v.Get("start"), v.Get("end"), now)
	if err != nil {
		return 0, 0, nil, err
	}
	ms := v["m"]
	if len(ms) == 0 {
		return 0, 0, nil, fmt.Errorf("at least one m= metric spec required")
	}
	var subs []subQuery
	for _, spec := range ms {
		sq, err := parseMetricSpec(spec)
		if err != nil {
			return 0, 0, nil, err
		}
		subs = append(subs, sq)
	}
	return start, end, subs, nil
}

// maxQueryBody bounds a POST /api/query request body (1 MiB).
const maxQueryBody = 1 << 20

// parseQueryBody handles the POST JSON request.
func parseQueryBody(r *http.Request, now func() time.Time) (int64, int64, []subQuery, error) {
	var req queryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxQueryBody)).Decode(&req); err != nil {
		return 0, 0, nil, fmt.Errorf("bad JSON body: %v", err)
	}
	start, end, err := parseRange(rawToString(req.Start), rawToString(req.End), now)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(req.Queries) == 0 {
		return 0, 0, nil, fmt.Errorf("at least one query required")
	}
	return start, end, req.Queries, nil
}

// rawToString renders a JSON scalar (number or string) as its text.
func rawToString(raw json.RawMessage) string {
	s := strings.TrimSpace(string(raw))
	return strings.Trim(s, `"`)
}

// parseRange resolves start/end expressions; end defaults to now.
func parseRange(startS, endS string, now func() time.Time) (int64, int64, error) {
	if startS == "" {
		return 0, 0, fmt.Errorf("start required")
	}
	start, err := parseTime(startS, now)
	if err != nil {
		return 0, 0, fmt.Errorf("bad start: %v", err)
	}
	end := now().UnixMilli()
	if endS != "" {
		end, err = parseTime(endS, now)
		if err != nil {
			return 0, 0, fmt.Errorf("bad end: %v", err)
		}
	}
	return start, end, nil
}

// parseTime accepts unix seconds, unix milliseconds, RFC3339, or a
// relative "1h-ago" / "30m-ago" / "2d-ago" expression.
func parseTime(s string, now func() time.Time) (int64, error) {
	if strings.HasSuffix(s, "-ago") {
		d, err := parseDuration(strings.TrimSuffix(s, "-ago"))
		if err != nil {
			return 0, err
		}
		return now().Add(-d).UnixMilli(), nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return normalizeMillis(n), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return 0, fmt.Errorf("unrecognized time %q", s)
	}
	return t.UnixMilli(), nil
}

// parseDuration extends time.ParseDuration with OpenTSDB's d (days)
// and w (weeks) suffixes.
func parseDuration(s string) (time.Duration, error) {
	if n := len(s); n > 1 {
		switch s[n-1] {
		case 'd':
			if v, err := strconv.ParseFloat(s[:n-1], 64); err == nil {
				return time.Duration(v * 24 * float64(time.Hour)), nil
			}
		case 'w':
			if v, err := strconv.ParseFloat(s[:n-1], 64); err == nil {
				return time.Duration(v * 7 * 24 * float64(time.Hour)), nil
			}
		}
	}
	return time.ParseDuration(s)
}

// parseDownsample splits "1h-avg" into interval and aggregator.
func parseDownsample(s string) (time.Duration, tsdb.Aggregator, error) {
	i := strings.IndexByte(s, '-')
	if i <= 0 || i == len(s)-1 {
		return 0, "", fmt.Errorf("bad downsample %q (want e.g. 1h-avg)", s)
	}
	d, err := parseDuration(s[:i])
	if err != nil {
		return 0, "", fmt.Errorf("bad downsample interval %q: %v", s[:i], err)
	}
	fn := tsdb.Aggregator(s[i+1:])
	if !fn.Valid() {
		return 0, "", fmt.Errorf("bad downsample aggregator %q", s[i+1:])
	}
	return d, fn, nil
}

// parseMetricSpec parses OpenTSDB's m= syntax:
// <agg>:[<interval>-<dsagg>:][rate:]<metric>[{k=v,k=*}], optionally
// wrapped in a server-side series selection: topk(<K>,<spec>) or
// bottomk(<K>,<spec>).
func parseMetricSpec(spec string) (subQuery, error) {
	var sq subQuery
	for _, wrap := range []struct {
		prefix string
		lowest bool
	}{{"topk(", false}, {"bottomk(", true}} {
		if !strings.HasPrefix(spec, wrap.prefix) {
			continue
		}
		if !strings.HasSuffix(spec, ")") {
			return sq, fmt.Errorf("unterminated %s...) in %q", wrap.prefix, spec)
		}
		kS, inner, ok := strings.Cut(spec[len(wrap.prefix):len(spec)-1], ",")
		if !ok {
			return sq, fmt.Errorf("%s...) needs a count and a metric spec in %q", wrap.prefix, spec)
		}
		k, err := strconv.Atoi(strings.TrimSpace(kS))
		if err != nil || k <= 0 {
			return sq, fmt.Errorf("bad series count %q in %q (want a positive integer)", kS, spec)
		}
		sq, err = parseMetricSpec(strings.TrimSpace(inner))
		if err != nil {
			return sq, err
		}
		if sq.TopK > 0 || sq.BottomK > 0 {
			return sq, fmt.Errorf("nested topk/bottomk in %q", spec)
		}
		if wrap.lowest {
			sq.BottomK = k
		} else {
			sq.TopK = k
		}
		return sq, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) < 2 {
		return sq, fmt.Errorf("bad metric spec %q (want agg:metric)", spec)
	}
	sq.Aggregator = parts[0]
	for _, mid := range parts[1 : len(parts)-1] {
		switch {
		case mid == "rate":
			sq.Rate = true
		case strings.Contains(mid, "-"):
			sq.Downsample = mid
		default:
			return sq, fmt.Errorf("bad metric spec component %q", mid)
		}
	}
	m := parts[len(parts)-1]
	if i := strings.IndexByte(m, '{'); i >= 0 {
		if !strings.HasSuffix(m, "}") {
			return sq, fmt.Errorf("unterminated tag filter in %q", m)
		}
		tags := map[string]string{}
		for _, kv := range strings.Split(m[i+1:len(m)-1], ",") {
			if kv == "" {
				continue
			}
			j := strings.IndexByte(kv, '=')
			if j <= 0 {
				return sq, fmt.Errorf("bad tag filter %q", kv)
			}
			tags[kv[:j]] = kv[j+1:]
		}
		sq.Tags = tags
		m = m[:i]
	}
	sq.Metric = m
	return sq, nil
}

// cacheKey canonicalises a request; start/end are aligned down to the
// cache bucket so rolling dashboard queries share entries. The
// alignment interval bounds result staleness. Cached bodies are
// post-selection serialized results, so the key carries the topk/
// bottomk count and the response framing alongside the query shape —
// topk(3,...) and topk(5,...) of the same spec are distinct entries.
func (g *Gateway) cacheKey(start, end int64, subs []subQuery, ndjson bool) string {
	align := g.cfg.CacheAlign.Milliseconds()
	if align > 0 {
		start -= start % align
		end -= end % align
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|%t", start, end, ndjson)
	for _, sq := range subs {
		keys := make([]string, 0, len(sq.Tags))
		for k := range sq.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		// %q-quote every free-form component so delimiter characters
		// inside POSTed values can't make two different queries
		// collide on one cache key.
		fmt.Fprintf(&b, "|%q:%q:%q:%t:%d:%d{", sq.Aggregator, sq.Downsample, sq.Metric, sq.Rate, sq.TopK, sq.BottomK)
		for _, k := range keys {
			fmt.Fprintf(&b, "%q=%q,", k, sq.Tags[k])
		}
		b.WriteByte('}')
	}
	return b.String()
}
