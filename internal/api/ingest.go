package api

// Ingest path: POST /api/put accepts a single OpenTSDB-style JSON
// data point or an array of them. The body is read into a pooled
// buffer and decoded in one hand-written pass that validates JSON
// syntax as it goes: each element's fields are matched by key,
// numbers are parsed in place, the tags object is split into
// key/value sub-slices of the body, and the element is resolved to
// an interned tsdb series and appended to the pooled RefPoint slice
// before the next one is read — a well-formed batch allocates nothing
// once the pool is warm. Points pass a per-client token bucket, then
// an all-or-nothing reservation on the bounded ingest queue; worker
// goroutines drain the queue in batches into tsdb.AppendRefs. A full
// queue answers 429 with Retry-After instead of blocking the producer
// or dropping silently.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

// Enqueue errors.
var (
	ErrQueueFull = errors.New("api: ingest queue full")
	ErrClosed    = errors.New("api: gateway closed")
)

// putPoint is one decoded /api/put element. Metric and tags are the
// raw JSON values, sub-slices of the request body (nil when the key
// is absent): the bytes feed tsdb.InternBytes directly, so a
// previously-seen series resolves without materializing a single
// string or map entry. When tags is an object of string values its
// pairs are already split into the scratch's kvs.
type putPoint struct {
	metric, tags []byte
	timestamp    int64
	value        float64
	flatTags     bool
}

// Decode errors. Every error the decoder can produce is one of these
// values, so scanning a batch never builds one; decodePutBody adds
// the offset only when the request fails.
var (
	errPutSyntax   = errors.New("invalid JSON")
	errPutDepth    = errors.New("exceeded max depth")
	errPutElement  = errors.New("element must be an object")
	errPutTrailing = errors.New("trailing data")
	errBadInteger  = errors.New("bad integer")
	errBadNumber   = errors.New("bad number")
	errMetricShape = errors.New("metric must be a string")
	errTagsShape   = errors.New("tags must be an object of strings")
)

// maxJSONDepth is encoding/json's nesting limit, counted from the
// element: a body the standard decoder would refuse is refused here.
const maxJSONDepth = 10000

// unquoteNumber strips exactly one matched pair of surrounding quotes
// from a raw JSON token: real OpenTSDB accepts both bare and
// string-quoted numbers. Anything else — stray, unbalanced or nested
// quotes like `""12""` or `12"` — is left for the numeric parser to
// reject, so lax trimming cannot turn a malformed token into a number.
func unquoteNumber(b []byte) []byte {
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' {
		inner := b[1 : len(b)-1]
		if bytes.IndexByte(inner, '"') < 0 {
			return inner
		}
	}
	return b
}

// parseTimestamp decodes 1488326400 or "1488326400". Up to 18 digits
// cannot overflow and are summed in place; anything else (a leading
// '+', 19 digits) is strconv.ParseInt's to accept or reject.
func parseTimestamp(raw []byte) (int64, error) {
	s := unquoteNumber(raw)
	neg := len(s) > 0 && s[0] == '-'
	d := s
	if neg {
		d = s[1:]
	}
	if len(d) > 0 && len(d) <= 18 {
		var n int64
		i := 0
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			n = n*10 + int64(d[i]-'0')
		}
		if i == len(d) {
			if neg {
				n = -n
			}
			return n, nil
		}
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	if err != nil {
		return 0, errBadInteger
	}
	return n, nil
}

// parseValue decodes 412.5 or "412.5": parseDecimal's exact fast
// path, else strconv.ParseFloat (exponents, long mantissas, "NaN").
func parseValue(raw []byte) (float64, error) {
	s := unquoteNumber(raw)
	if f, ok := parseDecimal(s); ok {
		return f, nil
	}
	f, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		return 0, errBadNumber
	}
	return f, nil
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseDecimal parses [-]digits[.digits] of at most 15 digits as
// m / 10^frac. Both operands are exact float64s, so the one rounding
// of the division gives the correctly rounded result — Clinger's fast
// path, bit-identical to strconv.ParseFloat. ok is false for any
// other shape.
func parseDecimal(s []byte) (float64, bool) {
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		s = s[1:]
	}
	var m uint64
	digits, frac := 0, 0
	for i, c := range s {
		switch {
		case c >= '0' && c <= '9':
			m = m*10 + uint64(c-'0')
			digits++
		case c == '.' && frac == 0 && i > 0 && i < len(s)-1:
			frac = len(s) - 1 - i
		default:
			return 0, false
		}
	}
	if digits == 0 || digits > 15 {
		return 0, false
	}
	f := float64(m) / float64pow10[frac]
	if neg {
		f = -f
	}
	return f, true
}

// normalizeMillis routes timestamps through the store's one
// seconds-vs-milliseconds rule, shared with the telnet listener.
func normalizeMillis(n int64) int64 { return tsdb.NormalizeMillis(n) }

// maxPutBody bounds a single /api/put request body (8 MiB).
const maxPutBody = 8 << 20

// putScratch is the pooled per-request decode state: the body buffer,
// the element being decoded, the key/value slice fed to InternBytes,
// and the interned point slice handed to the queue. Everything is
// reused across requests; nothing per-point escapes to the heap once
// the pool is warm.
type putScratch struct {
	body     []byte
	point    putPoint
	kvs      [][]byte
	fallback map[string]string // escaped-tags rarity: stdlib decode target
	pts      []tsdb.RefPoint
	failures []string
}

var putScratchPool = sync.Pool{New: func() any {
	return &putScratch{body: make([]byte, 0, 64<<10)}
}}

// reset clears the decode products of the previous request.
func (sc *putScratch) reset() {
	sc.pts = sc.pts[:0]
	sc.failures = sc.failures[:0]
}

// readAllInto is io.ReadAll into a reused buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (g *Gateway) handlePut(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if g.rejectReadOnly(w) {
		return
	}
	g.putReqs.Add(1)
	tr := obs.NewTrace("put", r.URL.Path)
	untrack := g.inflight.Track(tr)
	defer func() {
		// Slow puts land in the flight recorder like slow queries do.
		g.recordTrace(tr, g.histPut, tr.Elapsed())
		untrack()
		tr.Release()
	}()
	// Constrained producers may gzip the batch; the size cap applies
	// to the decompressed bytes, so a compressed bomb cannot buy more
	// buffer than a plain request.
	var reader io.Reader = r.Body
	switch enc := strings.TrimSpace(strings.ToLower(r.Header.Get("Content-Encoding"))); enc {
	case "", "identity":
	case "gzip":
		zr, err := gzip.NewReader(io.LimitReader(r.Body, maxPutBody+1))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad gzip body: %v", err)
			return
		}
		defer zr.Close()
		reader = zr
	default:
		httpError(w, http.StatusUnsupportedMediaType, "unsupported Content-Encoding %q", enc)
		return
	}
	sc := putScratchPool.Get().(*putScratch)
	defer putScratchPool.Put(sc)
	sc.reset()
	var err error
	sp := tr.StartSpan("read_body")
	sc.body, err = readAllInto(sc.body[:0], io.LimitReader(reader, maxPutBody+1))
	sp.End()
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(sc.body) > maxPutBody {
		httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxPutBody)
		return
	}
	sp = tr.StartSpan("decode")
	total, err := g.decodePutBody(sc)
	sp.End()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if total == 0 {
		httpError(w, http.StatusBadRequest, "no data points")
		return
	}
	g.invalid.Add(uint64(len(sc.failures)))
	dps, failures := sc.pts, sc.failures

	// An all-invalid batch stores nothing but still cost a parse and
	// validation pass; charge one token so a flood of garbage can't
	// bypass the rate limiter entirely at full CPU cost.
	if len(dps) == 0 && g.cfg.RateLimit > 0 {
		if ok, retry := g.limiter.allowN(clientKey(r), 1, time.Now()); !ok {
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
	}

	if len(dps) > 0 {
		// A valid batch bigger than the token bucket or the whole
		// queue could never be accepted no matter how long the client
		// waits: 413 — before any tokens are spent — instead of an
		// unwinnable 429.
		if g.cfg.RateLimit > 0 && float64(len(dps)) > g.cfg.RateBurst {
			httpError(w, http.StatusRequestEntityTooLarge,
				"batch of %d valid points exceeds rate-limit burst %g; split it", len(dps), g.cfg.RateBurst)
			return
		}
		if len(dps) > g.cfg.QueueSize {
			httpError(w, http.StatusRequestEntityTooLarge,
				"batch of %d valid points exceeds queue capacity %d; split it", len(dps), g.cfg.QueueSize)
			return
		}
		client := clientKey(r)
		if ok, retry := g.limiter.allowN(client, float64(len(dps)), time.Now()); !ok {
			g.rejectRate.Add(uint64(len(dps)))
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		sp = tr.StartSpan("enqueue")
		err := g.EnqueueRefs(dps)
		sp.End()
		if err != nil {
			// Nothing was stored: hand the spent tokens back so the
			// retry the 429 invites isn't then rate-limited.
			g.limiter.refund(client, float64(len(dps)))
			if errors.Is(err, ErrQueueFull) {
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests, "ingest queue full")
				return
			}
			if errors.Is(err, tsdb.ErrDegraded) {
				// Sticky until an operator restarts over a healthy
				// disk, so invite a much later retry than queue
				// pressure would.
				w.Header().Set("Retry-After", "30")
				httpError(w, http.StatusServiceUnavailable, "store degraded, writes disabled: %v", err)
				return
			}
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}

	switch {
	case len(failures) == 0 && !r.URL.Query().Has("details"):
		w.WriteHeader(http.StatusNoContent) // OpenTSDB's success answer
	case len(failures) == 0:
		writeJSON(w, http.StatusOK, putResponse{Success: len(dps), Errors: []string{}})
	case len(dps) == 0:
		writeJSON(w, http.StatusBadRequest, putResponse{Failed: len(failures), Errors: failures})
	default:
		writeJSON(w, http.StatusOK, putResponse{Success: len(dps), Failed: len(failures), Errors: failures})
	}
}

type putResponse struct {
	Success int      `json:"success"`
	Failed  int      `json:"failed"`
	Errors  []string `json:"errors"`
}

// decodePutBody accepts either one JSON object or a JSON array in one
// pass over the body, resolving each element to an interned series as
// soon as it is read, so the only per-request products are the
// RefPoint slice and the failure messages. Returns the total number
// of elements seen. What it accepts, and the points and failures it
// produces, are encoding/json's (FuzzPutDecode holds it to that).
func (g *Gateway) decodePutBody(sc *putScratch) (int, error) {
	b := sc.body
	i := skipJSONSpace(b, 0)
	array := i < len(b) && b[i] == '['
	kind := "bad JSON object"
	if array || i == len(b) {
		kind = "bad JSON array"
	}
	if array {
		i = skipJSONSpace(b, i+1)
	}
	n := 0
	for !array || n > 0 || i >= len(b) || b[i] != ']' { // skipped only by []
		start := i
		next, err := sc.decodePoint(b, i)
		if err != nil {
			return 0, putBodyError(kind, b, next, err)
		}
		i = skipJSONSpace(b, next)
		if !array && i < len(b) {
			// Checked before interning: a rejected object creates nothing.
			return 0, putBodyError(kind, b, i, errPutTrailing)
		}
		if err := g.appendPoint(sc, n); err != nil {
			return 0, putBodyError(kind, b, start, err)
		}
		n++
		if !array {
			return n, nil
		}
		if i < len(b) && b[i] == ',' {
			i = skipJSONSpace(b, i+1)
			continue
		}
		if i >= len(b) || b[i] != ']' {
			return 0, putBodyError(kind, b, i, errPutSyntax)
		}
		break
	}
	if i = skipJSONSpace(b, i+1); i < len(b) {
		return 0, putBodyError(kind, b, i, errPutTrailing)
	}
	return n, nil
}

// putBodyError is the one place a decode failure becomes a message.
func putBodyError(kind string, b []byte, off int, err error) error {
	if off >= len(b) {
		return fmt.Errorf("%s: %v: unexpected end of body", kind, err)
	}
	return fmt.Errorf("%s: %v at offset %d", kind, err, off)
}

// The element keys decodePoint stores, indexed by field.
const (
	fieldMetric = iota
	fieldTimestamp
	fieldValue
	fieldTags
	fieldOther
)

var putFieldNames = [...][]byte{
	fieldMetric:    []byte("metric"),
	fieldTimestamp: []byte("timestamp"),
	fieldValue:     []byte("value"),
	fieldTags:      []byte("tags"),
}

// putField matches a key the way encoding/json matches struct fields:
// bytes.EqualFold, so "Metric" and "TIMESTAMP" count.
func putField(key []byte) int {
	for f, name := range putFieldNames {
		if bytes.EqualFold(key, name) {
			return f
		}
	}
	return fieldOther
}

// decodePoint reads the element at b[i] — an object, or null for an
// empty point — into sc.point and returns the index past it. Unknown
// keys are validated and skipped; a repeated key overrides the earlier
// one. On error the index is where the element went wrong.
func (sc *putScratch) decodePoint(b []byte, i int) (int, error) {
	p := &sc.point
	*p = putPoint{}
	switch {
	case i >= len(b):
		return i, errPutSyntax
	case b[i] == 'n':
		return scanJSONLiteral(b, i, "null")
	case b[i] != '{':
		return i, errPutElement
	}
	return scanJSONObject(b, i, func(key []byte, escaped bool, v int) (int, error) {
		if escaped {
			key = unescapeKey(key)
		} else {
			key = key[1 : len(key)-1]
		}
		field := putField(key)
		if field == fieldTags {
			return sc.scanTags(b, v)
		}
		next, err := skipJSONValue(b, v, 2)
		if err != nil {
			return next, err
		}
		raw := b[v:next]
		switch field {
		case fieldMetric:
			p.metric = raw
		case fieldTimestamp:
			p.timestamp, err = parseTimestamp(raw)
		case fieldValue:
			p.value, err = parseValue(raw)
		}
		if err != nil {
			return v, err
		}
		return next, nil
	})
}

// scanTags validates the tags value at b[i] and stores it as the
// point's tags. An object whose values are all strings is split into
// sc.kvs in the same pass and marked flat; any other value is only
// validated, for resolveSeries to reject or to hand to the
// escaped-bytes fallback.
func (sc *putScratch) scanTags(b []byte, i int) (next int, err error) {
	sc.kvs = sc.kvs[:0]
	flat := i < len(b) && b[i] == '{'
	if flat {
		next, err = scanJSONObject(b, i, func(key []byte, _ bool, v int) (int, error) {
			if v >= len(b) || b[v] != '"' {
				flat = false
				return skipJSONValue(b, v, 3)
			}
			next, _, err := scanJSONString(b, v)
			if err == nil && flat {
				sc.kvs = append(sc.kvs, key[1:len(key)-1], b[v+1:next-1])
			}
			return next, err
		})
	} else {
		next, err = skipJSONValue(b, i, 2)
	}
	sc.point.tags, sc.point.flatTags = b[i:next], flat
	return next, err
}

// scanJSONObject walks the object at b[i], a '{', validating its
// syntax. For each member it hands member the key token (quotes
// included), whether the key holds an escape, and the index of the
// value; member returns the index past the value.
func scanJSONObject(b []byte, i int, member func(key []byte, escaped bool, v int) (int, error)) (int, error) {
	i = skipJSONSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1, nil
	}
	for {
		next, escaped, err := scanJSONString(b, i)
		if err != nil {
			return next, err
		}
		key := b[i:next]
		if i = skipJSONSpace(b, next); i >= len(b) || b[i] != ':' {
			return i, errPutSyntax
		}
		if next, err = member(key, escaped, skipJSONSpace(b, i+1)); err != nil {
			return next, err
		}
		i = skipJSONSpace(b, next)
		if i < len(b) && b[i] == ',' {
			i = skipJSONSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == '}' {
			return i + 1, nil
		}
		return i, errPutSyntax
	}
}

// unescapeKey decodes a key token holding escape sequences — rare
// enough for the stdlib and its allocation. The token is already
// validated, so the decode cannot fail.
func unescapeKey(tok []byte) []byte {
	var s string
	json.Unmarshal(tok, &s)
	return []byte(s)
}

func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipJSONValue validates the value at b[i] and returns the index past
// it. depth is the nesting level a container opened here would have,
// the element itself being 1.
func skipJSONValue(b []byte, i, depth int) (int, error) {
	if i >= len(b) {
		return i, errPutSyntax
	}
	switch c := b[i]; c {
	case '"':
		next, _, err := scanJSONString(b, i)
		return next, err
	case 't':
		return scanJSONLiteral(b, i, "true")
	case 'f':
		return scanJSONLiteral(b, i, "false")
	case 'n':
		return scanJSONLiteral(b, i, "null")
	case '{', '[':
		if depth > maxJSONDepth {
			return i, errPutDepth
		}
		if c == '{' {
			return scanJSONObject(b, i, func(_ []byte, _ bool, v int) (int, error) {
				return skipJSONValue(b, v, depth+1)
			})
		}
		i = skipJSONSpace(b, i+1)
		if i < len(b) && b[i] == ']' {
			return i + 1, nil
		}
		for {
			next, err := skipJSONValue(b, i, depth+1)
			if err != nil {
				return next, err
			}
			i = skipJSONSpace(b, next)
			if i < len(b) && b[i] == ',' {
				i = skipJSONSpace(b, i+1)
				continue
			}
			if i < len(b) && b[i] == ']' {
				return i + 1, nil
			}
			return i, errPutSyntax
		}
	default:
		return scanJSONNumber(b, i)
	}
}

// scanJSONString validates the string token at b[i] and returns the
// index past its closing quote and whether it holds an escape.
func scanJSONString(b []byte, i int) (next int, escaped bool, err error) {
	if i >= len(b) || b[i] != '"' {
		return i, false, errPutSyntax
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return j + 1, escaped, nil
		case c < 0x20:
			return j, escaped, errPutSyntax
		case c == '\\':
			escaped = true
			if j++; j >= len(b) {
				return j, true, errPutSyntax
			}
			switch b[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if j++; j >= len(b) || !isHex(b[j]) {
						return j, true, errPutSyntax
					}
				}
			default:
				return j, true, errPutSyntax
			}
		}
	}
	return len(b), escaped, errPutSyntax
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanJSONNumber validates the number token at b[i]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanJSONNumber(b []byte, i int) (int, error) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return i, errPutSyntax
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || b[i] < '0' || b[i] > '9' {
			return i, errPutSyntax
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return i, errPutSyntax
		}
		i = skipDigits(b, i)
	}
	return i, nil
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// scanJSONLiteral matches true, false or null at b[i].
func scanJSONLiteral(b []byte, i int, lit string) (int, error) {
	if !bytes.HasPrefix(b[i:], []byte(lit)) {
		return i, errPutSyntax
	}
	return i + len(lit), nil
}

// appendPoint validates the scratch's decoded element and either
// interns it onto sc.pts or records a per-point failure message for
// index i. The returned error is reserved for malformed JSON shapes
// (metric or tags of the wrong type), which reject the whole batch
// like any other syntax error.
func (g *Gateway) appendPoint(sc *putScratch, i int) error {
	p := &sc.point
	// The store accepts timestamp 0 (the epoch), but over HTTP a
	// missing/zero timestamp is almost always an omitted field —
	// reject it instead of silently burying the point in 1970.
	if p.timestamp <= 0 {
		sc.failures = append(sc.failures, fmt.Sprintf("point %d: timestamp required", i))
		return nil
	}
	// A stored NaN/Inf (reachable via quoted "NaN") would make
	// every query over its range fail to marshal — reject at the
	// edge.
	if math.IsNaN(p.value) || math.IsInf(p.value, 0) {
		sc.failures = append(sc.failures, fmt.Sprintf("point %d: value must be finite", i))
		return nil
	}
	ts := normalizeMillis(p.timestamp)
	if !tsdb.ValidTimestamp(ts) {
		sc.failures = append(sc.failures, fmt.Sprintf("point %d: %v", i, fmt.Errorf("%w: %d", tsdb.ErrBadTimestamp, ts)))
		return nil
	}
	ref, perPoint, err := g.resolveSeries(sc)
	if err != nil {
		return err
	}
	if perPoint != nil {
		sc.failures = append(sc.failures, fmt.Sprintf("point %d: %v", i, perPoint))
		return nil
	}
	sc.pts = append(sc.pts, tsdb.RefPoint{
		Ref:   ref,
		Point: tsdb.Point{Timestamp: ts, Value: p.value},
	})
	return nil
}

// resolveSeries interns the element's raw metric and tags. perPoint
// carries validation rejections (empty metric, no tags, bad
// characters); err carries JSON shape violations. The common path —
// plain strings, no escapes — feeds the body's bytes and the kvs
// scanTags split straight to InternBytes; anything carrying escape
// sequences takes the stdlib route once.
func (g *Gateway) resolveSeries(sc *putScratch) (ref *tsdb.Ref, perPoint, err error) {
	p := &sc.point
	mraw, traw := p.metric, p.tags
	if len(mraw) == 0 || string(mraw) == "null" {
		return nil, tsdb.ErrEmptyMetric, nil
	}
	if len(traw) == 0 || string(traw) == "null" {
		return nil, tsdb.ErrNoTags, nil
	}
	if bytes.IndexByte(mraw, '\\') >= 0 || bytes.IndexByte(traw, '\\') >= 0 {
		var metric string
		if uerr := json.Unmarshal(mraw, &metric); uerr != nil {
			return nil, nil, errMetricShape
		}
		if sc.fallback == nil {
			sc.fallback = make(map[string]string, 8)
		} else {
			clear(sc.fallback)
		}
		if uerr := json.Unmarshal(traw, &sc.fallback); uerr != nil {
			return nil, nil, errTagsShape
		}
		ref, ierr := g.db.Intern(metric, sc.fallback)
		return ref, ierr, nil
	}
	if mraw[0] != '"' {
		return nil, nil, errMetricShape
	}
	if !p.flatTags {
		return nil, nil, errTagsShape
	}
	ref, ierr := g.db.InternBytes(mraw[1:len(mraw)-1], sc.kvs)
	return ref, ierr, nil
}

// Intern resolves a series against the gateway's store from raw byte
// fields — the hook the telnet listener's zero-copy parser uses so
// both edges intern at the wire.
func (g *Gateway) Intern(metric []byte, kvs [][]byte) (*tsdb.Ref, error) {
	return g.db.InternBytes(metric, kvs)
}

// EnqueueRefs reserves queue space for the whole batch of interned
// points and enqueues it — all points or none, so callers can retry a
// 429 without partial writes. Safe for concurrent use. Timestamps
// must already be validated; workers store the queue's contents
// without re-checking.
func (g *Gateway) EnqueueRefs(rps []tsdb.RefPoint) error {
	g.qmu.Lock()
	defer g.qmu.Unlock()
	if g.closed {
		return ErrClosed
	}
	// Fail fast while degraded: queueing points the store is certain
	// to reject just delays the 503 by one queue traversal and burns
	// worker time on batches that cannot be stored.
	if err := g.db.Degraded(); err != nil {
		return err
	}
	// Producers all hold qmu and consumers only free space, so the
	// capacity check cannot be invalidated before the sends below.
	if cap(g.queue)-len(g.queue) < len(rps) {
		g.rejectFull.Add(uint64(len(rps)))
		return ErrQueueFull
	}
	for _, rp := range rps {
		g.queue <- rp
	}
	g.recordQueueMark(len(rps))
	return nil
}

// queueMark tags the enqueue time of a batch's last point with the
// cumulative enqueue sequence. Workers observe a mark's age into the
// queue-wait histogram once their dequeue counter passes its sequence
// — batch-granular queue-wait sampling with no per-point timestamps.
type queueMark struct {
	seq int64
	t   time.Time
}

// maxQueueMarks bounds the mark backlog: past it, waits go unsampled
// (workers stalled that long are visible on the histogram already).
const maxQueueMarks = 1024

func (g *Gateway) recordQueueMark(n int) {
	g.markMu.Lock()
	g.enqSeq += int64(n)
	if len(g.marks) < maxQueueMarks {
		g.marks = append(g.marks, queueMark{seq: g.enqSeq, t: time.Now()})
	}
	g.markMu.Unlock()
}

// drainQueueMarks observes every mark the dequeue counter has passed.
func (g *Gateway) drainQueueMarks(deq int64) {
	g.markMu.Lock()
	i := 0
	for i < len(g.marks) && g.marks[i].seq <= deq {
		g.histQueueWait.ObserveSince(g.marks[i].t)
		i++
	}
	if i > 0 {
		g.marks = append(g.marks[:0], g.marks[i:]...)
	}
	g.markMu.Unlock()
}

// Enqueue is EnqueueRefs for callers still holding DataPoints (the
// MQTT ingestor, tests): each point is resolved to its interned
// series here at the edge. Every point must already have passed
// DataPoint.Validate.
func (g *Gateway) Enqueue(dps []tsdb.DataPoint) error {
	rps := make([]tsdb.RefPoint, len(dps))
	for i := range dps {
		ref, err := g.db.Intern(dps[i].Metric, dps[i].Tags)
		if err != nil {
			return err
		}
		rps[i] = tsdb.RefPoint{Ref: ref, Point: dps[i].Point}
	}
	return g.EnqueueRefs(rps)
}

// QueueDepth reports the current ingest backlog.
func (g *Gateway) QueueDepth() int { return len(g.queue) }

// worker drains the queue in batches into the store.
func (g *Gateway) worker() {
	defer g.wg.Done()
	batch := make([]tsdb.RefPoint, 0, g.cfg.BatchSize)
	for rp := range g.queue {
		batch = append(batch[:0], rp)
	fill:
		for len(batch) < g.cfg.BatchSize {
			select {
			case next, ok := <-g.queue:
				if !ok {
					break fill
				}
				batch = append(batch, next)
			default:
				break fill
			}
		}
		g.drainQueueMarks(g.deqSeq.Add(int64(len(batch))))
		// Points were validated at the edge before enqueueing; the
		// whole batch WAL-commits with one lock acquisition and fans
		// out to observers as one call.
		res := g.db.AppendRefs(batch)
		g.ingested.Add(uint64(res.Stored))
		g.storeErrors.Add(uint64(len(res.Errors)))
		g.rate.observe(res.Stored, time.Now())
	}
}

// retryAfterSeconds formats a duration as whole seconds, minimum 1.
func retryAfterSeconds(d time.Duration) string {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%d", s)
}

// --- small HTTP helpers shared across handlers -------------------------

// errorBody is the structured error envelope every non-2xx JSON
// response uses, OpenTSDB-style: {"error":{"code":400,"message":...}}.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: errorDetail{Code: code, Message: fmt.Sprintf(format, args...)}})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
