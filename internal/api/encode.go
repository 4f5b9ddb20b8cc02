package api

// Streaming result encoding for /api/query: result series are encoded
// as the store yields them — JSON array by default, NDJSON (one series
// object per line) when the client sends Accept: application/x-ndjson
// — with gzip composing on top for clients that advertise it. Every
// series is appended straight into one pooled buffer, which is pushed
// to the client after the first series (so the first bytes reach the
// wire while the scan is still running) and from then on whenever
// flushBytes are pending or flushEvery has passed, not per series: a
// push is a chunk write, a syscall and, under gzip, a deflate sync
// flush. While the answer fits the cache's entry cap the buffer keeps
// the whole plain body, and a stream that completes under it is copied
// once into the query cache, so the next aligned poll is a plain cached
// write; past the cap the buffer holds only what is pending.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Media types the query path serves.
const (
	ctJSON   = "application/json"
	ctNDJSON = "application/x-ndjson"
)

// wantsNDJSON reports whether the request explicitly asks for NDJSON
// framing. Only the exact media type opts in — a wildcard Accept
// (every browser and curl default) keeps the JSON array shape.
func wantsNDJSON(r *http.Request) bool {
	return accepts(r.Header.Get("Accept"), ctNDJSON, "")
}

// accepts reports whether a comma-separated Accept or Accept-Encoding
// header lists token — or wildcard, when non-empty — with a non-zero
// weight; the first element naming either decides. Every spelling of
// zero refuses (RFC 9110 allows "q=0" through "q=0.000"); a weight
// outside the qvalue grammar is ignored.
func accepts(header, token, wildcard string) bool {
	for header != "" {
		var elem string
		elem, header, _ = strings.Cut(header, ",")
		name, params, _ := strings.Cut(elem, ";")
		if name = strings.TrimSpace(name); name != token && (wildcard == "" || name != wildcard) {
			continue
		}
		for params != "" {
			var param string
			param, params, _ = strings.Cut(params, ";")
			if k, v, _ := strings.Cut(param, "="); strings.EqualFold(strings.TrimSpace(k), "q") {
				return !zeroQValue(strings.TrimSpace(v))
			}
		}
		return true
	}
	return false
}

// zeroQValue reports whether v spells a weight of zero in RFC 9110's
// qvalue grammar: "0", optionally followed by "." and up to three
// zeros. Every other spelling — a non-zero weight, or anything outside
// the grammar such as "-1", "+0", "NaN" or "0e0" — is not a refusal.
func zeroQValue(v string) bool {
	if v == "0" {
		return true
	}
	if len(v) < 2 || len(v) > 5 || v[:2] != "0." {
		return false
	}
	return strings.Trim(v[2:], "0") == ""
}

// gzipLevel is the one compression level every gzipped answer is
// deflated at — streamed misses and the cache's gzip variant alike.
// BestSpeed, not the default level 6: the seven golden cold bodies in
// testdata (77 KB plain) deflate in ~0.9 ms instead of ~3.4 ms on a
// 2-vCPU Xeon, to 14.3 KB instead of 11.8 KB — about a fifth more
// bytes on the wire for a quarter of the deflate CPU, and the CPU is
// what a cold answer over loopback or a LAN waits for. Level 2 sits
// between (~1.2 ms, 13.7 KB).
const gzipLevel = gzip.BestSpeed

// gzipWriters recycles compressors: a gzip.Writer is ~1 MB of flate
// state, far more than the bodies it compresses. A plain sync.Pool,
// so the collector can reclaim idle ones.
var gzipWriters = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(io.Discard, gzipLevel) // a valid level cannot fail
	return zw
}}

func getGzipWriter(w io.Writer) *gzip.Writer {
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(w)
	return zw
}

// putGzipWriter pools zw, reset away from its destination so an idle
// writer never keeps a dead ResponseWriter alive (and clear of any
// state a failed or abandoned stream left).
func putGzipWriter(zw *gzip.Writer) {
	zw.Reset(io.Discard)
	gzipWriters.Put(zw)
}

// gzipBytes compresses body in one shot.
func gzipBytes(body []byte) []byte {
	var buf bytes.Buffer
	zw := getGzipWriter(&buf)
	zw.Write(body)
	zw.Close()
	putGzipWriter(zw)
	return buf.Bytes()
}

// The push policy: the first series goes out at once; after that the
// encoder pushes at a series boundary once flushBytes are pending or
// flushEvery has passed since the last push.
const (
	flushBytes = 32 << 10
	flushEvery = 50 * time.Millisecond
)

// responseBuffers recycles the buffers answers are encoded into. One
// grows to the largest body it has held — at most the cache's entry cap
// plus one push, unless a single series is larger, and a buffer that
// has held one of those is not kept. A plain sync.Pool, so the
// collector reclaims idle ones.
var responseBuffers = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuffer = 2 * maxCacheBody

// streamEncoder writes query results incrementally. It is not safe
// for concurrent use; one request owns one encoder.
type streamEncoder struct {
	http  http.ResponseWriter
	flush http.Flusher // nil when the writer cannot flush
	gzip  *gzip.Writer // nil for identity responses

	// buf is the buffer every series is appended into; pooled is the
	// responseBuffers slot it came from and returns to. While keep
	// holds, buf is the whole plain body so far — what the cache will
	// store — and sent marks how much of it has been pushed; once the
	// body has outgrown the cache's entry cap (or with the cache off)
	// each push empties it.
	buf      []byte
	pooled   *[]byte
	sent     int
	keep     bool
	lastPush time.Time

	// serialize times encoding alone, wire the pushes (write + flush,
	// gzip included); both are inert without a trace.
	serialize, wire *obs.Stage

	ndjson  bool
	started bool // bytes have reached the ResponseWriter
	n       int  // series encoded so far
}

// newStreamEncoder builds an encoder for one request. Nothing reaches
// w until the first series (or finish), so callers can still answer
// 4xx/5xx for errors caught before any data is produced. cacheable
// says whether a completed body has a cache to go to. The caller must
// release the encoder on every exit path.
func newStreamEncoder(w http.ResponseWriter, tr *obs.Trace, cacheStatus string, ndjson, gz, cacheable bool) *streamEncoder {
	e := &streamEncoder{http: w, ndjson: ndjson, keep: cacheable,
		serialize: tr.Stage("serialize"), wire: tr.Stage("wire")}
	e.pooled = responseBuffers.Get().(*[]byte)
	e.buf = (*e.pooled)[:0]
	if !ndjson {
		e.buf = append(e.buf, '[')
	}
	setQueryHeaders(w.Header(), cacheStatus, ndjson, gz)
	if f, ok := w.(http.Flusher); ok {
		e.flush = f
	}
	if gz {
		e.gzip = getGzipWriter(w)
	}
	return e
}

// setQueryHeaders sets the headers a streamed and a cached answer share.
func setQueryHeaders(h http.Header, cacheStatus string, ndjson, gz bool) {
	ct := ctJSON
	if ndjson {
		ct = ctNDJSON
	}
	h.Set("Content-Type", ct)
	h.Set("X-Cache", cacheStatus)
	h.Set("Vary", "Accept-Encoding, Accept")
	if gz {
		h.Set("Content-Encoding", "gzip")
	}
}

// release gives the gzip writer and the buffer back to their pools.
// The handler defers it, so it runs after finish, abort, a mid-stream
// error and a panic alike; the encoder must not be used afterwards.
func (e *streamEncoder) release() {
	if e.gzip != nil {
		putGzipWriter(e.gzip)
		e.gzip = nil
	}
	if e.pooled != nil {
		if cap(e.buf) <= maxPooledBuffer {
			*e.pooled = e.buf[:0]
			responseBuffers.Put(e.pooled)
		}
		e.pooled, e.buf = nil, nil
	}
}

// series encodes one result series; now is the caller's clock reading
// at the series boundary, which the push policy is checked against. A
// series that cannot be encoded leaves no byte behind.
func (e *streamEncoder) series(qr queryResult, now time.Time) error {
	mark := len(e.buf)
	if e.n > 0 && !e.ndjson {
		e.buf = append(e.buf, ',')
	}
	buf, err := qr.appendJSON(e.buf)
	if err != nil {
		e.buf = e.buf[:mark]
		return err
	}
	if e.ndjson {
		buf = append(buf, '\n')
	}
	e.buf = buf
	e.n++
	encoded := time.Now()
	e.serialize.Add(encoded.Sub(now))
	if e.n > 1 && len(e.buf)-e.sent < flushBytes && now.Sub(e.lastPush) < flushEvery {
		return nil
	}
	e.lastPush = now
	err = e.push(false)
	e.wire.Add(time.Since(encoded))
	return err
}

// push sends the pending bytes to the client — through the gzip
// stream, sync-flushed (closed, when final) so they are decodable on
// arrival — and flushes the connection.
func (e *streamEncoder) push(final bool) error {
	var err error
	if e.gzip == nil {
		_, err = e.http.Write(e.buf[e.sent:])
	} else if _, err = e.gzip.Write(e.buf[e.sent:]); err == nil {
		if final {
			err = e.gzip.Close()
		} else {
			err = e.gzip.Flush()
		}
	}
	if e.flush != nil {
		e.flush.Flush()
	}
	e.started = true
	if e.keep = e.keep && len(e.buf) <= maxCacheBody; e.keep {
		e.sent = len(e.buf)
	} else {
		e.buf, e.sent = e.buf[:0], 0
	}
	return err
}

// finish completes the stream. A non-nil streamErr means the store
// failed mid-scan: by then a 200 and partial data may already be on
// the wire, so the encoder appends an explicit truncation marker —
// a final {"error": ...} element (JSON array) or line (NDJSON) —
// instead of ending cleanly, and the result is not cacheable. It
// returns the plain encoded body, an exact-size copy the caller owns,
// when it may be cached.
func (e *streamEncoder) finish(streamErr error) (body []byte, cacheable bool) {
	if streamErr != nil {
		marker, _ := json.Marshal(map[string]any{
			"error": map[string]any{
				"code":    http.StatusInternalServerError,
				"message": fmt.Sprintf("result truncated: %v", streamErr),
			},
		})
		if e.n > 0 && !e.ndjson {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, marker...)
		if e.ndjson {
			e.buf = append(e.buf, '\n')
		}
	}
	if !e.ndjson {
		e.buf = append(e.buf, ']')
	}
	t0 := time.Now()
	e.push(true)
	e.wire.Add(time.Since(t0))
	if streamErr != nil || !e.keep {
		return nil, false
	}
	body = make([]byte, len(e.buf))
	copy(body, e.buf)
	return body, true
}

// abort cancels a stream no byte of which has reached the client,
// clearing the streaming headers so the caller can still send a plain
// error response. Must not be called once started is set.
func (e *streamEncoder) abort() {
	h := e.http.Header()
	h.Del("Content-Encoding")
	h.Del("X-Cache")
	h.Del("Content-Type")
}
