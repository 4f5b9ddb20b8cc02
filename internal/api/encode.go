package api

// Streaming result encoding for /api/query: result series are written
// to the client one at a time as the store yields them — chunked JSON
// array by default, NDJSON (one series object per line) when the
// client sends Accept: application/x-ndjson — with gzip composing on
// top for clients that advertise it. The response is flushed after
// every series, so the first bytes reach the client while the scan is
// still running and no full result body is ever resident. While
// streaming, the plain encoded bytes are teed into a bounded buffer;
// a stream that completes under the cache's entry cap is inserted
// into the query cache, so the next aligned poll is a plain cached
// write.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
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
// that does not parse is ignored.
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
				q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				return err != nil || q > 0
			}
		}
		return true
	}
	return false
}

// gzipWriters recycles compressors: a gzip.Writer is ~1 MB of flate
// state, far more than the bodies it compresses. A plain sync.Pool,
// so the collector can reclaim idle ones.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

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

// streamEncoder writes query results incrementally. It is not safe
// for concurrent use; one request owns one encoder.
type streamEncoder struct {
	http  http.ResponseWriter
	flush http.Flusher // nil when the writer cannot flush
	gzip  *gzip.Writer // nil for identity responses
	tee   *cappedBuffer

	ndjson  bool
	started bool // response headers + array opener written
	n       int  // series written so far
}

// newStreamEncoder builds an encoder for one request. Headers are not
// written until the first series (or finish), so callers can still
// answer 4xx for errors caught before any data is produced. The caller
// must release the encoder on every exit path.
func newStreamEncoder(w http.ResponseWriter, cacheStatus string, ndjson, gz bool) *streamEncoder {
	e := &streamEncoder{http: w, ndjson: ndjson, tee: &cappedBuffer{cap: maxCacheBody}}
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

// release gives the gzip writer back to the pool. The handler defers
// it, so it runs after finish, abort, a mid-stream error and a panic
// alike; the encoder must not be used afterwards.
func (e *streamEncoder) release() {
	if e.gzip != nil {
		putGzipWriter(e.gzip)
		e.gzip = nil
	}
}

// write sends bytes to the client and the cache tee.
func (e *streamEncoder) write(p []byte) error {
	e.tee.Write(p)
	var err error
	if e.gzip != nil {
		_, err = e.gzip.Write(p)
	} else {
		_, err = e.http.Write(p)
	}
	return err
}

// begin writes the response preamble. JSON array framing opens the
// array; NDJSON has no preamble.
func (e *streamEncoder) begin() error {
	if e.started {
		return nil
	}
	e.started = true
	if !e.ndjson {
		return e.write([]byte{'['})
	}
	return nil
}

// series encodes one result series and flushes it to the client.
func (e *streamEncoder) series(qr queryResult) error {
	if err := e.begin(); err != nil {
		return err
	}
	// Call the marshaler directly: json.Marshal would re-parse the
	// output to compact it, doubling the encoding cost for nothing.
	body, err := qr.MarshalJSON()
	if err != nil {
		return err
	}
	if e.ndjson {
		body = append(body, '\n')
	} else if e.n > 0 {
		if err := e.write([]byte{','}); err != nil {
			return err
		}
	}
	if err := e.write(body); err != nil {
		return err
	}
	e.n++
	e.flushNow()
	return nil
}

// flushNow pushes buffered bytes to the wire so the client sees the
// series before the scan finishes.
func (e *streamEncoder) flushNow() {
	if e.gzip != nil {
		e.gzip.Flush()
	}
	if e.flush != nil {
		e.flush.Flush()
	}
}

// finish completes the stream. A non-nil streamErr means the store
// failed mid-scan: by then a 200 and partial data may already be on
// the wire, so the encoder appends an explicit truncation marker —
// a final {"error": ...} element (JSON array) or line (NDJSON) —
// instead of ending cleanly, and the result is not cacheable. It
// returns the plain encoded body and whether it may be cached.
func (e *streamEncoder) finish(streamErr error) (body []byte, cacheable bool) {
	e.begin()
	if streamErr != nil {
		marker, _ := json.Marshal(map[string]any{
			"error": map[string]any{
				"code":    http.StatusInternalServerError,
				"message": fmt.Sprintf("result truncated: %v", streamErr),
			},
		})
		if e.ndjson {
			marker = append(marker, '\n')
		} else if e.n > 0 {
			e.write([]byte{','})
		}
		e.write(marker)
	}
	if !e.ndjson {
		e.write([]byte{']'})
	}
	if e.gzip != nil {
		e.gzip.Close()
	}
	e.flushNow()
	return e.tee.Bytes(), streamErr == nil && !e.tee.overflowed
}

// abort cancels a stream no byte of which has been written, clearing
// the streaming headers so the caller can still send a plain error
// response. Must not be called after the first series.
func (e *streamEncoder) abort() {
	h := e.http.Header()
	h.Del("Content-Encoding")
	h.Del("X-Cache")
	h.Del("Content-Type")
}

// cappedBuffer accumulates writes up to cap bytes; one byte more and
// it discards everything and stops buffering — the stream stays
// cheap, the entry just isn't cached.
type cappedBuffer struct {
	cap        int
	buf        []byte
	overflowed bool
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if !b.overflowed {
		if len(b.buf)+len(p) > b.cap {
			b.overflowed = true
			b.buf = nil
		} else {
			b.buf = append(b.buf, p...)
		}
	}
	return len(p), nil
}

func (b *cappedBuffer) Bytes() []byte { return b.buf }
