package api

// Tests for the two-encoding query cache and the pooled gzip writers:
// a gzip hit is byte-for-byte the identity hit, both variants are
// accounted and dropped together, a variant never outlives or
// mismatches the body it was built from, and a pooled writer carries
// nothing over from a stream that failed, was aborted or panicked.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// qvalue is RFC 9110's weight grammar: "0" ["." 0*3DIGIT] /
// "1" ["." 0*3("0")].
var qvalue = regexp.MustCompile(`^(0(\.[0-9]{0,3})?|1(\.0{0,3})?)$`)

// refAccepts is accepts read straight off the grammar: the first
// element naming token (or wildcard) decides; its first q parameter
// refuses only when it is a qvalue equal to zero.
func refAccepts(header, token, wildcard string) bool {
	for _, elem := range strings.Split(header, ",") {
		params := strings.Split(elem, ";")
		if name := strings.TrimSpace(params[0]); name != token && (wildcard == "" || name != wildcard) {
			continue
		}
		for _, param := range params[1:] {
			k, v, _ := strings.Cut(param, "=")
			if !strings.EqualFold(strings.TrimSpace(k), "q") {
				continue
			}
			v = strings.TrimSpace(v)
			if !qvalue.MatchString(v) {
				return true // not a weight: ignored
			}
			q, err := strconv.ParseFloat(v, 64)
			return err != nil || q > 0
		}
		return true
	}
	return false
}

// FuzzAccepts holds accepts to refAccepts on Accept-Encoding (gzip
// with the "*" wildcard) and Accept (NDJSON, no wildcard) headers.
func FuzzAccepts(f *testing.F) {
	for _, h := range []string{"", "gzip", "gzip;q=0", "gzip;q=0.000", "gzip;q=NaN", "gzip;q=-1", "gzip;q=+0",
		"br;q=1.0, gzip;q=0.000", "identity, *;q=0.000", "application/x-ndjson ; charset=utf-8 ; q=0.00",
		"application/json, application/x-ndjson;q=0.5", " gzip ;  Q=0. "} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, header string) {
		for _, c := range [][2]string{{"gzip", "*"}, {ctNDJSON, ""}} {
			if got, want := accepts(header, c[0], c[1]), refAccepts(header, c[0], c[1]); got != want {
				t.Fatalf("accepts(%q, %q, %q) = %v, reference %v", header, c[0], c[1], got, want)
			}
		}
	})
}

func TestAcceptQValues(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"deflate, gzip", true},
		{"deflate", false},
		{"gzip;q=0", false},
		{"gzip;q=0.0", false},
		{"gzip;q=0.00", false},
		{"gzip;q=0.000", false},
		{"gzip;q=0.5", true},
		{"gzip;q=0.001", true},
		{"gzip;q=1", true},
		{"gzip ; q = 0.000", false},
		{"  gzip ;  Q=0.5 ", true},
		{"br;q=1.0, gzip;q=0.000", false},
		{"*", true},
		{"*;q=0", false},
		{"identity, *;q=0.000", false},
		{"gzip;q=bogus", true},
		{"gzip;q=0.", false},
		{"gzip;q=NaN", true},
		{"gzip;q=-1", true},
		{"gzip;q=+0", true},
		{"gzip;q=-0", true},
		{"gzip;q=0e0", true},
		{"gzip;q=0x0", true},
		{"gzip;q=0.0000", true},
		{"gzip;q=1.000", true},
	} {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if tc.header != "" {
			r.Header.Set("Accept-Encoding", tc.header)
		}
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"*/*", false},
		{"application/json", false},
		{"application/x-ndjson", true},
		{"application/json, application/x-ndjson;q=0.5", true},
		{"application/x-ndjson;q=0", false},
		{"application/x-ndjson;q=0.000", false},
		{"application/x-ndjson ; charset=utf-8 ; q=0.00", false},
	} {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if tc.header != "" {
			r.Header.Set("Accept", tc.header)
		}
		if got := wantsNDJSON(r); got != tc.want {
			t.Errorf("wantsNDJSON(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// rawGet issues one query with explicit Accept/Accept-Encoding headers
// straight through the transport, so nothing is decoded on the way
// back: the returned body is the wire bytes.
func rawGet(t *testing.T, url, accept, encoding string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	req.Header.Set("Accept-Encoding", encoding)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", encoding, err)
	}
	return resp, body
}

func gunzipBytes(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	plain, err := gunzipBytes(b)
	if err != nil {
		t.Fatalf("body is not a valid gzip stream: %v", err)
	}
	return plain
}

// TestQueryCacheGzipVariant: whichever encoding filled the entry, a
// gzip hit gunzips byte-for-byte to the identity hit and to the miss
// answer, in both framings, and a hit of either kind carries the
// length of exactly the bytes it sends.
func TestQueryCacheGzipVariant(t *testing.T) {
	db, g, srv := newStreamTestGateway(t, Config{CacheAlign: time.Hour})
	seedWide(t, db, 5, 20)

	for i, tc := range []struct{ name, accept, fill string }{
		{"json/identity-first", "", "identity"},
		{"json/gzip-first", "", "gzip"},
		{"ndjson/identity-first", ctNDJSON, "identity"},
		{"ndjson/gzip-first", ctNDJSON, "gzip"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A distinct end per case keeps the cases on distinct keys.
			url := fmt.Sprintf("%s/api/query?start=1488326400&end=%d&m=avg:air.co2{sensor=*}", srv.URL, 1488330000+i*3600)
			resp, miss := rawGet(t, url, tc.accept, tc.fill)
			if c := resp.Header.Get("X-Cache"); c != "miss" {
				t.Fatalf("first request X-Cache = %q, want miss", c)
			}
			if tc.fill == "gzip" {
				miss = gunzip(t, miss)
			}
			if len(miss) < 100 {
				t.Fatalf("miss body suspiciously short: %q", miss)
			}

			check := func(encoding string) []byte {
				t.Helper()
				resp, wire := rawGet(t, url, tc.accept, encoding)
				h := resp.Header
				if c := h.Get("X-Cache"); c != "hit" {
					t.Fatalf("%s: X-Cache = %q, want hit", encoding, c)
				}
				if v := h.Get("Vary"); v != "Accept-Encoding, Accept" {
					t.Errorf("%s: Vary = %q", encoding, v)
				}
				if cl := h.Get("Content-Length"); cl != strconv.Itoa(len(wire)) {
					t.Errorf("%s: Content-Length = %q for %d wire bytes", encoding, cl, len(wire))
				}
				wantEnc := ""
				if encoding == "gzip" {
					wantEnc = "gzip"
				}
				if ce := h.Get("Content-Encoding"); ce != wantEnc {
					t.Errorf("%s: Content-Encoding = %q, want %q", encoding, ce, wantEnc)
				}
				return wire
			}
			if hit := check("identity"); !bytes.Equal(hit, miss) {
				t.Errorf("identity hit differs from the miss answer")
			}
			_, before := g.cache.size()
			z1 := check("gzip")
			if plain := gunzip(t, z1); !bytes.Equal(plain, miss) {
				t.Errorf("gzip hit gunzips to %d bytes that differ from the %d-byte miss answer", len(plain), len(miss))
			}
			if _, after := g.cache.size(); after != before+len(z1) {
				t.Errorf("cache bytes %d -> %d after the first gzip hit, want +%d", before, after, len(z1))
			}
			if z2 := check("gzip"); !bytes.Equal(z1, z2) {
				t.Errorf("second gzip hit sent different bytes: the variant was not kept")
			}
			if _, again := g.cache.size(); again != before+len(z1) {
				t.Errorf("cache bytes moved on the second gzip hit: %d, want %d", again, before+len(z1))
			}
		})
	}
}

// TestCacheVariantAccounting: the gzip variant's bytes count against
// the cache total and leave with the entry, whichever way it leaves.
func TestCacheVariantAccounting(t *testing.T) {
	body := bytes.Repeat([]byte(`{"metric":"m","dps":{}}`), 50)

	c := newQueryCache(10)
	c.put("a", body, 0, 100, []string{"m"}, nil)
	c.put("b", body, 0, 100, []string{"m"}, nil)
	za, _ := c.get("a", true)
	zb, _ := c.get("b", true)
	if n, b := c.size(); n != 2 || b != 2*len(body)+len(za)+len(zb) {
		t.Fatalf("size = %d entries / %d bytes, want 2 / %d", n, b, 2*len(body)+len(za)+len(zb))
	}
	// A re-put under the same key drops the old variant with the old body.
	c.put("a", []byte("new"), 0, 100, []string{"m"}, nil)
	if _, b := c.size(); b != len("new")+len(body)+len(zb) {
		t.Fatalf("bytes after re-put = %d, want %d", b, len("new")+len(body)+len(zb))
	}
	if z, _ := c.get("a", true); string(gunzip(t, z)) != "new" {
		t.Fatalf("gzip hit after re-put serves the old body's variant")
	}
	c.invalidate("m", 50)
	if n, b := c.size(); n != 0 || b != 0 {
		t.Fatalf("after invalidate: %d entries / %d bytes, want 0 / 0", n, b)
	}

	// LRU eviction by entry count.
	c = newQueryCache(1)
	c.put("a", body, 0, 100, []string{"m"}, nil)
	c.get("a", true)
	c.put("b", body, 0, 100, []string{"m"}, nil)
	if n, b := c.size(); n != 1 || b != len(body) {
		t.Fatalf("after LRU eviction: %d entries / %d bytes, want 1 / %d", n, b, len(body))
	}
	c.invalidate("m", 50)
	if n, b := c.size(); n != 0 || b != 0 {
		t.Fatalf("after evict + invalidate: %d entries / %d bytes, want 0 / 0", n, b)
	}

	// Byte bound: fill to exactly maxCacheBytes with plain bodies, then
	// one gzip variant pushes past it and the oldest entry goes.
	c = newQueryCache(1000)
	n := maxCacheBytes / maxCacheBody
	for i := 0; i < n; i++ {
		c.put(fmt.Sprintf("k%03d", i), make([]byte, maxCacheBody), 0, 0, nil, nil)
	}
	if c.bytes != maxCacheBytes {
		t.Fatalf("fill left %d bytes, want exactly %d", c.bytes, maxCacheBytes)
	}
	newest := fmt.Sprintf("k%03d", n-1)
	z, ok := c.get(newest, true)
	if !ok || len(z) == 0 {
		t.Fatal("gzip hit on the newest entry failed")
	}
	if c.bytes > maxCacheBytes {
		t.Errorf("cache holds %d bytes, cap %d", c.bytes, maxCacheBytes)
	}
	if _, ok := c.get("k000", false); ok {
		t.Error("oldest entry survived the variant pushing past the byte bound")
	}
	if e := c.entries[newest].Value.(*cacheEntry); !bytes.Equal(e.gz, z) {
		t.Error("the variant that caused the eviction was not kept")
	}
}

// TestCacheVariantConcurrent hammers one key with gzip hits, identity
// hits, re-puts of a changed body and invalidations. No gzip hit may
// carry the compression of a body other than the one an identity hit
// on the same entry gets: the install-after-compress step must lose to
// any put or invalidate in between.
func TestCacheVariantConcurrent(t *testing.T) {
	c := newQueryCache(4)
	body := func(v int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf(`{"v":%d}`, v)), 200)
	}
	// seq is odd while a put is in flight, so a reader whose two gets
	// fall inside one even, unchanged value saw a single entry.
	var seq atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					f(i)
				}
			}
		}()
	}
	worker(func(i int) {
		seq.Add(1)
		c.put("k", body(i), 0, 100, []string{"m"}, nil)
		seq.Add(1)
		// Leave the entry alone long enough for readers to hit it — and
		// for a stale variant, were one installed, to be served.
		time.Sleep(200 * time.Microsecond)
	})
	worker(func(i int) {
		if i%64 == 0 {
			c.invalidate("m", 50)
		}
		runtime.Gosched()
	})
	var compared atomic.Int64
	for r := 0; r < 4; r++ {
		worker(func(int) {
			before := seq.Load()
			z, okZ := c.get("k", true)
			plain, okP := c.get("k", false)
			if !okZ || !okP || before%2 != 0 || seq.Load() != before {
				return
			}
			if got, err := gunzipBytes(z); err != nil || !bytes.Equal(got, plain) {
				t.Errorf("gzip hit carries %.20q..., its identity twin %.20q... (err %v)", got, plain, err)
			}
			compared.Add(1)
		})
	}
	// The same invariant, and the byte accounting, under the cache's
	// own lock.
	worker(func(int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		total := 0
		for _, el := range c.entries {
			e := el.Value.(*cacheEntry)
			total += len(e.body) + len(e.gz)
			if e.gz == nil {
				continue
			}
			if got, err := gunzipBytes(e.gz); err != nil || !bytes.Equal(got, e.body) {
				t.Errorf("entry holds the gzip of another body (err %v)", err)
			}
		}
		if total != c.bytes {
			t.Errorf("cache accounts %d bytes, entries hold %d", c.bytes, total)
		}
	})

	// Run until enough pairs were compared inside one stable window
	// each, however slowly the race detector schedules the workers.
	for deadline := time.Now().Add(10 * time.Second); compared.Load() < 200 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if compared.Load() == 0 {
		t.Error("no gzip/identity pair was ever compared: the test checked nothing")
	}
	c.invalidate("m", 50)
	if n, b := c.size(); n != 0 || b != 0 {
		t.Fatalf("after final invalidate: %d entries / %d bytes, want 0 / 0", n, b)
	}
}

// TestGzipWriterPoolCarriesNoState: a gzip stream that ends in a
// mid-stream error, is aborted before its first byte, or dies in a
// handler panic gives its writer back to the pool; the clean gzip
// query that follows (and may draw that writer) must be a valid gzip
// stream of the right answer.
func TestGzipWriterPoolCarriesNoState(t *testing.T) {
	db, g, srv := newStreamTestGateway(t, Config{CacheSize: -1})
	seedWide(t, db, 5, 20)
	real := g.exec
	_, want := rawGet(t, srv.URL+wideQuery, "", "identity")

	boom := errors.New("block decode failed")
	one := tsdb.ResultSeries{
		Metric: "air.co2", Tags: map[string]string{"sensor": "ok"},
		Points: []tsdb.Point{{Timestamp: 1000, Value: 1}},
	}
	broken := []struct {
		name  string
		exec  func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error
		check func(resp *http.Response, wire []byte)
	}{
		{"mid-stream error", func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error {
			if err := yield(one); err != nil {
				return err
			}
			return boom
		}, func(resp *http.Response, wire []byte) {
			if resp.StatusCode != http.StatusOK || !bytes.Contains(gunzip(t, wire), []byte("result truncated")) {
				t.Errorf("mid-stream error: status %d, no truncation marker in the gzip body", resp.StatusCode)
			}
		}},
		{"abort", func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error { return boom },
			func(resp *http.Response, wire []byte) {
				if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("Content-Encoding") != "" {
					t.Errorf("abort: status %d, Content-Encoding %q", resp.StatusCode, resp.Header.Get("Content-Encoding"))
				}
			}},
		{"panic", func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error {
			yield(one)
			panic("scan blew up")
		}, nil},
	}
	for round := 0; round < 5; round++ {
		for _, b := range broken {
			g.exec = b.exec
			if b.check != nil {
				resp, wire := rawGet(t, srv.URL+wideQuery, "", "gzip")
				b.check(resp, wire)
			} else {
				// The recovered panic cuts the response short; only the
				// state it leaves behind matters here.
				req, _ := http.NewRequest(http.MethodGet, srv.URL+wideQuery, nil)
				req.Header.Set("Accept-Encoding", "gzip")
				if resp, err := http.DefaultTransport.RoundTrip(req); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			g.exec = real
			resp, wire := rawGet(t, srv.URL+wideQuery, "", "gzip")
			if resp.Header.Get("Content-Encoding") != "gzip" {
				t.Fatalf("after %s: clean query not gzip-encoded", b.name)
			}
			if got := gunzip(t, wire); !bytes.Equal(got, want) {
				t.Fatalf("after %s: clean gzip query gunzips to %d bytes, want the %d-byte identity answer", b.name, len(got), len(want))
			}
		}
	}
}
