package api

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rollup"
)

// goldenShapes are ctt-bench's five dashboard panels plus the two
// explore shapes that scan raw points: the answers a pilot's users ask
// for. Ranges start and end mid-bucket, so tier-served answers include
// both raw edges.
var goldenShapes = []struct {
	name, m string
	from    time.Duration // range start, after the pilot's
	length  time.Duration
}{
	{"co2", "avg:1h-avg:air.co2{sensor=*}", 77*time.Minute + 17*time.Second, 27 * time.Hour},
	{"co2top", "topk(5,avg:1h-avg:air.co2{sensor=*})", 77*time.Minute + 17*time.Second, 27 * time.Hour},
	{"no2", "avg:1h-avg:air.no2", 3 * time.Hour, 26*time.Hour + 30*time.Minute},
	{"traffic", "avg:30m-avg:traffic.jamfactor", 45 * time.Minute, 24 * time.Hour},
	{"battery", "avg:1h-avg:node.battery{sensor=*}", 0, 29*time.Hour + 59*time.Minute},
	{"raw", "avg:air.co2{sensor=*}", 20 * time.Hour, 6 * time.Hour},
	{"7m", "avg:7m-avg:air.no2{sensor=*}", 10*time.Hour + 3*time.Minute, 12 * time.Hour},
}

// TestColdBodiesMatchParent: testdata/cold_<shape>.json are the JSON
// bodies commit 611481e — the encoder that marshaled each series into
// a fresh buffer and flushed it on its own, the planner that read tiers
// by name — answered these queries with, over core.TrondheimConfig(18)
// run for 30 h under ctt-server's rollup tiers. Recipe: copy this file
// into a checkout of that commit and run
//
//	CTT_GOLDEN_UPDATE=1 go test ./internal/api -run TestColdBodiesMatchParent
//
// then copy its internal/api/testdata/ back. Every way the gateway can
// produce the answer must give those bytes: cold and from the cache,
// plain and gzipped, and as NDJSON the same series objects one a line.
func TestColdBodiesMatchParent(t *testing.T) {
	sys, err := core.New(core.TrondheimConfig(18))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	eng, err := rollup.New(sys.DB, rollup.Config{
		Tiers: []rollup.Tier{
			{Resolution: time.Minute, Retention: 7 * 24 * time.Hour},
			{Resolution: time.Hour, Retention: 90 * 24 * time.Hour},
		},
		Grace: time.Minute, FlushEvery: -1, Now: sys.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := sys.Run(30 * time.Hour); err != nil {
		t.Fatal(err)
	}
	eng.Flush(sys.Now())

	// One gateway per encoding, so each sees every query first as a
	// miss and then as a hit.
	handlers := map[string]http.Handler{}
	for _, encoding := range []string{"identity", "gzip"} {
		gw := New(sys.DB, nil, Config{Now: sys.Now})
		defer gw.Close()
		handlers[encoding] = gw.Handler()
	}
	get := func(url, accept, encoding, wantCache string) []byte {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("Accept", accept)
		req.Header.Set("Accept-Encoding", encoding)
		rec := httptest.NewRecorder()
		handlers[encoding].ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != wantCache {
			t.Fatalf("%s (%s, %s): status %d, X-Cache %q, want 200 %s", url, accept, encoding, rec.Code, rec.Header().Get("X-Cache"), wantCache)
		}
		body := rec.Body.Bytes()
		if encoding == "gzip" {
			zr, err := gzip.NewReader(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", url, err)
			}
			if body, err = io.ReadAll(zr); err != nil {
				t.Fatalf("%s: %v", url, err)
			}
		}
		return body
	}

	for _, shape := range goldenShapes {
		start := sys.Start.Add(shape.from)
		url := fmt.Sprintf("/api/query?start=%d&end=%d&m=%s", start.UnixMilli(), start.Add(shape.length).UnixMilli(), shape.m)
		path := filepath.Join("testdata", "cold_"+shape.name+".json")
		if os.Getenv("CTT_GOLDEN_UPDATE") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, get(url, ctJSON, "identity", "miss"), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want := map[string][]byte{}
		if want[ctJSON], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		var elems []json.RawMessage
		if err := json.Unmarshal(want[ctJSON], &elems); err != nil || len(elems) == 0 {
			t.Fatalf("%s: %d series (%v); a golden body must hold data", path, len(elems), err)
		}
		for _, el := range elems {
			want[ctNDJSON] = append(append(want[ctNDJSON], el...), '\n')
		}
		for _, accept := range []string{ctJSON, ctNDJSON} {
			for _, encoding := range []string{"identity", "gzip"} {
				for _, cache := range []string{"miss", "hit"} {
					if got := get(url, accept, encoding, cache); !bytes.Equal(got, want[accept]) {
						t.Errorf("%s as %s, %s, cache %s: %d bytes differ from the parent's %d (first difference at byte %d)",
							shape.name, accept, encoding, cache, len(got), len(want[accept]), firstDiff(got, want[accept]))
					}
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
