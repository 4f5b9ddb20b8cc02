package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/tsdb"
	"repro/internal/tsdb/fsio"
)

// TestDegradedModeE2E is the ISSUE's disk-failure drill at the HTTP
// boundary: ENOSPC on every block-file write makes repeated flushes
// fail until the store degrades, after which writes answer 503 with
// Retry-After while queries keep serving, /healthz reports the
// degraded state with its originating error, and /metrics exposes
// ctt_degraded plus the per-op storage error counters.
func TestDegradedModeE2E(t *testing.T) {
	ffs := fsio.NewFaultFS(fsio.OS)
	db, err := tsdb.OpenOptions(tsdb.Options{
		Dir:             t.TempDir(),
		FlushInterval:   -1,
		CompactInterval: -1,
		FlushAge:        30 * time.Minute,
		Now:             func() time.Time { return time.Date(2017, time.April, 1, 0, 0, 0, 0, time.UTC) },
		FS:              ffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := New(db, nil, Config{})
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		srv.Close()
		g.Close()
		db.Close()
	})

	const n = 600
	const startTS = int64(1488326400) // 2017-03-01, well past FlushAge
	resp := putJSON(t, srv.URL+"/api/put", putBody(n, "air.co2", "n1", startTS))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put status = %d, want 204", resp.StatusCode)
	}
	waitIngested(t, g, n)

	// The disk fills: every block-file create fails from here on.
	ffs.SetPlan(func(op fsio.Op, path string, opn int64) *fsio.Fault {
		if op == fsio.OpCreate && strings.Contains(path, "blocks") {
			return &fsio.Fault{Err: syscall.ENOSPC}
		}
		return nil
	})
	for i := 0; i < 10 && db.Degraded() == nil; i++ {
		if _, err := db.FlushBlocks(); err == nil {
			t.Fatalf("flush %d succeeded on a full disk", i)
		}
	}
	if db.Degraded() == nil {
		t.Fatal("store did not degrade after repeated flush failures")
	}

	// Writes: 503 with a long Retry-After.
	resp = putJSON(t, srv.URL+"/api/put", putBody(1, "air.co2", "n1", startTS+n))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("put while degraded = %d (%s), want 503", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("put Retry-After = %q, want 30", got)
	}

	// Reads: still serving everything already held.
	qr, err := http.Get(srv.URL + "/api/query?start=1488326400&end=1488327100&m=avg:air.co2{sensor=*}")
	if err != nil {
		t.Fatal(err)
	}
	qbody, _ := io.ReadAll(qr.Body)
	qr.Body.Close()
	if qr.StatusCode != http.StatusOK {
		t.Fatalf("query while degraded = %d (%s), want 200", qr.StatusCode, qbody)
	}
	if !strings.Contains(string(qbody), "air.co2") {
		t.Fatalf("query body missing series: %s", qbody)
	}

	// /healthz: 503, status degraded, the cause, and Retry-After.
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while degraded = %d, want 503", hr.StatusCode)
	}
	if got := hr.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("healthz Retry-After = %q, want 30", got)
	}
	var hm map[string]any
	if err := json.Unmarshal(hbody, &hm); err != nil {
		t.Fatal(err)
	}
	if hm["status"] != "degraded" {
		t.Fatalf("healthz status = %v, want degraded", hm["status"])
	}
	if s, _ := hm["degraded_error"].(string); !strings.Contains(s, "degraded") {
		t.Fatalf("healthz degraded_error = %q, want the originating error", s)
	}

	// /metrics: the degraded gauge and per-op storage error counters.
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	ms := string(mbody)
	if !strings.Contains(ms, "ctt_degraded 1") {
		t.Fatal("metrics missing ctt_degraded 1")
	}
	if !strings.Contains(ms, `ctt_storage_errors_total{op="flush"}`) {
		t.Fatal("metrics missing flush storage error counter")
	}
	for _, line := range strings.Split(ms, "\n") {
		if strings.HasPrefix(line, `ctt_storage_errors_total{op="flush"} `) {
			if strings.TrimPrefix(line, `ctt_storage_errors_total{op="flush"} `) == "0" {
				t.Fatalf("flush storage error counter still zero: %s", line)
			}
		}
	}
}

// TestEnqueueRefsDegradedFailFast: points must not be queued for
// workers to burn on a store that is certain to reject them.
func TestEnqueueRefsDegradedFailFast(t *testing.T) {
	ffs := fsio.NewFaultFS(fsio.OS)
	db, err := tsdb.OpenOptions(tsdb.Options{
		Dir: t.TempDir(), FlushInterval: -1, CompactInterval: -1, FS: ffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g := newGateway(db, nil, Config{})
	defer g.Close()

	ffs.SetPlan(func(op fsio.Op, path string, opn int64) *fsio.Fault {
		if op == fsio.OpSync {
			return &fsio.Fault{Err: syscall.EIO}
		}
		return nil
	})
	if err := db.Sync(); err == nil {
		t.Fatal("sync succeeded through failing fsync")
	}

	ref, err := db.Intern("deg.q", map[string]string{"s": "1"})
	if err != nil {
		t.Fatal(err)
	}
	err = g.EnqueueRefs([]tsdb.RefPoint{{Ref: ref, Point: tsdb.Point{Timestamp: 1, Value: 1}}})
	if err == nil {
		t.Fatal("EnqueueRefs accepted points into a degraded store")
	}
	if len(g.queue) != 0 {
		t.Fatalf("queue holds %d points after degraded refusal", len(g.queue))
	}
}

// TestPanicRecoveryMiddleware: a panicking handler answers 500, is
// counted, and the server keeps serving afterwards.
func TestPanicRecoveryMiddleware(t *testing.T) {
	g, srv := newTestGateway(t, Config{})

	boom := true
	orig := g.exec
	g.exec = func(q tsdb.Query, yield func(tsdb.ResultSeries) error) error {
		if boom {
			panic("kaboom")
		}
		return orig(q, yield)
	}

	resp, err := http.Get(srv.URL + "/api/query?start=0&end=10&m=avg:air.co2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d (%s), want 500", resp.StatusCode, body)
	}
	if g.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", g.panics.Load())
	}

	// The next request on the same server succeeds: one poisoned
	// request did not take the process down.
	boom = false
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after recovered panic = %d, want 200", resp2.StatusCode)
	}

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(mbody), "ctt_panics_total 1") {
		t.Fatal("metrics missing ctt_panics_total 1")
	}
}

// TestHealthzSaturatedRetryAfter: saturation shedding advertises a
// short Retry-After so producers back off instead of hammering.
func TestHealthzSaturatedRetryAfter(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g := newGateway(db, nil, Config{QueueSize: 100})
	defer g.Close()
	ref, err := db.Intern("sat.ra", map[string]string{"s": "1"})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]tsdb.RefPoint, 96)
	for i := range pts {
		pts[i] = tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: int64(i + 1), Value: 1}}
	}
	if err := g.EnqueueRefs(pts); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	g.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("saturated Retry-After = %q, want 1", got)
	}
}
