package api

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// diskE2EOpen opens a durable-block store in dir and serves it through
// a fresh gateway — one "process" of the restart test.
func diskE2EOpen(t *testing.T, dir string) (*tsdb.DB, *Gateway, *httptest.Server) {
	t.Helper()
	db, err := tsdb.OpenOptions(tsdb.Options{
		Dir:             dir,
		FlushInterval:   -1, // tests drive FlushBlocks explicitly
		CompactInterval: -1,
		FlushAge:        30 * time.Minute,
		Now:             func() time.Time { return time.Date(2017, time.April, 1, 0, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	g := New(db, nil, Config{})
	srv := httptest.NewServer(g.Handler())
	return db, g, srv
}

// TestDiskRestartE2E is the ISSUE's end-to-end durability check at the
// HTTP boundary: ingest through /api/put, flush to block files, tear
// the whole stack down, restart over the same data dir, and require
// the /api/query response bytes to be identical — the flushed history
// now comes off disk (and the truncated WAL tail), not the old heap.
func TestDiskRestartE2E(t *testing.T) {
	dir := t.TempDir()
	db, g, srv := diskE2EOpen(t, dir)

	const n = 600
	const startTS = int64(1488326400) // 2017-03-01 00:00:00 UTC, seconds
	resp := putJSON(t, srv.URL+"/api/put", putBody(n, "air.co2", "n1", startTS))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put status = %d, want 204", resp.StatusCode)
	}
	waitIngested(t, g, n)

	if _, err := db.FlushBlocks(); err != nil {
		t.Fatal(err)
	}
	st := db.DiskStats()
	if st.Files == 0 {
		t.Fatalf("no block files after flush: %+v", st)
	}
	walAfterFlush := db.WALBytes()

	queryURL := srv.URL + "/api/query?start=" + "1488326400" + "&end=" + "1488327100" +
		"&m=avg:air.co2{sensor=*}"
	readBody := func(url string) []byte {
		t.Helper()
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("query status = %d, want 200", r.StatusCode)
		}
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := readBody(queryURL)

	// "Restart": close the gateway and store completely, reopen over
	// the same directory.
	srv.Close()
	g.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, g2, srv2 := diskE2EOpen(t, dir)
	defer func() { srv2.Close(); g2.Close(); db2.Close() }()

	if got := db2.DiskStats().Files; got == 0 {
		t.Fatal("restart found no block files")
	}
	if got := db2.WALBytes(); got > walAfterFlush {
		t.Fatalf("WAL grew across restart: %d > %d", got, walAfterFlush)
	}
	if got := db2.PointCount(); got != n {
		t.Fatalf("PointCount after restart = %d, want %d", got, n)
	}
	queryURL2 := srv2.URL + "/api/query?start=" + "1488326400" + "&end=" + "1488327100" +
		"&m=avg:air.co2{sensor=*}"
	after := readBody(queryURL2)
	if string(before) != string(after) {
		t.Fatalf("query bytes differ across restart:\nbefore: %s\nafter:  %s", before, after)
	}

	// /healthz must now carry the disk fields.
	hr, err := http.Get(srv2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	for _, want := range []string{`"disk_block_files"`, `"disk_bytes"`, `"wal_truncation_pending"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/healthz missing %s: %s", want, body)
		}
	}
}
