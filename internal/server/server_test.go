package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const testKey = "server-test-key"

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// testPrimary is a primary that starts in milliseconds: no pilot
// history, a frozen clock, no rollup engine, telnet or self-scrape.
func testPrimary(t *testing.T) Config {
	cfg := DefaultConfig()
	cfg.Days, cfg.Tick, cfg.Rollup, cfg.SelfScrape = 0, 0, "off", 0
	cfg.Addr, cfg.Telnet, cfg.ReplListen = "127.0.0.1:0", "", "127.0.0.1:0"
	cfg.DataDir, cfg.APIKey, cfg.WALSyncInterval = t.TempDir(), testKey, 100*time.Millisecond
	return cfg
}

// start validates cfg, listens and runs the server until the test
// ends, then closes it and checks Run's and Close's errors.
func start(t *testing.T, cfg Config) *Server {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	s := New(cfg, quiet)
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- s.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-ran; err != nil {
			t.Errorf("Run: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://"+s.Config().Addr+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", testKey)
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// waitFor polls until ok holds, failing with what last was seen.
func waitFor(t *testing.T, what string, ok func() (bool, string)) {
	t.Helper()
	var last string
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		var done bool
		if done, last = ok(); done {
			return
		}
	}
	t.Fatalf("%s: never; last: %s", what, last)
}

func waitRole(t *testing.T, s *Server, role string) {
	t.Helper()
	waitFor(t, "role "+role, func() (bool, string) {
		code, body := get(t, s, "/healthz")
		var m map[string]any
		return code == http.StatusOK && json.Unmarshal([]byte(body), &m) == nil && m["role"] == role, body
	})
}

// TestPrimaryFollowerParity builds a primary and a follower through
// New in one process and requires the follower to answer /api/query
// byte for byte as the primary does.
func TestPrimaryFollowerParity(t *testing.T) {
	primary := start(t, testPrimary(t))
	waitRole(t, primary, "primary")

	var batch bytes.Buffer
	batch.WriteByte('[')
	for i := 0; i < 200; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, `{"metric":"m.parity","timestamp":%d,"value":%d,"tags":{"sensor":"s%d"}}`, 1488326400+i, i, i%2)
	}
	batch.WriteByte(']')
	req, _ := http.NewRequest(http.MethodPost, "http://"+primary.Config().Addr+"/api/put", &batch)
	req.Header.Set("X-API-Key", testKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("put: %d", resp.StatusCode)
	}
	// A 2xx means enqueued: wait until every point is queryable.
	const query = "/api/query?start=1488326000&end=1488327000&m=sum:m.parity{sensor=*}"
	var want string
	waitFor(t, "primary holds 200 timestamps", func() (bool, string) {
		_, want = get(t, primary, query)
		return strings.Count(want, `"14883`) == 200, want
	})

	follower := DefaultConfig()
	follower.ReplicaOf, follower.DataDir, follower.APIKey = primary.Config().ReplListen, t.TempDir(), testKey
	follower.Addr, follower.Telnet = "127.0.0.1:0", ""
	replica := start(t, follower)
	waitRole(t, replica, "replica")
	waitFor(t, "follower parity", func() (bool, string) {
		code, got := get(t, replica, query)
		return code == http.StatusOK && got == want, got
	})
}

// TestHealthzStartingBeforeRun: between Listen and serving, /healthz
// answers 503 {"status":"starting"} with no role, and nothing is
// written to the data directory.
func TestHealthzStartingBeforeRun(t *testing.T) {
	cfg := testPrimary(t)
	cfg.DataDir = filepath.Join(cfg.DataDir, "data")
	s := New(cfg, quiet)
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, s, "/healthz")
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if code != http.StatusServiceUnavailable || m["status"] != "starting" || len(m) != 1 {
		t.Fatalf("healthz before Run: %d %s", code, body)
	}
	if _, err := os.Stat(cfg.DataDir); !os.IsNotExist(err) {
		t.Fatalf("Listen touched the data dir: %v", err)
	}
}

// TestListenBusyPortTouchesNoState holds the telnet port: Listen must
// fail naming the flag, leave no listener bound and the data
// directory uncreated.
func TestListenBusyPortTouchesNoState(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	free.Close()

	cfg := testPrimary(t)
	cfg.DataDir = filepath.Join(cfg.DataDir, "data")
	cfg.Addr, cfg.Telnet = free.Addr().String(), held.Addr().String()
	s := New(cfg, quiet)
	if err := s.Listen(); err == nil || !strings.Contains(err.Error(), "-telnet") {
		t.Fatalf("Listen with the telnet port held: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after a failed Listen: %v", err)
	}
	if _, err := os.Stat(cfg.DataDir); !os.IsNotExist(err) {
		t.Fatalf("a failed Listen touched the data dir: %v", err)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		t.Fatalf("the HTTP port stayed bound after a failed Listen: %v", err)
	}
	ln.Close()
}
