package main

// Process-level end-to-end tests: build the real binary once, then
// drive primary and replica as separate OS processes over loopback —
// snapshot bootstrap, catch-up, kill-the-primary promotion, write
// availability after failover, and graceful shutdown under live
// replication + SSE streams. Skipped under -short (they compile and
// fork the binary).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// serverBinary builds ./cmd/ctt-server once per test run.
func serverBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("process e2e skipped under -short")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ctt-e2e-bin-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "ctt-server")
		cmd := exec.Command("go", "build", "-o", binPath, ".")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// freeAddr reserves a loopback port and releases it for the child
// process to claim. Racy in principle, fine over loopback in practice.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// proc is a running ctt-server child with captured output.
type proc struct {
	t    *testing.T
	name string
	cmd  *exec.Cmd
	out  *lockedBuf
	done chan error
}

type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func startProc(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, name: name, out: &lockedBuf{}, done: make(chan error, 1)}
	p.cmd = exec.Command(serverBinary(t), args...)
	p.cmd.Stdout = p.out
	p.cmd.Stderr = p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() { p.done <- p.cmd.Wait() }()
	t.Cleanup(func() {
		p.kill()
		if t.Failed() {
			t.Logf("--- %s output ---\n%s", name, p.out.String())
		}
	})
	return p
}

// kill force-terminates the child; safe to call twice.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
	}
}

// interrupt delivers SIGINT (the graceful-shutdown signal) and reports
// how long the process took to exit, failing past limit.
func (p *proc) interrupt(limit time.Duration) time.Duration {
	p.t.Helper()
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		p.t.Fatalf("signal %s: %v", p.name, err)
	}
	start := time.Now()
	select {
	case <-p.done:
		return time.Since(start)
	case <-time.After(limit):
		p.t.Fatalf("%s did not exit within %v of SIGINT\n%s", p.name, limit, p.out.String())
		return 0
	}
}

const e2eKey = "e2e-secret"

func e2eClient() *http.Client {
	return &http.Client{Timeout: 5 * time.Second}
}

func e2eReq(t *testing.T, method, url string, body []byte) *http.Request {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", e2eKey)
	return req
}

// waitHealthz polls /healthz until it answers and the given predicate
// on the JSON body holds.
func waitHealthz(t *testing.T, addr string, ok func(map[string]any) bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		resp, err := e2eClient().Get("http://" + addr + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			last = string(body)
			var m map[string]any
			if json.Unmarshal(body, &m) == nil && ok(m) {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("healthz on %s never satisfied predicate; last: %s", addr, last)
}

// e2ePut ingests points for sensor starting at sequence base.
func e2ePut(t *testing.T, addr, sensor string, base, n int) {
	t.Helper()
	type pt struct {
		Metric    string            `json:"metric"`
		Timestamp int64             `json:"timestamp"`
		Value     float64           `json:"value"`
		Tags      map[string]string `json:"tags"`
	}
	var batch []pt
	for i := 0; i < n; i++ {
		batch = append(batch, pt{
			Metric:    "m.e2e",
			Timestamp: 1488326400 + int64(base+i), // 2017-03-01, seconds
			Value:     float64(base + i),
			Tags:      map[string]string{"sensor": sensor},
		})
	}
	body, _ := json.Marshal(batch)
	resp, err := e2eClient().Do(e2eReq(t, http.MethodPost, "http://"+addr+"/api/put", body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("put to %s: %d %s", addr, resp.StatusCode, msg)
	}
}

// e2eQuery fetches the full test series from a node.
func e2eQuery(t *testing.T, addr string) string {
	t.Helper()
	url := "http://" + addr + "/api/query?start=1488240000&end=1488499200&m=sum:m.e2e{sensor=*}"
	resp, err := e2eClient().Do(e2eReq(t, http.MethodGet, url, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %s: %d %s", addr, resp.StatusCode, body)
	}
	return string(body)
}

// primaryArgs are the fast-start flags shared by every e2e primary: no
// pilot history, frozen clock, no telnet/self-scrape noise.
func primaryArgs(dataDir, addr, replAddr string) []string {
	return []string{
		"-days", "0", "-tick", "0", "-telnet", "", "-self-scrape", "0",
		"-rollup", "off", "-api-key", e2eKey,
		"-data-dir", dataDir, "-addr", addr, "-repl-listen", replAddr,
		"-wal-sync-interval", "100ms",
	}
}

func replicaArgs(dataDir, addr, primaryRepl string) []string {
	return []string{
		"-replica-of", primaryRepl, "-data-dir", dataDir, "-addr", addr,
		"-api-key", e2eKey, "-wal-sync-interval", "100ms",
	}
}

// TestE2EKillPrimaryPromote is the failover drill: ingest on the
// primary, bootstrap a replica, kill the primary without ceremony,
// promote the replica, and require both data parity and restored
// write availability.
func TestE2EKillPrimaryPromote(t *testing.T) {
	pAddr, pRepl, rAddr := freeAddr(t), freeAddr(t), freeAddr(t)

	primary := startProc(t, "primary", primaryArgs(t.TempDir(), pAddr, pRepl)...)
	waitHealthz(t, pAddr, func(m map[string]any) bool { return m["role"] == "primary" })

	e2ePut(t, pAddr, "s0", 0, 150)
	e2ePut(t, pAddr, "s1", 0, 150)
	// /api/put is batched and drained by concurrent workers: a 2xx
	// means enqueued, and chunks of one batch can commit out of order.
	// Wait for the primary's own answer to settle — every point of
	// both series, 300 timestamp keys in total — before freezing it
	// as the parity target.
	want := e2eQuery(t, pAddr)
	for settle := time.Now().Add(10 * time.Second); strings.Count(want, `"1488326`) != 300; {
		if time.Now().After(settle) {
			t.Fatalf("primary never showed both full series: %s", want)
		}
		time.Sleep(50 * time.Millisecond)
		want = e2eQuery(t, pAddr)
	}

	startProc(t, "replica", replicaArgs(t.TempDir(), rAddr, pRepl)...)
	waitHealthz(t, rAddr, func(m map[string]any) bool { return m["role"] == "replica" })

	// Catch-up: the replica must converge to a byte-identical answer.
	deadline := time.Now().Add(15 * time.Second)
	for e2eQuery(t, rAddr) != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached parity:\nprimary: %s\nreplica: %s", want, e2eQuery(t, rAddr))
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Writes are refused with the primary's address while read-only.
	resp, err := e2eClient().Do(e2eReq(t, http.MethodPost, "http://"+rAddr+"/api/put",
		[]byte(`[{"metric":"m.e2e","timestamp":1488326400,"value":1,"tags":{"sensor":"s0"}}]`)))
	if err != nil {
		t.Fatal(err)
	}
	refusal, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(refusal), pRepl) {
		t.Fatalf("replica write refusal: %d %s", resp.StatusCode, refusal)
	}

	// Hard failover: no graceful handoff, the primary just dies.
	primary.kill()

	// Promotion requires the admin key.
	noKey, err := http.Post("http://"+rAddr+"/api/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	noKey.Body.Close()
	if noKey.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unkeyed promote: got %d, want 401", noKey.StatusCode)
	}
	resp, err = e2eClient().Do(e2eReq(t, http.MethodPost, "http://"+rAddr+"/api/promote", nil))
	if err != nil {
		t.Fatal(err)
	}
	promoteBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(promoteBody), `"promoted":true`) {
		t.Fatalf("promote: %d %s", resp.StatusCode, promoteBody)
	}
	waitHealthz(t, rAddr, func(m map[string]any) bool { return m["role"] == "primary" })

	// No acknowledged point lost across the failover...
	if got := e2eQuery(t, rAddr); got != want {
		t.Fatalf("post-promotion data drift:\nwant: %s\ngot:  %s", want, got)
	}
	// ...and the promoted node accepts writes again (batched ingest:
	// poll until the enqueued batch is queryable).
	e2ePut(t, rAddr, "s2", 0, 10)
	got := e2eQuery(t, rAddr)
	for settle := time.Now().Add(10 * time.Second); !strings.Contains(got, "s2"); {
		if time.Now().After(settle) {
			t.Fatalf("post-promotion write not visible: %s", got)
		}
		time.Sleep(50 * time.Millisecond)
		got = e2eQuery(t, rAddr)
	}
}

// TestE2EGracefulShutdownBound sends SIGINT to a primary carrying a
// live replication stream and an open SSE subscriber, then to the
// replica, and requires both to exit within -shutdown-timeout plus
// slack — open streams must not wedge the drain.
func TestE2EGracefulShutdownBound(t *testing.T) {
	pAddr, pRepl, rAddr := freeAddr(t), freeAddr(t), freeAddr(t)

	primary := startProc(t, "primary",
		append(primaryArgs(t.TempDir(), pAddr, pRepl), "-shutdown-timeout", "2s")...)
	waitHealthz(t, pAddr, func(m map[string]any) bool { return m["role"] == "primary" })
	e2ePut(t, pAddr, "s0", 0, 50)

	replica := startProc(t, "replica",
		append(replicaArgs(t.TempDir(), rAddr, pRepl), "-shutdown-timeout", "2s")...)
	waitHealthz(t, rAddr, func(m map[string]any) bool { return m["role"] == "replica" })

	// Open an SSE stream against each node and hold it; the subscriber
	// never hangs up on its own.
	openSSE := func(addr string) *http.Response {
		req := e2eReq(t, http.MethodGet, "http://"+addr+"/api/stream", nil)
		resp, err := (&http.Client{}).Do(req) // no client timeout: stream stays open
		if err != nil {
			t.Fatalf("sse %s: %v", addr, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sse %s: %d", addr, resp.StatusCode)
		}
		go io.Copy(io.Discard, resp.Body)
		return resp
	}
	openSSE(pAddr)
	openSSE(rAddr)

	if took := primary.interrupt(8 * time.Second); took > 4*time.Second {
		t.Errorf("primary shutdown took %v, want within -shutdown-timeout 2s plus slack", took)
	}
	if took := replica.interrupt(8 * time.Second); took > 4*time.Second {
		t.Errorf("replica shutdown took %v, want within -shutdown-timeout 2s plus slack", took)
	}
}

// TestE2EFlagValidation exercises the conflicting-flag rejections end
// to end: each combination must exit 2 with a one-line actionable
// message, before touching any state.
func TestE2EFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"replica-without-data-dir", []string{"-replica-of", "127.0.0.1:1"}, "-replica-of requires -data-dir"},
		{"replica-with-telnet", []string{"-replica-of", "127.0.0.1:1", "-data-dir", "d", "-telnet", "127.0.0.1:4243"}, "read-only"},
		{"replica-chained", []string{"-replica-of", "127.0.0.1:1", "-data-dir", "d", "-repl-listen", "127.0.0.1:2"}, "chained replication"},
		{"wal-removed", []string{"-wal", "w"}, "-data-dir"},
		{"repl-listen-without-persistence", []string{"-repl-listen", "127.0.0.1:2"}, "requires persistence: set -data-dir so"},
		{"unknown-city", []string{"-city", "oslo"}, "unknown -city"},
		{"bad-rollup", []string{"-rollup", "1x:2h"}, "bad -rollup"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(serverBinary(t), tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("want exit 2, got err=%v out=%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("error message %q missing %q", out, tc.want)
			}
			if strings.Count(strings.TrimSpace(string(out)), "\n") != 0 {
				t.Fatalf("error message %q is not one line", out)
			}
		})
	}
}
