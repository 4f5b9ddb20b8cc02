package main

// Child-process plumbing: build the real ctt-server once, launch
// primaries and followers with the fixed flag set, watch them from the
// outside (/healthz, /metrics, /proc) and make sure none outlives the
// harness.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workRoot is where everything the harness builds or runs lives: the
// server binary and one data directory per child. It sits inside the
// checkout so a run reads and writes nowhere else.
const workRoot = ".bench_build"

// moduleRoot walks up from the working directory to the directory
// holding go.mod: ./cmd/ctt-server is built relative to it.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from the repository")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/ctt-server into workRoot and reports how
// long that took. go build leaves an up-to-date binary alone, so only
// the first run in a checkout pays.
func buildServer(ctx context.Context, root string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(root, workRoot, "ctt-server")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ctt-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/ctt-server: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// freeAddr reserves a loopback port and releases it for a child to
// claim. Racy in principle, fine over loopback in practice.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// child is one running ctt-server.
type child struct {
	name string
	cmd  *exec.Cmd
	addr string        // HTTP address
	dir  string        // data directory
	log  string        // file capturing stdout+stderr, beside the data directory
	done chan struct{} // closed once Wait returned
}

// procGroup owns every child of one workload run. kill is idempotent
// and is deferred by the run, so children are reaped on success, on a
// workload error and on a signal alike.
type procGroup struct {
	mu       sync.Mutex
	children []*child
}

// start launches bin with args, capturing its output for diagnostics.
func (g *procGroup) start(name, bin, addr, dir string, args ...string) (*child, error) {
	c := &child{name: name, addr: addr, dir: dir, log: dir + ".log", done: make(chan struct{})}
	logf, err := os.Create(c.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stdout = logf
	c.cmd.Stderr = logf
	dieWithParent(c.cmd)
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = c.cmd.Wait() // exit status is irrelevant: children are killed
		close(c.done)
	}()
	g.mu.Lock()
	g.children = append(g.children, c)
	g.mu.Unlock()
	return c, nil
}

// kill terminates every child and waits until each has been reaped.
func (g *procGroup) kill() {
	g.mu.Lock()
	children := g.children
	g.children = nil
	g.mu.Unlock()
	for _, c := range children {
		_ = c.cmd.Process.Kill() // already-exited children report an error
	}
	for _, c := range children {
		<-c.done
	}
}

// exited reports whether the child has already terminated.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// logTail returns the last lines of the child's output for an error
// message.
func (c *child) logTail() string {
	data, _ := os.ReadFile(c.log) // best effort: this only decorates an error
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 12 {
		lines = lines[len(lines)-12:]
	}
	return strings.Join(lines, "\n")
}

// serverFlags is the fixed primary configuration, stated once (see
// README.md "Fixed server configuration"). Only the seed and the
// run-time addresses and directory vary.
func serverFlags(seed int64, dir, addr, telnet, repl string) []string {
	return []string{
		"-city", "trondheim", "-days", "7", "-seed", strconv.FormatInt(seed, 10), "-tick", "0",
		"-data-dir", dir, "-flush-interval", "2s", "-compact-interval", "5s",
		"-repl-listen", repl, "-addr", addr, "-telnet", telnet,
	}
}

// followerFlags mirrors the primary's storage cadence on the replica.
func followerFlags(dir, addr, primaryRepl string) []string {
	return []string{
		"-replica-of", primaryRepl, "-data-dir", dir, "-addr", addr,
		"-flush-interval", "2s", "-compact-interval", "5s",
	}
}

// opsClient talks to /healthz and /metrics. It is separate from the
// measurement connections so scrapes never queue behind load.
var opsClient = &http.Client{Timeout: 5 * time.Second}

// healthz fetches and decodes /healthz; the status code is returned
// because a saturated server answers 503 with the same body shape.
func (c *child) healthz() (map[string]any, int, error) {
	resp, err := opsClient.Get("http://" + c.addr + "/healthz")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("%s /healthz: %w", c.name, err)
	}
	return m, resp.StatusCode, nil
}

// waitHealthy polls /healthz every 10 ms until ready(m) holds on a 200
// answer, the child dies, or the deadline passes.
func (c *child) waitHealthy(ctx context.Context, limit time.Duration, ready func(m map[string]any) bool) error {
	deadline := time.Now().Add(limit)
	for {
		if c.exited() {
			return fmt.Errorf("%s exited during start-up:\n%s", c.name, c.logTail())
		}
		if m, code, err := c.healthz(); err == nil && code == http.StatusOK && ready(m) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within %v:\n%s", c.name, limit, c.logTail())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// serving is the set-up condition of a primary: /healthz answers ok,
// which ctt-server only does once the history is fast-forwarded (its
// flusher has been running all the while).
func serving(m map[string]any) bool { return m["status"] == "ok" }

// scrape is one parsed /metrics exposition: every sample line keyed by
// its full name, labels included, exactly as printed.
type scrape map[string]float64

// parseScrape reads Prometheus text format. Comment lines, blank
// lines and lines it cannot parse are skipped: the harness only ever
// asks for series by name and treats a missing one as absent.
func parseScrape(r io.Reader) scrape {
	s := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label block;
		// an OpenMetrics exemplar (" # {...}") is cut off first.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		end := strings.LastIndexByte(line, '}')
		sp := strings.IndexByte(line[end+1:], ' ')
		if sp < 0 {
			continue
		}
		name := line[:end+1+sp]
		fields := strings.Fields(line[end+1+sp:])
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		s[name] = v
	}
	return s
}

// metrics scrapes the child's /metrics.
func (c *child) metrics() (scrape, error) {
	resp, err := opsClient.Get("http://" + c.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: status %d", c.name, resp.StatusCode)
	}
	return parseScrape(resp.Body), nil
}

// delta returns after[name]-before[name]; ok is false when the series
// is absent from either scrape.
func delta(before, after scrape, name string) (float64, bool) {
	a, okA := after[name]
	b, okB := before[name]
	return a - b, okA && okB
}

// histMean returns the mean observation, in seconds, of the unlabelled
// histogram name between two scrapes; ok is false when the series is
// absent or saw nothing.
func histMean(before, after scrape, name string) (float64, bool) {
	sum, ok1 := delta(before, after, name+"_sum")
	cnt, ok2 := delta(before, after, name+"_count")
	if !ok1 || !ok2 || cnt <= 0 {
		return 0, false
	}
	return sum / cnt, true
}

// procStatusMB reads one kB-valued field (VmHWM, VmRSS) of the child's
// /proc status, in MB.
func (c *child) procStatusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line in /proc status", field)
}

// cpuTime reads the child's cumulative user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in 10 ms ticks). Zero when the
// process is gone: the caller's next health check reports that.
func (c *child) cpuTime() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name, field 2, is parenthesised and may hold spaces.
	fields := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+1:]))
	if len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond
}

// dirBytes sums the regular files under dir, whatever they are called.
// Files that vanish mid-walk (a flush renaming a tmp file) are skipped.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
