package main

// One workload's deployment: a fresh disk-backed primary, optionally a
// follower, their set-up time, and the outside view of both around the
// measured window (/metrics deltas, follower lag, peak RSS, the
// generator's own CPU).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// env is what every workload run shares.
type env struct {
	ctx     context.Context
	root    string // module root
	bin     string // built ctt-server
	seed    int64
	window  time.Duration
	workers int // load-generator goroutines: min(2, nproc)
}

// warmup runs before every measured window and is discarded.
const warmup = 3 * time.Second

type cluster struct {
	group    *procGroup
	primary  *child
	follower *child // nil without one
	replAddr string
	setupS   float64
}

// startCluster launches the primary (and follower) under a fresh
// directory in workRoot and measures set-up: exec of the primary until
// it serves, the 7-day history fast-forwarded through the paper's
// pipeline, plus — with a follower — the follower's exec until it
// holds every point the primary holds.
func startCluster(e *env, withFollower bool) (_ *cluster, err error) {
	base, err := os.MkdirTemp(filepath.Join(e.root, workRoot), "run-")
	if err != nil {
		return nil, err
	}
	cl := &cluster{group: &procGroup{}}
	defer func() {
		if err != nil {
			cl.stop()
		}
	}()
	var addrs [4]string
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return nil, err
		}
	}
	cl.replAddr = addrs[2]
	pdir := filepath.Join(base, "primary")
	begin := time.Now()
	cl.primary, err = cl.group.start("primary", e.bin, addrs[0], pdir,
		serverFlags(e.seed, pdir, addrs[0], addrs[1], cl.replAddr)...)
	if err != nil {
		return nil, err
	}
	if err := cl.primary.waitHealthy(e.ctx, 90*time.Second, serving); err != nil {
		return nil, err
	}
	setup := time.Since(begin)
	// Untimed: let one flush pass run on the serving primary, so every
	// run starts from the same store state (all history older than
	// flush-age in block files, WAL down to the live tail) whatever
	// phase the 2 s flush ticker was in when the fast-forward ended.
	if err := cl.settle(e.ctx, 30*time.Second); err != nil {
		return nil, err
	}
	if withFollower {
		begin = time.Now()
		fdir := filepath.Join(base, "follower")
		cl.follower, err = cl.group.start("follower", e.bin, addrs[3], fdir,
			followerFlags(fdir, addrs[3], cl.replAddr)...)
		if err != nil {
			return nil, err
		}
		connected := func(m map[string]any) bool {
			up, _ := m["repl_connected"].(bool)
			return m["status"] == "ok" && up
		}
		if err := cl.follower.waitHealthy(e.ctx, 60*time.Second, connected); err != nil {
			return nil, err
		}
		if err := cl.catchUp(e.ctx, 30*time.Second); err != nil {
			return nil, err
		}
		setup += time.Since(begin)
	}
	cl.setupS = setup.Seconds()
	return cl, nil
}

// addrs names the HTTP address of every server that must hold what was
// written.
func (cl *cluster) addrs() map[string]string {
	m := map[string]string{"primary": cl.primary.addr}
	if cl.follower != nil {
		m["follower"] = cl.follower.addr
	}
	return m
}

// stop kills the children and removes their directories.
func (cl *cluster) stop() {
	cl.group.kill()
	if cl.primary != nil {
		_ = os.RemoveAll(filepath.Dir(cl.primary.dir)) // scratch space: a leftover is harmless
	}
}

// catchUp polls both /metrics every 10 ms until the follower's
// ctt_tsdb_points equals the primary's.
func (cl *cluster) catchUp(ctx context.Context, limit time.Duration) error {
	begin := time.Now()
	var want, got float64
	for time.Since(begin) < limit {
		p, err := cl.primary.metrics()
		if err != nil {
			return err
		}
		f, err := cl.follower.metrics()
		if err != nil {
			return err
		}
		want, got = p["ctt_tsdb_points"], f["ctt_tsdb_points"]
		if want > 0 && want == got {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	return fmt.Errorf("follower holds %.0f points, primary %.0f, after %v", got, want, limit)
}

// settle waits, after load has stopped, until the primary's ingest
// queue has drained, a flush pass has completed since then and no WAL
// truncation is owed — the state in which the data directory is
// measured.
func (cl *cluster) settle(ctx context.Context, limit time.Duration) error {
	begin := time.Now()
	var drained time.Time
	for time.Since(begin) < limit {
		m, _, err := cl.primary.healthz()
		if err != nil {
			return err
		}
		depth, _ := m["ingest_queue_depth"].(float64)
		age, flushed := m["last_flush_age_ms"].(float64)
		pending, _ := m["wal_truncation_pending"].(bool)
		switch {
		case depth > 0:
			drained = time.Time{}
		case drained.IsZero():
			// A worker may still be storing the last batch it took off
			// the queue; 50 ms covers that before flushes start to count.
			drained = time.Now().Add(50 * time.Millisecond)
		case flushed && !pending && time.Since(drained) > time.Duration(age)*time.Millisecond:
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return fmt.Errorf("primary did not settle within %v", limit)
}

// observation is the outside view of one measured window.
type observation struct {
	before, after   scrape // primary /metrics at window start and end
	fBefore, fAfter scrape // follower, nil without one
	lagMS           []float64
	// resident set of the primary: its peak (VmHWM) at window end and
	// the mean of 10 Hz samples over the window, which the garbage
	// collector's sawtooth moves far less than the peak.
	rssPeakMB, rssMeanMB float64
	// user+system CPU time over the window: the harness's own, the
	// primary's and the follower's.
	genCPU, primaryCPU, followerCPU time.Duration

	err error
}

// selfCPU returns the harness process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// observe scrapes at winStart and winEnd, samples the primary's
// resident set and the follower's lag at 10 Hz in between, and reads
// peak RSS at the end. It blocks until winEnd.
func (cl *cluster) observe(ctx context.Context, winStart, winEnd time.Time) *observation {
	o := &observation{}
	sleepUntil(ctx, winStart)
	cpu0, pcpu0 := selfCPU(), cl.primary.cpuTime()
	var fcpu0 time.Duration
	if cl.follower != nil {
		fcpu0 = cl.follower.cpuTime()
	}
	if o.before, o.err = cl.primary.metrics(); o.err != nil {
		return o
	}
	if cl.follower != nil {
		if o.fBefore, o.err = cl.follower.metrics(); o.err != nil {
			return o
		}
	}
	// One 10 Hz sampler for what has no counter to take a delta of.
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var rss []float64
		for time.Now().Before(winEnd) {
			if mb, err := cl.primary.procStatusMB("VmRSS"); err == nil {
				rss = append(rss, mb)
			}
			if cl.follower != nil {
				if m, _, err := cl.follower.healthz(); err == nil {
					if lag, ok := m["repl_lag_seconds"].(float64); ok && lag >= 0 {
						o.lagMS = append(o.lagMS, lag*1000)
					}
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
		for _, mb := range rss {
			o.rssMeanMB += mb / float64(len(rss))
		}
	}()
	sleepUntil(ctx, winEnd)
	o.genCPU, o.primaryCPU = selfCPU()-cpu0, cl.primary.cpuTime()-pcpu0
	if cl.follower != nil {
		o.followerCPU = cl.follower.cpuTime() - fcpu0
	}
	sampler.Wait()
	if o.after, o.err = cl.primary.metrics(); o.err != nil {
		return o
	}
	if cl.follower != nil {
		if o.fAfter, o.err = cl.follower.metrics(); o.err != nil {
			return o
		}
	}
	o.rssPeakMB, o.err = cl.primary.procStatusMB("VmHWM")
	return o
}

func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}
