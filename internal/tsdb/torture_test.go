package tsdb

// Fault-schedule torture: thousands of seeded schedules, each running
// a randomized put → sync → flush → compact → retention workload over
// a fault-injecting filesystem (EIO, ENOSPC, short writes, fsync
// failures, simulated crashes at a random operation), then reopening
// on a clean filesystem and asserting the durability invariants the
// block layer documents:
//
//   - reopen always succeeds (quarantine is never fatal),
//   - no acknowledged point (appended before a successful Sync) at or
//     above the highest attempted retention cutoff is lost,
//   - no point is ever served twice (WAL replay vs block files),
//   - every served point carries the value it was written with.
//
// Schedule count: 1000 by default, 200 under -short (the CI step),
// CTT_TORTURE_SCHEDULES overrides both.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/tsdb/fsio"
)

// newTortureRNG builds the schedule's deterministic random stream.
func newTortureRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x746f7274))
}

func tortureScheduleCount(t *testing.T) int {
	if env := os.Getenv("CTT_TORTURE_SCHEDULES"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad CTT_TORTURE_SCHEDULES %q", env)
		}
		return n
	}
	if testing.Short() {
		return 200
	}
	return 1000
}

func TestTortureFaultSchedules(t *testing.T) {
	n := tortureScheduleCount(t)
	for seed := 0; seed < n; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			tortureSchedule(t, uint64(seed))
		})
	}
}

const tortureSeries = 3

func tortureMetric(si int) string { return fmt.Sprintf("torture.m%d", si) }

func tortureTags(si int) map[string]string {
	return map[string]string{"sensor": fmt.Sprintf("s%d", si)}
}

func tortureSchedule(t *testing.T, seed uint64) {
	rng := newTortureRNG(seed)
	dir := t.TempDir()

	var simNow atomic.Int64
	simNow.Store(baseTS)

	ffs := fsio.NewFaultFS(fsio.OS)
	opts := Options{
		Dir:           dir,
		FlushAge:      time.Millisecond,
		FlushInterval: -1, CompactInterval: -1,
		Partition: time.Duration(1+rng.IntN(40)) * time.Minute,
		Now:       func() time.Time { return time.UnixMilli(simNow.Load()) },
		FS:        ffs,
	}
	if rng.IntN(3) == 0 {
		opts.CompactMaxBytes = 4096 // force multi-file compaction splits
	}
	db, err := OpenOptions(opts)
	if err != nil {
		t.Fatalf("initial open: %v", err)
	}

	refs := make([]*Ref, tortureSeries)
	for si := range refs {
		if refs[si], err = db.Intern(tortureMetric(si), tortureTags(si)); err != nil {
			t.Fatal(err)
		}
	}

	// The fault schedule: 1–2 faults at random op offsets, each firing
	// for 1–4 consecutive operations (a transient blip the store should
	// ride out, or a crash that kills the rest of the run). Every 17th
	// seed runs fault-free as a control.
	type schedFault struct {
		at    int64
		count int
		f     fsio.Fault
	}
	var faults []schedFault
	if seed%17 != 0 {
		for i, n := 0, 1+rng.IntN(2); i < n; i++ {
			var f fsio.Fault
			switch rng.IntN(4) {
			case 0:
				f.Err = syscall.EIO
			case 1:
				f.Err = syscall.ENOSPC
			case 2:
				f.Err = syscall.ENOSPC
				f.Partial = true
			case 3:
				f.Err = syscall.EIO
				f.Crash = true
			}
			faults = append(faults, schedFault{
				at:    ffs.Ops() + 1 + rng.Int64N(1500),
				count: 1 + rng.IntN(4),
				f:     f,
			})
		}
	}
	ffs.SetPlan(func(op fsio.Op, path string, opn int64) *fsio.Fault {
		for i := range faults {
			sf := &faults[i]
			if sf.count > 0 && opn >= sf.at {
				sf.count--
				f := sf.f
				return &f
			}
		}
		return nil
	})

	// Per-series point tracking. A point's value is a pure function of
	// its timestamp, so value correctness needs no per-point map:
	//   acked   — batch stored AND a later Sync returned nil: must
	//             survive (unless retention was attempted above it)
	//   pending — batch stored, not yet acked: may survive, at most once
	//   limbo   — batch REJECTED: individual records may still have
	//             reached the WAL before the failure, so the points may
	//             reappear after replay, at most once
	acked := make([]map[int64]struct{}, tortureSeries)
	pending := make([]map[int64]struct{}, tortureSeries)
	limbo := make([]map[int64]struct{}, tortureSeries)
	for si := 0; si < tortureSeries; si++ {
		acked[si] = map[int64]struct{}{}
		pending[si] = map[int64]struct{}{}
		limbo[si] = map[int64]struct{}{}
	}

	nextTS := baseTS
	maxCutoff := int64(math.MinInt64)

	steps := 20 + rng.IntN(40)
	for s := 0; s < steps; s++ {
		switch rng.IntN(10) {
		case 0, 1, 2, 3, 4: // append a batch of fresh points
			si := rng.IntN(tortureSeries)
			bn := 1 + rng.IntN(64)
			batch := make([]RefPoint, 0, bn)
			for i := 0; i < bn; i++ {
				nextTS += 1 + rng.Int64N(800)
				batch = append(batch, RefPoint{Ref: refs[si],
					Point: Point{Timestamp: nextTS, Value: tortureValue(nextTS)}})
			}
			res := db.AppendRefs(batch)
			dst := pending[si]
			if res.Stored != len(batch) {
				if res.Stored != 0 {
					t.Fatalf("step %d: partial batch store %d/%d — group commit is all-or-nothing",
						s, res.Stored, len(batch))
				}
				dst = limbo[si]
			}
			for _, rp := range batch {
				dst[rp.Timestamp] = struct{}{}
			}
		case 5: // fsync: a nil return acknowledges everything pending
			if err := db.Sync(); err == nil {
				for si := 0; si < tortureSeries; si++ {
					for ts := range pending[si] {
						acked[si][ts] = struct{}{}
					}
					clear(pending[si])
				}
			}
		case 6:
			simNow.Store(nextTS + 10_000)
			_, _ = db.FlushBlocks()
		case 7:
			_, _ = db.CompactBlocks()
		case 8:
			_ = db.CompactWAL()
		case 9: // retention: even a failed attempt puts points below the
			// cutoff in limbo, so track every attempt
			span := nextTS - baseTS
			if span <= 0 {
				continue
			}
			cut := baseTS + rng.Int64N(span)
			_, _ = db.DeleteBefore(cut)
			if cut > maxCutoff {
				maxCutoff = cut
			}
		}
	}

	_ = db.Close()

	// Reopen on a healthy filesystem: whatever the faults did to the
	// directory, recovery must cope (quarantine, torn WAL tails, flush
	// markers naming files that never fully landed).
	clean := opts
	clean.FS = fsio.OS
	db2, err := OpenOptions(clean)
	if err != nil {
		t.Fatalf("reopen after fault schedule: %v", err)
	}
	verifyTortureInvariants(t, db2, "reopen", acked, pending, limbo, maxCutoff)

	// Structural passes on the clean disk must succeed and must not
	// duplicate or lose anything.
	simNow.Store(nextTS + 100_000)
	if _, err := db2.FlushBlocks(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if _, err := db2.CompactBlocks(); err != nil {
		t.Fatalf("compact after recovery: %v", err)
	}
	if err := db2.CompactWAL(); err != nil {
		t.Fatalf("wal compact after recovery: %v", err)
	}
	verifyTortureInvariants(t, db2, "post-recovery flush", acked, pending, limbo, maxCutoff)
	if err := db2.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}

	// And once more from disk alone.
	db3, err := OpenOptions(clean)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer db3.Close()
	verifyTortureInvariants(t, db3, "second reopen", acked, pending, limbo, maxCutoff)
}

// tortureValue derives a point's expected value from its timestamp.
func tortureValue(ts int64) float64 { return float64(ts - baseTS) }

func verifyTortureInvariants(t *testing.T, db *DB, stage string,
	acked, pending, limbo []map[int64]struct{}, maxCutoff int64) {
	t.Helper()
	for si := 0; si < tortureSeries; si++ {
		pts, err := db.SeriesWindowExact(tortureMetric(si), tortureTags(si), minTS, maxTS)
		if err != nil {
			t.Fatalf("%s: read series %d: %v", stage, si, err)
		}
		seen := make(map[int64]struct{}, len(pts))
		for _, p := range pts {
			if _, dup := seen[p.Timestamp]; dup {
				t.Fatalf("%s: series %d: ts %d served twice", stage, si, p.Timestamp)
			}
			seen[p.Timestamp] = struct{}{}
			if _, okA := acked[si][p.Timestamp]; !okA {
				if _, okP := pending[si][p.Timestamp]; !okP {
					if _, okL := limbo[si][p.Timestamp]; !okL {
						t.Fatalf("%s: series %d: ts %d served but never written", stage, si, p.Timestamp)
					}
				}
			}
			if want := tortureValue(p.Timestamp); p.Value != want {
				t.Fatalf("%s: series %d: ts %d value %v, want %v", stage, si, p.Timestamp, p.Value, want)
			}
		}
		for ts := range acked[si] {
			if ts < maxCutoff {
				continue // retention may legitimately have removed it
			}
			if _, ok := seen[ts]; !ok {
				t.Fatalf("%s: series %d: acknowledged point ts %d lost", stage, si, ts)
			}
		}
	}
}
