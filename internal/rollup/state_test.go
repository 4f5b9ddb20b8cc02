package rollup

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// stateCfg builds a two-tier config persisting to dir/rollup.state
// with the background loop disabled (tests drive saves explicitly).
func stateCfg(dir string) Config {
	return Config{
		Tiers:      []Tier{{Resolution: time.Minute}, {Resolution: time.Hour}},
		Grace:      5 * time.Minute,
		FlushEvery: -1,
		StatePath:  filepath.Join(dir, "rollup.state"),
	}
}

func putSeries(t *testing.T, db *tsdb.DB, metric string, n int, stepSec int) {
	t.Helper()
	tags := map[string]string{"sensor": "s1", "city": "trondheim"}
	for i := 0; i < n; i++ {
		dp := tsdb.DataPoint{
			Metric: metric, Tags: tags,
			Point: tsdb.Point{Timestamp: t0.Add(time.Duration(i*stepSec) * time.Second).UnixMilli(), Value: float64(i)},
		}
		if err := put(db, dp); err != nil {
			t.Fatal(err)
		}
	}
}

// openWindows sums open windows across all tiers.
func openWindows(e *Engine) int {
	n := 0
	for _, ts := range e.Stats().Tiers {
		n += ts.OpenWindows
	}
	return n
}

// TestStateSurvivesRestart: the unsealed tail — open windows,
// watermarks, sealed horizons — must round-trip through Close/New, so
// a restarted engine seals the same windows with the same values a
// never-restarted one would.
func TestStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	eng, err := New(db, stateCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	// 95 points at 30s: watermark-sealing covers the first ~42 1m
	// windows (grace 5m); the rest — and the whole 1h window — stay
	// open, i.e. there is real unsealed tail to lose.
	putSeries(t, db, "air.co2", 95, 30)
	before := eng.Stats()
	openBefore := openWindows(eng)
	if openBefore == 0 {
		t.Fatal("test needs open windows before restart")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Close with StatePath must NOT force-flush the tail: the derived
	// write counter would jump if FlushAll had run.
	if after := eng.Stats(); after.PointsWritten != before.PointsWritten {
		t.Fatalf("Close force-flushed: written %d -> %d", before.PointsWritten, after.PointsWritten)
	}

	eng2, err := New(db, stateCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if got := eng2.Stats().StateErrors; got != 0 {
		t.Fatalf("restore counted %d state errors", got)
	}
	if got := openWindows(eng2); got != openBefore {
		t.Fatalf("open windows after restart = %d, want %d", got, openBefore)
	}

	// Drive the restored engine to seal everything and compare every
	// derived point against a control engine that never restarted.
	eng2.FlushAll()
	ctrlDB, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrlDB.Close()
	cfg := stateCfg(t.TempDir())
	cfg.StatePath = ""
	ctrl, err := New(ctrlDB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	putSeries(t, ctrlDB, "air.co2", 95, 30)
	ctrl.FlushAll()

	for _, tier := range []string{"1m", "1h"} {
		for _, stat := range []string{"count", "sum", "min", "max", "mean", "p50", "p95", "p99"} {
			metric := "rollup." + tier + ".air.co2"
			tags := map[string]string{"sensor": "s1", "city": "trondheim", "stat": stat}
			got, err := db.SeriesWindowExact(metric, tags, 0, 1<<62)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ctrlDB.SeriesWindowExact(metric, tags, 0, 1<<62)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s stat=%s: %d points after restart, control has %d", metric, stat, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s stat=%s point %d: got %+v want %+v", metric, stat, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStateRestartNoDoubleCount: after a restart the restored sealed
// horizon must make WAL-replayed raw history look already-processed.
// Replaying those points through a fresh engine without state would
// re-seal every window and double-write the derived series.
func TestStateRestartNoDoubleCount(t *testing.T) {
	dir := t.TempDir()
	storeOpts := tsdb.Options{Dir: filepath.Join(dir, "store"), FlushInterval: -1}
	db, err := tsdb.OpenOptions(storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, stateCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	putSeries(t, db, "air.co2", 95, 30)
	sealedBefore := eng.Stats().WindowsSealed
	if sealedBefore == 0 {
		t.Fatal("test needs sealed windows before restart")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the store replays its WAL (raw + derived points), then
	// the engine restores its state. Replay happens before the engine
	// subscribes, so nothing is observed — but a late write landing in
	// an already-sealed window must be counted late, not folded in.
	db2, err := tsdb.OpenOptions(storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	eng2, err := New(db2, stateCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	tags := map[string]string{"sensor": "s1", "city": "trondheim"}
	late := tsdb.DataPoint{
		Metric: "air.co2", Tags: tags,
		Point: tsdb.Point{Timestamp: t0.UnixMilli(), Value: 1}, // window 0: sealed long ago
	}
	if err := put(db2, late); err != nil {
		t.Fatal(err)
	}
	st := eng2.Stats()
	if st.Late != 1 {
		t.Fatalf("late = %d, want 1 (sealed horizon lost across restart)", st.Late)
	}
	// And the sealed count-point for window 0 must still say 2 (the
	// original points), not have been re-sealed as a new window.
	got, err := db2.SeriesWindowExact("rollup.1m.air.co2",
		map[string]string{"sensor": "s1", "city": "trondheim", "stat": "count"}, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no sealed count points survived restart")
	}
	if got[0].Timestamp != t0.UnixMilli() || got[0].Value != 2 {
		t.Fatalf("window-0 count = %+v, want {%d 2}", got[0], t0.UnixMilli())
	}
}

// TestStateCorruptDiscarded: a corrupt state file must not poison the
// engine — it starts empty, counts one state error, and a tier-ladder
// change likewise discards the file.
func TestStateCorruptDiscarded(t *testing.T) {
	dir := t.TempDir()
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	eng, err := New(db, stateCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	putSeries(t, db, "air.co2", 20, 30)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "rollup.state")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	eng2, err := New(db, stateCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.Stats().StateErrors; got != 1 {
		t.Fatalf("corrupt state: StateErrors = %d, want 1", got)
	}
	if got := openWindows(eng2); got != 0 {
		t.Fatalf("corrupt state restored %d windows, want 0", got)
	}
	if err := eng2.Close(); err != nil { // rewrites a clean file
		t.Fatal(err)
	}

	// Tier-ladder mismatch: same file, different config — discarded.
	cfg := stateCfg(dir)
	cfg.Tiers = []Tier{{Resolution: 2 * time.Minute}}
	eng3, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	if got := eng3.Stats().StateErrors; got != 1 {
		t.Fatalf("tier mismatch: StateErrors = %d, want 1", got)
	}
	if got := openWindows(eng3); got != 0 {
		t.Fatalf("tier mismatch restored %d windows, want 0", got)
	}
}
