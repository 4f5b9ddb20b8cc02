package rollup

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// restartCfg is the two-tier config the restart tests run, with the
// background loop disabled (tests drive Flush themselves).
func restartCfg() Config {
	return Config{
		Tiers:      []Tier{{Resolution: time.Minute}, {Resolution: time.Hour}},
		Grace:      5 * time.Minute,
		FlushEvery: -1,
	}
}

func putSeries(t *testing.T, db *tsdb.DB, metric string, n int, stepSec int) {
	t.Helper()
	tags := map[string]string{"sensor": "s1", "city": "trondheim"}
	for i := 0; i < n; i++ {
		putAt(t, db, metric, tags, t0.Add(time.Duration(i*stepSec)*time.Second), float64(i))
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

// durable is a store with a data directory whose engine can be
// restarted the way a process restart does it: engine and store
// closed, the store reopened from its WAL and block files, the engine
// rebuilt over it.
type durable struct {
	t    *testing.T
	opts tsdb.Options
	cfg  Config
	db   *tsdb.DB
	eng  *Engine
}

func openDurable(t *testing.T, cfg Config, now func() time.Time) *durable {
	d := &durable{t: t, cfg: cfg, opts: tsdb.Options{
		Dir: filepath.Join(t.TempDir(), "store"), FlushInterval: -1, FlushAge: 10 * time.Minute, Now: now,
	}}
	d.open()
	t.Cleanup(d.close)
	return d
}

func (d *durable) open() {
	d.t.Helper()
	db, err := tsdb.OpenOptions(d.opts)
	if err != nil {
		d.t.Fatal(err)
	}
	d.db = db
	if d.eng, err = New(db, d.cfg); err != nil {
		d.t.Fatal(err)
	}
}

func (d *durable) close() {
	if d.eng != nil {
		d.eng.Close()
		d.eng = nil
	}
	if d.db != nil {
		if err := d.db.Close(); err != nil {
			d.t.Fatal(err)
		}
		d.db = nil
	}
}

func (d *durable) restart() {
	d.t.Helper()
	d.close()
	d.open()
}

// compareTiers checks every derived series of every raw series in
// series on both stores: count, min, max and the percentiles bit for
// bit, sum and mean bit for bit or, with sumTol > 0, to that relative
// tolerance.
func compareTiers(t *testing.T, got, want *tsdb.DB, series []map[string]string, metric string, sumTol float64) {
	t.Helper()
	for _, tags := range series {
		for _, tier := range []string{"1m", "1h"} {
			for si, s := range windowStats {
				g := statPoints(t, got, "rollup."+tier+"."+metric, tags, s.name)
				w := statPoints(t, want, "rollup."+tier+"."+metric, tags, s.name)
				if len(g) != len(w) {
					t.Fatalf("%v %s %s: %d windows after restart, control has %d", tags, tier, s.name, len(g), len(w))
				}
				for i := range g {
					same := math.Float64bits(g[i].Value) == math.Float64bits(w[i].Value)
					if !same && sumTol > 0 && (si == statSum || si == statMean) {
						same = math.Abs(g[i].Value-w[i].Value) <= sumTol*math.Max(math.Abs(w[i].Value), 1)
					}
					if !same || g[i].Timestamp != w[i].Timestamp {
						t.Fatalf("%v %s %s window %d: restarted %+v, control %+v", tags, tier, s.name, i, g[i], w[i])
					}
				}
			}
		}
	}
}

// TestStateSurvivesRestart: the unsealed tail — open windows,
// watermarks, sealed horizons — comes back when an engine is closed and
// a new one built over the same store, so the new engine seals the same
// windows with the same values a never-restarted one would. Close seals
// nothing.
func TestStateSurvivesRestart(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	eng, err := New(db, restartCfg())
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
	if after := eng.Stats(); after.PointsWritten != before.PointsWritten {
		t.Fatalf("Close sealed windows: written %d -> %d", before.PointsWritten, after.PointsWritten)
	}

	eng2, err := New(db, restartCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if got := openWindows(eng2); got != openBefore {
		t.Fatalf("open windows after restart = %d, want %d", got, openBefore)
	}

	// Drive the rebuilt engine to seal everything and compare every
	// derived point against a control engine that never restarted.
	eng2.FlushAll()
	_, ctrl := openEngine(t, restartCfg())
	putSeries(t, ctrl.db, "air.co2", 95, 30)
	ctrl.FlushAll()
	compareTiers(t, db, ctrl.db, []map[string]string{{"sensor": "s1", "city": "trondheim"}}, "air.co2", 0)
}

// TestStateRestartNoDoubleCount: after a restart the rebuilt sealed
// horizon must make WAL-replayed raw history look already-processed: a
// late write landing in an already-sealed window is counted late, not
// folded in, and no sealed window is re-sealed.
func TestStateRestartNoDoubleCount(t *testing.T) {
	d := openDurable(t, restartCfg(), nil)
	putSeries(t, d.db, "air.co2", 95, 30)
	if d.eng.Stats().WindowsSealed == 0 {
		t.Fatal("test needs sealed windows before restart")
	}
	d.restart()

	tags := map[string]string{"sensor": "s1", "city": "trondheim"}
	putAt(t, d.db, "air.co2", tags, t0, 1) // window 0: sealed long ago
	if late := d.eng.Stats().Late; late != 1 {
		t.Fatalf("late = %d, want 1 (sealed horizon lost across restart)", late)
	}
	// The sealed count-point for window 0 must still say 2 (the
	// original points), not have been re-sealed as a new window.
	got := statPoints(t, d.db, "rollup.1m.air.co2", tags, "count")
	if len(got) == 0 {
		t.Fatal("no sealed count points survived restart")
	}
	if got[0].Timestamp != t0.UnixMilli() || got[0].Value != 2 {
		t.Fatalf("window-0 count = %+v, want {%d 2}", got[0], t0.UnixMilli())
	}
	d.eng.FlushAll()
	if got := statPoints(t, d.db, "rollup.1m.air.co2", tags, "count"); len(got) != 48 {
		t.Fatalf("%d 1m windows after FlushAll, want 48", len(got))
	}
}

// restartOp is one step of a restart scenario: a point to store, or
// (dp nil) a clock Flush at flush.
type restartOp struct {
	dp    *tsdb.DataPoint
	flush time.Time
}

// applyOps runs ops against db and eng, moving *clock — the store's
// flush clock — to the newest point or Flush seen.
func applyOps(t *testing.T, db *tsdb.DB, eng *Engine, ops []restartOp, clock *time.Time) {
	t.Helper()
	for _, op := range ops {
		if op.dp == nil {
			*clock = op.flush
			eng.Flush(op.flush)
			continue
		}
		if at := time.UnixMilli(op.dp.Timestamp); at.After(*clock) {
			*clock = at
		}
		if err := put(db, *op.dp); err != nil {
			t.Fatal(err)
		}
	}
}

// restartScenario runs ops through a never-restarted control engine and
// through one restarted before ops[cut] — with cold history flushed to
// block files first, so the rebuild reads disk, sealed blocks and the
// WAL-replayed head — then seals both tails with FlushAll and compares
// the tiers of the given series.
func restartScenario(t *testing.T, ops []restartOp, cut int, series []map[string]string, sumTol float64) {
	t.Helper()
	cfg := restartCfg()
	_, ctrl := openEngine(t, cfg)
	var ctrlClock time.Time
	applyOps(t, ctrl.db, ctrl, ops, &ctrlClock)
	if late := ctrl.Stats().Late; late != 0 {
		t.Fatalf("scenario drops %d points as late: a rebuild from the store would keep them", late)
	}
	ctrl.FlushAll()

	clock := t0
	d := openDurable(t, cfg, func() time.Time { return clock })
	applyOps(t, d.db, d.eng, ops[:cut], &clock)
	if _, err := d.db.FlushBlocks(); err != nil {
		t.Fatal(err)
	}
	d.restart()
	applyOps(t, d.db, d.eng, ops[cut:], &clock)
	d.eng.FlushAll()
	compareTiers(t, d.db, ctrl.db, series, "air.co2", sumTol)
}

// cadenceOps interleaves, in timestamp order, three series reporting
// every 7 s, 30 s and 5 min for three hours, with a clock Flush after
// roughly one point in twenty at a clock up to Grace ahead of the
// newest point — never so far that a later point is late, far enough
// to seal an idle series' newest windows past its watermark.
func cadenceOps(rng *rand.Rand) ([]restartOp, []map[string]string) {
	cadences := []time.Duration{7 * time.Second, 30 * time.Second, 5 * time.Minute}
	var series []map[string]string
	var ops []restartOp
	for i, c := range cadences {
		tags := map[string]string{"sensor": fmt.Sprintf("s%d", i)}
		series = append(series, tags)
		v := 400.0
		for off := time.Duration(rng.Intn(int(c/time.Second))) * time.Second; off < 3*time.Hour; off += c {
			v += rng.Float64()*4 - 2
			ops = append(ops, restartOp{dp: &tsdb.DataPoint{Metric: "air.co2", Tags: tags,
				Point: tsdb.Point{Timestamp: t0.Add(off).UnixMilli(), Value: v}}})
		}
	}
	slices.SortStableFunc(ops, func(a, b restartOp) int { return int(a.dp.Timestamp - b.dp.Timestamp) })
	grace := restartCfg().Grace
	var out []restartOp
	for _, op := range ops {
		out = append(out, op)
		if rng.Intn(20) == 0 {
			ahead := time.Duration(rng.Int63n(int64(grace)))
			out = append(out, restartOp{flush: time.UnixMilli(op.dp.Timestamp).Add(ahead)})
		}
	}
	return out, series
}

// TestRestartSeededParity: a restart at a random point, with clock
// Flushes before and after it, leaves every derived point of both
// tiers bit-identical to a never-restarted control.
func TestRestartSeededParity(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops, series := cadenceOps(rng)
			restartScenario(t, ops, 1+rng.Intn(len(ops)-1), series, 0)
		})
	}
}

// TestRestartIdleSeries: windows a clock Flush sealed past an idle
// series' watermark stay sealed across a restart — rebuilding them
// from the watermark alone would seal the hour (and the minutes inside
// Grace of the watermark) a second time.
func TestRestartIdleSeries(t *testing.T) {
	d := openDurable(t, restartCfg(), nil)
	tags := map[string]string{"sensor": "idle"}
	for i := 0; i < 20; i++ { // 10:00:00 .. 10:09:30
		putAt(t, d.db, "air.co2", tags, t0.Add(time.Duration(i)*30*time.Second), float64(i))
	}
	d.eng.Flush(t0.Add(90 * time.Minute)) // seals the 10:00 hour and every minute
	if n := openWindows(d.eng); n != 0 {
		t.Fatalf("%d windows open after the clock passed them", n)
	}
	d.restart()
	if n := openWindows(d.eng); n != 0 {
		t.Fatalf("restart reopened %d sealed windows", n)
	}
	d.eng.FlushAll()
	if got := statPoints(t, d.db, "rollup.1h.air.co2", tags, "count"); len(got) != 1 || got[0].Value != 20 {
		t.Fatalf("1h count after restart: %v, want one window of 20", got)
	}
	if got := statPoints(t, d.db, "rollup.1m.air.co2", tags, "count"); len(got) != 10 {
		t.Fatalf("%d 1m windows after restart, want 10", len(got))
	}
}

// TestRestartPromotedReplica: a store that never ran an engine — a
// promoted replica holds the primary's raw and derived points but none
// of its engine's memory — rolls up its open hour from every stored
// point, not just those written after the engine starts.
func TestRestartPromotedReplica(t *testing.T) {
	tags := map[string]string{"sensor": "s1", "city": "trondheim"}
	last := t0.Add(95 * 30 * time.Second) // the 96th point

	// A store written with no engine at all.
	bare := openDurable(t, restartCfg(), nil)
	bare.eng.Close()
	putSeries(t, bare.db, "air.co2", 95, 30)
	bare.restart()
	putAt(t, bare.db, "air.co2", tags, last, 95)
	bare.eng.FlushAll()
	if got := statPoints(t, bare.db, "rollup.1h.air.co2", tags, "count"); len(got) != 1 || got[0].Value != 96 {
		t.Fatalf("1h count on a store without engine history: %v, want one window of 96", got)
	}

	// A replica: every batch the primary stores, raw and derived, is
	// applied to the replica's store, the way the replication stream
	// applies the primary's WAL. Promotion starts an engine over it.
	_, primary := openEngine(t, restartCfg())
	replica := openDurable(t, restartCfg(), nil)
	replica.eng.Close()
	stream := primary.db.AddBatchObserver(func(rps []tsdb.RefPoint) {
		for _, rp := range rps {
			putAt(t, replica.db, rp.Ref.Metric(), rp.Ref.Tags(), time.UnixMilli(rp.Timestamp), rp.Value)
		}
	})
	putSeries(t, primary.db, "air.co2", 95, 30)
	stream()
	replica.restart()
	for _, db := range []*tsdb.DB{primary.db, replica.db} {
		putAt(t, db, "air.co2", tags, last, 95)
	}
	primary.FlushAll()
	replica.eng.FlushAll()
	if got := statPoints(t, replica.db, "rollup.1h.air.co2", tags, "count"); len(got) != 1 || got[0].Value != 96 {
		t.Fatalf("1h count on the promoted replica: %v, want one window of 96", got)
	}
	compareTiers(t, replica.db, primary.db, []map[string]string{tags}, "air.co2", 0)
}

// TestRestartOutOfOrderWithinGrace: with arrivals shuffled inside
// Grace, the rebuilt windows hold the same values as the control's, in
// timestamp order rather than arrival order — count, min, max and the
// percentiles match bit for bit, sum and mean to float association.
func TestRestartOutOfOrderWithinGrace(t *testing.T) {
	tags := map[string]string{"sensor": "s1", "city": "trondheim"}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var ops []restartOp
			for _, dp := range genPoints(rng, "air.co2", tags, 3*time.Hour, 20*time.Second) {
				ops = append(ops, restartOp{dp: &dp})
			}
			restartScenario(t, ops, 1+rng.Intn(len(ops)-1), []map[string]string{tags}, 1e-12)
		})
	}
}
