package rollup

import (
	"maps"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/tsdb"
)

func openEngine(t testing.TB, cfg Config) (*tsdb.DB, *Engine) {
	t.Helper()
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg.FlushEvery = -1
	eng, err := New(db, cfg)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close(); db.Close() })
	return db, eng
}

// put stores one point the way every writer does: Intern the series,
// then append a one-element batch.
func put(db *tsdb.DB, dp tsdb.DataPoint) error {
	ref, err := db.Intern(dp.Metric, dp.Tags)
	if err != nil {
		return err
	}
	if res := db.AppendRefs([]tsdb.RefPoint{{Ref: ref, Point: dp.Point}}); len(res.Errors) > 0 {
		return res.Errors[0].Err
	}
	return nil
}

func putAt(t testing.TB, db *tsdb.DB, metric string, tags map[string]string, at time.Time, v float64) {
	t.Helper()
	if err := put(db, tsdb.DataPoint{Metric: metric, Tags: tags, Point: tsdb.Point{Timestamp: at.UnixMilli(), Value: v}}); err != nil {
		t.Fatal(err)
	}
}

func statPoints(t testing.TB, db *tsdb.DB, metric string, tags map[string]string, stat string) []tsdb.Point {
	t.Helper()
	st := maps.Clone(tags)
	st[StatTag] = stat
	pts, err := db.SeriesWindowExact(metric, st, 0, math.MaxInt64/2)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestSealStatsParity: the one-pass, one-sort statistics of a sealed
// window are bit-identical to each statistic's Aggregator.Apply — what
// keeps tier-served query answers equal to raw scans and the stored
// bytes unchanged.
func TestSealStatsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	windows := [][]float64{
		{math.Copysign(0, -1)},
		{0, math.Copysign(0, -1), 0},
		{math.Copysign(0, -1), 0},
		{3, math.NaN(), 1},
		{math.NaN(), 2},
		{math.Inf(1), -1e308, 1e308, math.Inf(-1)},
		{1e308, 1e308, -1e308},
	}
	for _, n := range []int{1, 2, 3, 100} {
		for rep := 0; rep < 50; rep++ {
			w := make([]float64, n)
			for i := range w {
				switch rng.Intn(4) {
				case 0: // sensor-like decimals, duplicates likely
					w[i] = float64(rng.Intn(40)) / 10
				case 1:
					w[i] = -rng.Float64() * 1e3
				case 2:
					w[i] = (rng.Float64() - 0.5) * 1e300
				default:
					w[i] = rng.NormFloat64()
				}
			}
			windows = append(windows, w)
		}
	}
	for _, w := range windows {
		got := sealStats(append([]float64(nil), w...))
		for i, s := range windowStats {
			if want := s.agg.Apply(w); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s of %v: sealStats %v (%#x), Apply %v (%#x)", s.name, w,
					got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
}

// TestSealInWindowOrder: windows that seal together reach each derived
// series oldest first, whether one far-ahead point seals them or
// FlushAll does — map iteration order used to decide.
func TestSealInWindowOrder(t *testing.T) {
	tags := map[string]string{"sensor": "s1"}
	for _, how := range []string{"far-ahead point", "FlushAll"} {
		for run := 0; run < 100; run++ {
			db, eng := openEngine(t, Config{Tiers: []Tier{{Resolution: time.Minute}}, Grace: 10 * time.Minute})
			last := map[tsdb.SeriesID]int64{}
			derived := 0
			db.AddBatchObserver(func(rps []tsdb.RefPoint) {
				for _, rp := range rps {
					if rp.Ref.Metric() != "rollup.1m.air.co2" {
						continue
					}
					if prev, ok := last[rp.Ref.ID()]; ok && rp.Timestamp <= prev {
						t.Fatalf("%s, run %d: %s got window %d after %d", how, run, rp.Ref.Key(), rp.Timestamp, prev)
					}
					last[rp.Ref.ID()] = rp.Timestamp
					derived++
				}
			})
			for i := 0; i < 3; i++ {
				putAt(t, db, "air.co2", tags, t0.Add(time.Duration(i)*time.Minute), float64(400+i))
			}
			if derived != 0 {
				t.Fatalf("%d derived points before the seal; grace should hold the windows open", derived)
			}
			if how == "FlushAll" {
				eng.FlushAll()
			} else {
				putAt(t, db, "air.co2", tags, t0.Add(time.Hour), 500)
			}
			if derived != 3*numStats {
				t.Fatalf("%s, run %d: %d derived points, want %d", how, run, derived, 3*numStats)
			}
		}
	}
}

// TestDerivedRefsSurviveRetention: the engine writes derived series
// through refs it interned once. When retention removes a derived
// series the cached refs die; the next seal on the still-live raw
// series must re-intern them and land exactly once.
func TestDerivedRefsSurviveRetention(t *testing.T) {
	db, eng := openEngine(t, Config{Tiers: []Tier{{Resolution: time.Minute, Retention: 2 * time.Hour}}})
	tags := map[string]string{"sensor": "s1"}
	for i := 0; i < 3; i++ {
		putAt(t, db, "air.co2", tags, t0.Add(time.Duration(i)*time.Minute), float64(400+i))
	}
	raw, err := db.Intern("air.co2", tags)
	if err != nil {
		t.Fatal(err)
	}
	cached := func() [numStats]*tsdb.Ref {
		sh := &eng.shards[uint64(raw.ID())%engineShards]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.series[raw.ID()].tiers[0].refs
	}
	before := cached()
	if got := len(statPoints(t, db, "rollup.1m.air.co2", tags, "count")); got != 2 {
		t.Fatalf("%d windows sealed before retention, want 2", got)
	}

	// Ten hours on, both sealed windows are past the tier's retention:
	// every derived series empties and is removed. The raw series has
	// no retention, and its third window is still open.
	if _, err := eng.ApplyRetention(t0.Add(10 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	for i, ref := range before {
		if ref.Live() {
			t.Fatalf("derived ref %s still live after retention emptied it", windowStats[i].name)
		}
	}
	putAt(t, db, "air.co2", tags, t0.Add(10*time.Hour), 500)             // seals the t0+2m window
	putAt(t, db, "air.co2", tags, t0.Add(10*time.Hour+time.Minute), 501) // seals the t0+10h window
	after := cached()
	for i, s := range windowStats {
		if !after[i].Live() || after[i] == before[i] {
			t.Fatalf("%s: cached ref not re-interned (live=%v)", s.name, after[i].Live())
		}
		pts := statPoints(t, db, "rollup.1m.air.co2", tags, s.name)
		if len(pts) != 2 || pts[0].Timestamp != t0.Add(2*time.Minute).UnixMilli() || pts[1].Timestamp != t0.Add(10*time.Hour).UnixMilli() {
			t.Fatalf("%s after retention: %v, want the t0+2m and t0+10h windows once each", s.name, pts)
		}
	}
	if got, want := db.PointCount(), 5+2*numStats; got != want {
		t.Fatalf("store holds %d points, want %d (5 raw, 2 windows)", got, want)
	}
	if st := eng.Stats(); st.PointsWritten != 4*numStats || st.WindowsSealed != 4 {
		t.Fatalf("engine counted %d points over %d windows, want %d over 4", st.PointsWritten, st.WindowsSealed, 4*numStats)
	}

	// The raw series aging out entirely still drains and prunes its
	// state, cached refs and all.
	if _, err := db.DeleteBefore(t0.Add(20 * time.Hour).UnixMilli()); err != nil {
		t.Fatal(err)
	}
	eng.Flush(t0.Add(30 * time.Hour))
	sh := &eng.shards[uint64(raw.ID())%engineShards]
	sh.mu.Lock()
	_, tracked := sh.series[raw.ID()]
	sh.mu.Unlock()
	if tracked {
		t.Fatal("dead raw series still tracked after Flush")
	}
}

// sealBenchAllocs is the allocation count BenchmarkObserveSeal holds
// the seal path to, per sealed 1-minute window: the next window (its
// first value inline) and the batch of derived points.
const sealBenchAllocs = 2

// BenchmarkObserveSeal is the engine's cost per reading at the pilots'
// cadence: every op observes one in-order point of a 5-minute series,
// which opens a window on each tier, seals the previous 1-minute window
// (every twelfth op the hourly one too) and writes the derived points
// back by ref.
func BenchmarkObserveSeal(b *testing.B) {
	db, eng := openEngine(b, Config{})
	ref, err := db.Intern("air.co2", map[string]string{"sensor": "bench", "city": "trondheim"})
	if err != nil {
		b.Fatal(err)
	}
	ts := t0.UnixMilli()
	one := make([]tsdb.RefPoint, 1)
	op := func() {
		ts += (5 * time.Minute).Milliseconds()
		one[0] = tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: ts, Value: 400 + float64(ts%97)/10}}
		eng.observeBatch(one)
	}
	for i := 0; i < 24; i++ {
		op() // intern the derived series, size the maps
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if st := eng.Stats(); st.WindowsSealed < uint64(b.N) || st.PointsWritten != st.WindowsSealed*numStats {
		b.Fatalf("sealed %d windows, wrote %d points over %d ops", st.WindowsSealed, st.PointsWritten, b.N)
	}
	// Averaged over whole hours so the hourly seal and the store's own
	// amortised head growth are in the figure.
	if got := testing.AllocsPerRun(1200, op); got > sealBenchAllocs {
		b.Fatalf("%.2f allocs per sealing observe, want about %d", got, sealBenchAllocs)
	}
}

// BenchmarkObserveFold is a point that seals nothing: it folds into
// the windows an earlier point of the same minute opened. Steady state
// allocates nothing.
func BenchmarkObserveFold(b *testing.B) {
	db, eng := openEngine(b, Config{})
	ref, err := db.Intern("air.co2", map[string]string{"sensor": "bench", "city": "trondheim"})
	if err != nil {
		b.Fatal(err)
	}
	one := []tsdb.RefPoint{{Ref: ref, Point: tsdb.Point{Timestamp: t0.UnixMilli(), Value: 400}}}
	op := func() { eng.observeBatch(one) }
	op()
	// Pre-grow the window values: append growth, amortised to nothing
	// over a window's life, would otherwise show in a short run.
	for _, ts := range eng.shards[uint64(ref.ID())%engineShards].series[ref.ID()].tiers {
		for _, win := range ts.open {
			win.vals = make([]float64, 1, b.N+2000)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if got := testing.AllocsPerRun(1000, op); got != 0 {
		b.Fatalf("%.2f allocs per folding observe, want 0", got)
	}
	if st := eng.Stats(); st.WindowsSealed != 0 {
		b.Fatalf("fold bench sealed %d windows", st.WindowsSealed)
	}
}

// TestNewSeriesStartsAtClockHorizon: a clock-driven Flush seals every
// known series to its horizon, so points behind it are late; a series
// first seen after that Flush starts at the same horizon, whichever
// side of the next tick its first point falls. Nothing about it is
// sticky: once the series catches up to the clock it rolls up, and
// serves from its tier, like any other.
func TestNewSeriesStartsAtClockHorizon(t *testing.T) {
	db, eng := openEngine(t, Config{Tiers: []Tier{{Resolution: time.Minute}}, Grace: time.Minute})
	eng.Flush(t0.Add(time.Hour)) // horizon t0+59m

	tags := map[string]string{"sensor": "backfill"}
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Minute) }
	for i := 50; i < 55; i++ { // history behind the horizon
		putAt(t, db, "air.co2", tags, at(i), float64(i))
	}
	eng.Flush(t0.Add(time.Hour + 10*time.Second)) // a tick mid-backfill changes nothing
	for i := 55; i < 59; i++ {
		putAt(t, db, "air.co2", tags, at(i), float64(i))
	}
	if st := eng.Stats(); st.Late != 9 || st.Observed != 9 || st.Skipped != 0 || st.Tiers[0].OpenWindows != 0 {
		t.Fatalf("behind the horizon: late %d of %d observed, skipped %d, open %d; want 9 of 9, 0, 0",
			st.Late, st.Observed, st.Skipped, st.Tiers[0].OpenWindows)
	}
	// Catches up to the clock and passes it, two readings a window: one
	// would leave the tier as long as the raw series, no cheaper to read,
	// and the planner would decline it.
	for i := 59; i < 65; i++ {
		putAt(t, db, "air.co2", tags, at(i), float64(i))
		putAt(t, db, "air.co2", tags, at(i).Add(30*time.Second), float64(i))
	}
	eng.Flush(t0.Add(time.Hour + 10*time.Minute))
	got := statPoints(t, db, "rollup.1m.air.co2", tags, "mean")
	if len(got) != 6 || got[0] != (tsdb.Point{Timestamp: at(59).UnixMilli(), Value: 59}) || got[5].Value != 64 {
		t.Fatalf("rolled up after catching up: %v, want the six windows from the horizon on", got)
	}
	if st := eng.Stats(); st.Late != 9 || st.WindowsSealed != 6 {
		t.Fatalf("late %d, sealed %d; want 9, 6", st.Late, st.WindowsSealed)
	}
	res, err := db.Execute(tsdb.Query{Metric: "air.co2", Tags: tags, Start: at(59).UnixMilli(), End: at(65).UnixMilli() - 1,
		Aggregator: tsdb.AggAvg, Downsample: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 6 || res[0].Points[3].Value != 62 || eng.Stats().QueryHits != 1 {
		t.Fatalf("1m-avg from the horizon on: %+v (tier hits %d), want six tier-served buckets", res, eng.Stats().QueryHits)
	}
}
