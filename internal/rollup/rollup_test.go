package rollup

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/tsdb"
)

var t0 = time.Date(2017, time.March, 1, 10, 0, 0, 0, time.UTC)

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// genPoints produces a jittered ~cadence stream over span with
// out-of-order arrivals: points are shuffled within sliding groups,
// so a later-timestamped point regularly arrives before an earlier
// one inside the same (unsealed) window.
func genPoints(rng *rand.Rand, metric string, tags map[string]string, span, cadence time.Duration) []tsdb.DataPoint {
	var pts []tsdb.DataPoint
	v := 400.0
	for off := time.Duration(0); off < span; off += cadence {
		jitter := time.Duration(rng.Intn(int(cadence / 2)))
		v += rng.Float64()*4 - 2
		pts = append(pts, tsdb.DataPoint{
			Metric: metric, Tags: tags,
			Point: tsdb.Point{Timestamp: t0.Add(off + jitter).UnixMilli(), Value: v},
		})
	}
	// Shuffle within disjoint groups: arrivals are out of order by up
	// to a few minutes — inside the engine's grace allowance, so no
	// point is dropped as late.
	for i := 0; i+6 <= len(pts); i += 6 {
		g := pts[i : i+6]
		rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
	}
	return pts
}

// TestWindowMatchesRawReaggregation is the property test of the
// ISSUE: every sealed rollup window must equal re-aggregating the raw
// points it covers, for every stored statistic, including points that
// arrived out of order inside the unsealed window.
func TestWindowMatchesRawReaggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	eng, err := New(db, Config{
		Tiers:      []Tier{{Resolution: time.Minute}, {Resolution: time.Hour}},
		Grace:      10 * time.Minute,
		FlushEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	tags := map[string]string{"sensor": "s1", "city": "trondheim"}
	pts := genPoints(rng, "air.co2", tags, 3*time.Hour, 20*time.Second)
	for _, dp := range pts {
		if err := put(db, dp); err != nil {
			t.Fatal(err)
		}
	}
	if late := eng.Stats().Late; late != 0 {
		t.Fatalf("grace window too small for shuffled arrivals: %d late drops", late)
	}
	eng.FlushAll()

	for _, res := range []time.Duration{time.Minute, time.Hour} {
		resMS := res.Milliseconds()
		// Re-aggregate raw input per window.
		expect := map[int64][]float64{}
		for _, dp := range pts {
			w := dp.Timestamp - dp.Timestamp%resMS
			expect[w] = append(expect[w], dp.Value)
		}
		derived := MetricPrefix + formatRes(res) + ".air.co2"
		for _, s := range windowStats {
			st := map[string]string{"sensor": "s1", "city": "trondheim", StatTag: s.name}
			got, err := db.SeriesWindowExact(derived, st, 0, math.MaxInt64/2)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(expect) {
				t.Fatalf("%s %s: %d windows stored, want %d", res, s.name, len(got), len(expect))
			}
			for _, p := range got {
				vals, ok := expect[p.Timestamp]
				if !ok {
					t.Fatalf("%s %s: unexpected window at %d", res, s.name, p.Timestamp)
				}
				if want := s.agg.Apply(vals); !approxEq(p.Value, want) {
					t.Fatalf("%s %s window %d: got %v, want %v", res, s.name, p.Timestamp, p.Value, want)
				}
			}
		}
	}
}

// buildPair writes identical multi-series data into a plain store and
// a rollup-backed one.
func buildPair(t *testing.T, grace time.Duration) (*tsdb.DB, *tsdb.DB, *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	raw, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rolled, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(rolled, Config{
		Tiers:      []Tier{{Resolution: time.Minute}, {Resolution: time.Hour}},
		Grace:      grace,
		FlushEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close(); raw.Close(); rolled.Close() })
	for i := 0; i < 3; i++ {
		tags := map[string]string{"sensor": fmt.Sprintf("s%d", i+1), "city": "vejle"}
		for _, dp := range genPoints(rng, "air.no2", tags, 4*time.Hour, 30*time.Second) {
			if err := put(raw, dp); err != nil {
				t.Fatal(err)
			}
			if err := put(rolled, dp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if late := eng.Stats().Late; late != 0 {
		t.Fatalf("test data exceeded the grace window: %d late drops", late)
	}
	return raw, rolled, eng
}

func sameResults(t *testing.T, label string, a, b []tsdb.ResultSeries) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d series vs %d", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i].Points) != len(b[i].Points) {
			t.Fatalf("%s series %d: %d points vs %d", label, i, len(a[i].Points), len(b[i].Points))
		}
		for j := range a[i].Points {
			pa, pb := a[i].Points[j], b[i].Points[j]
			if pa.Timestamp != pb.Timestamp || !approxEq(pa.Value, pb.Value) {
				t.Fatalf("%s series %d point %d: (%d,%v) vs (%d,%v)",
					label, i, j, pa.Timestamp, pa.Value, pb.Timestamp, pb.Value)
			}
		}
	}
}

// TestExecuteParity: with every window sealed, rollup-served queries
// must be bucket-for-bucket identical to raw scans, across
// aggregators, intervals, partial edge buckets and group-bys.
func TestExecuteParity(t *testing.T) {
	raw, rolled, eng := buildPair(t, 10*time.Minute)
	eng.FlushAll()

	// Mid-bucket start and an end beyond the data exercise the raw
	// head/tail edges around the tier-served middle.
	start := t0.Add(90 * time.Second).UnixMilli()
	end := t0.Add(5 * time.Hour).UnixMilli()
	for _, fn := range []tsdb.Aggregator{tsdb.AggAvg, tsdb.AggSum, tsdb.AggMin, tsdb.AggMax, tsdb.AggCount, tsdb.AggP50, tsdb.AggP95, tsdb.AggP99, tsdb.AggDev} {
		for _, iv := range []time.Duration{time.Minute, 5 * time.Minute, time.Hour} {
			for _, tags := range []map[string]string{{"sensor": "*"}, nil} {
				q := tsdb.Query{
					Metric: "air.no2", Tags: tags, Start: start, End: end,
					Aggregator: tsdb.AggAvg, Downsample: iv, DownsampleFn: fn,
				}
				want, err := raw.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rolled.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, fmt.Sprintf("fn=%s iv=%s tags=%v", fn, iv, tags), got, want)
			}
		}
	}
	st := eng.Stats()
	if st.QueryHits == 0 {
		t.Fatal("no query was served from rollup tiers")
	}
	// Percentiles at non-native intervals must have fallen back.
	if st.QueryFallbacks == 0 {
		t.Fatal("expected raw fallbacks for non-composable aggregators")
	}
}

// TestPlannerParityBits holds the planner to the planner-off answer
// bit for bit, over seeded random ranges aligned to nothing, every
// aggregator, intervals on and off each tier's resolution, and a series
// either side of the cost rule: a dense one (1 Hz — a tier is 60 or
// 3,600 times shorter than the raw series) and a sparse one (the
// pilots' five minutes — the 1m tier is as long as the raw series and
// declined, the 1h tier twelve times shorter and used). Readings are
// multiples of 1/8 in arrival order: sums of sums associate differently
// from one sum, so only values that add exactly can agree to the bit
// (TestExecuteParity covers arbitrary floats and out-of-order arrival
// to a tolerance). It then reruns with the cached derived refs dropped,
// as a restart leaves them; live, with the series reporting past the
// last Flush so the 1m tier seals by watermark while the 1h tier's
// bucket stays open; and after retention has killed the 1m tier's
// derived series and later seals have brought them back.
func TestPlannerParityBits(t *testing.T) {
	clock := t0
	db, eng := openEngine(t, Config{
		Tiers: []Tier{{Resolution: time.Minute, Retention: 12 * time.Hour}, {Resolution: time.Hour}},
		Now:   func() time.Time { return clock },
	})
	rng := rand.New(rand.NewSource(18))
	series := []struct {
		name    string
		cadence time.Duration
		ref     *tsdb.Ref
	}{{name: "dense", cadence: time.Second}, {name: "sparse", cadence: 5 * time.Minute}}
	// write appends the readings of both series due in [from, to).
	write := func(from, to time.Duration) {
		t.Helper()
		for i := range series {
			s := &series[i]
			if s.ref == nil {
				var err error
				if s.ref, err = db.Intern("air.pm", map[string]string{"sensor": s.name}); err != nil {
					t.Fatal(err)
				}
			}
			var batch []tsdb.RefPoint
			for off := (from + s.cadence - 1).Truncate(s.cadence); off < to; off += s.cadence {
				batch = append(batch, tsdb.RefPoint{Ref: s.ref, Point: tsdb.Point{
					Timestamp: t0.Add(off).UnixMilli() + int64(rng.Intn(900)), Value: float64(rng.Intn(8000)-2000) / 8}})
			}
			if res := db.AppendRefs(batch); len(res.Errors) > 0 {
				t.Fatal(res.Errors[0])
			}
		}
	}
	// load appends [from, to) of both series and moves the clock to to.
	load := func(from, to time.Duration) {
		t.Helper()
		write(from, to)
		clock = t0.Add(to)
		eng.Flush(clock)
	}
	aggs := []tsdb.Aggregator{tsdb.AggSum, tsdb.AggAvg, tsdb.AggMin, tsdb.AggMax, tsdb.AggCount, tsdb.AggP50, tsdb.AggP95, tsdb.AggP99, tsdb.AggDev}
	intervals := []time.Duration{time.Minute, 7 * time.Minute, 30 * time.Minute, time.Hour, 3 * time.Hour}
	// served is what the planner did with one or more queries: hits,
	// fallbacks, and the hits whose open bucket came from the 1m tier.
	type served struct{ hits, fallbacks, tails uint64 }
	// check runs one query with the planner off and on and returns what
	// the planner did with it.
	check := func(label, sensor string, start, end int64, iv time.Duration, fn tsdb.Aggregator) served {
		t.Helper()
		q := tsdb.Query{Metric: "air.pm", Tags: map[string]string{"sensor": sensor}, Start: start, End: end,
			Aggregator: tsdb.AggAvg, Downsample: iv, DownsampleFn: fn}
		db.SetRollupPlanner(nil)
		want, err := db.Execute(q)
		db.SetRollupPlanner(eng)
		if err != nil {
			t.Fatal(err)
		}
		before := eng.Stats()
		got, err := db.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		label = fmt.Sprintf("%s: %s %s-%s [%d, %d]", label, sensor, iv, fn, start, end)
		if len(got) != len(want) {
			t.Fatalf("%s: %d series, planner off %d", label, len(got), len(want))
		}
		for i := range got {
			if len(got[i].Points) != len(want[i].Points) {
				t.Fatalf("%s: %d buckets, planner off %d", label, len(got[i].Points), len(want[i].Points))
			}
			for j, p := range got[i].Points {
				if w := want[i].Points[j]; p.Timestamp != w.Timestamp || math.Float64bits(p.Value) != math.Float64bits(w.Value) {
					t.Fatalf("%s: bucket %d is %v (%#x), planner off %v (%#x)", label, j, p, math.Float64bits(p.Value), w, math.Float64bits(w.Value))
				}
			}
		}
		after := eng.Stats()
		return served{after.QueryHits - before.QueryHits, after.QueryFallbacks - before.QueryFallbacks, after.TailServed - before.TailServed}
	}
	// expect runs check on a range given as offsets from t0 and holds the
	// planner to one decision.
	expect := func(label, sensor string, from, to time.Duration, iv time.Duration, fn tsdb.Aggregator, want served) {
		t.Helper()
		if got := check(label, sensor, t0.Add(from).UnixMilli(), t0.Add(to).UnixMilli(), iv, fn); got != want {
			t.Errorf("%s: %s %s-%s over [%s, %s]: %+v, want %+v", label, sensor, iv, fn, from, to, got, want)
		}
	}
	// sweep checks trials random ranges inside [lo, hi) × everything.
	sweep := func(label string, trials int, lo, hi time.Duration) (total served) {
		t.Helper()
		for trial := 0; trial < trials; trial++ {
			a, b := lo.Milliseconds()+rng.Int63n((hi-lo).Milliseconds()), lo.Milliseconds()+rng.Int63n((hi-lo).Milliseconds())
			if a > b {
				a, b = b, a
			}
			for _, s := range series {
				for _, iv := range intervals {
					for _, fn := range aggs {
						got := check(label, s.name, t0.UnixMilli()+a, t0.UnixMilli()+b, iv, fn)
						total.hits += got.hits
						total.tails += got.tails
					}
				}
			}
		}
		return total
	}

	load(0, 8*time.Hour)
	if got := sweep("sealed", 8, 0, 8*time.Hour+10*time.Minute); got.hits == 0 {
		t.Fatal("no query of the sweep was served from a tier")
	}

	// Each side of the cost rule, on ranges a tier could cover whole.
	from, to := t0.Add(time.Hour).UnixMilli(), t0.Add(7*time.Hour).UnixMilli()-1
	for _, c := range []struct {
		sensor string
		iv     time.Duration
		fn     tsdb.Aggregator
		served bool
	}{
		{"dense", 7 * time.Minute, tsdb.AggAvg, true},   // two 1m statistics, each 60× shorter than raw
		{"dense", time.Minute, tsdb.AggP95, true},       // one, at its own resolution
		{"sparse", 7 * time.Minute, tsdb.AggAvg, false}, // two, each as long as raw: twice the scan
		{"sparse", time.Minute, tsdb.AggMax, false},     // one as long as raw: no cheaper
		{"sparse", time.Hour, tsdb.AggAvg, true},        // the 1h tier is 12× shorter
		{"sparse", 3 * time.Hour, tsdb.AggAvg, true},    // two of them still 6×
	} {
		got := check("cost rule", c.sensor, from, to, c.iv, c.fn)
		if served := got.hits == 1 && got.fallbacks == 0; served != c.served || got.hits+got.fallbacks != 1 {
			t.Errorf("cost rule: %s %s-%s: %+v; want served=%v", c.sensor, c.iv, c.fn, got, c.served)
		}
	}

	// A restart restores horizons, not refs: drop the cached ones and
	// the planner must find the derived series by name, once.
	for i := range eng.shards {
		for _, st := range eng.shards[i].series {
			for ti := range st.tiers {
				st.tiers[ti].refs = [numStats]*tsdb.Ref{}
			}
		}
	}
	if got := sweep("refs dropped", 2, 0, 8*time.Hour); got.hits == 0 {
		t.Fatal("no query was served from a tier through looked-up refs")
	}

	// goLive writes forty minutes past open, a minute a batch, with no
	// Flush: only the watermarks seal — the dense series' 1m tier to
	// open+39m and the sparse one's to open+35m, while both 1h tiers stay
	// sealed to open.
	goLive := func(open time.Duration) {
		for off := open; off < open+40*time.Minute; off += time.Minute {
			write(off, off+time.Minute)
		}
	}
	open := 8 * time.Hour
	goLive(open)
	if got := sweep("live", 8, 6*time.Hour, 8*time.Hour+45*time.Minute); got.tails == 0 {
		t.Fatal("no query of the live sweep read its open bucket from the 1m tier")
	}
	hit, tail, fallback := served{hits: 1}, served{hits: 1, tails: 1}, served{fallbacks: 1}
	composable := []tsdb.Aggregator{tsdb.AggAvg, tsdb.AggSum, tsdb.AggMin, tsdb.AggMax, tsdb.AggCount}
	for _, fn := range composable {
		// Wholly inside the open hour: no 1h window to read, so the raw
		// scan once; sealed minutes plus the last one raw now.
		expect("inside the open hour", "dense", open, open+35*time.Minute+17*time.Second, time.Hour, fn, tail)
		// The range ends inside a sealed 1m window: the windows before it,
		// then that minute raw.
		expect("end in a sealed minute", "dense", open-90*time.Minute, open+20*time.Minute+30*time.Second, time.Hour, fn, tail)
		expect("3h bucket", "dense", open-5*time.Hour, open+45*time.Minute, 3*time.Hour, fn, tail)
		expect("30m buckets", "dense", open-2*time.Hour+7*time.Minute, open+45*time.Minute, 30*time.Minute, fn, tail)
		// Five-minute readings: the 1m tier is as long as raw.
		expect("sparse declines", "sparse", open-2*time.Hour, open+45*time.Minute, time.Hour, fn, hit)
	}
	// Percentiles and dev do not compose: the tail stays raw.
	expect("p95 raw tail", "dense", open-3*time.Hour, open+45*time.Minute, time.Hour, tsdb.AggP95, hit)
	expect("dev", "dense", open-3*time.Hour, open+45*time.Minute, time.Hour, tsdb.AggDev, fallback)

	// Half a day on, retention removes every 1m-tier point there is —
	// the cached refs die with their series — and the series resume:
	// the next seals re-intern what the planner then reads.
	clock = t0.Add(21 * time.Hour)
	cached := eng.shards[uint64(series[0].ref.ID())%engineShards].series[series[0].ref.ID()].tiers[0].refs[statSum]
	if n, err := eng.ApplyRetention(clock); err != nil || n == 0 || cached == nil || cached.Live() {
		t.Fatalf("retention removed %d points (%v); the dense series' cached 1m sum ref must be dead", n, err)
	}
	if got := check("1m tier aged out", "dense", from, to, 7*time.Minute, tsdb.AggAvg); got != fallback {
		t.Fatalf("a range behind the tier's retention: %+v; want the raw scan", got)
	}
	// The open hour's 1m windows are gone: its tail is raw again.
	expect("1m refs killed", "dense", open-2*time.Hour, open+40*time.Minute, time.Hour, tsdb.AggAvg, hit)
	load(21*time.Hour, 23*time.Hour)
	if got := sweep("after retention", 6, 0, 23*time.Hour+10*time.Minute); got.hits == 0 {
		t.Fatal("no query was served from a tier after retention")
	}
	if got := check("re-interned", "dense", t0.Add(21*time.Hour).UnixMilli(), t0.Add(23*time.Hour).UnixMilli()-1, 7*time.Minute, tsdb.AggAvg); got.hits != 1 {
		t.Fatal("the resumed dense series is not served from its re-interned 1m tier")
	}

	// Live again, then late: a dense reading more than Grace behind the
	// watermark, inside the open hour. Its minute is sealed, so the 1m
	// tier drops it while the open 1h window keeps it: the 1h buckets
	// from that minute on scan raw until the 1h tier seals, as they did
	// before the 1m tier served them. (Intervals the 1m tier itself
	// serves leave the reading out, as late readings always were.)
	open = 23 * time.Hour
	goLive(open)
	late := tsdb.RefPoint{Ref: series[0].ref, Point: tsdb.Point{Timestamp: t0.Add(open+10*time.Minute).UnixMilli() + 950, Value: 3}}
	if res := db.AppendRefs([]tsdb.RefPoint{late}); len(res.Errors) > 0 {
		t.Fatal(res.Errors[0])
	}
	for _, fn := range composable {
		expect("late: inside the open hour", "dense", open, open+35*time.Minute+17*time.Second, time.Hour, fn, fallback)
		expect("late: open hour", "dense", open-2*time.Hour, open+45*time.Minute, time.Hour, fn, hit)
		expect("late: 30m bucket after it", "dense", open+30*time.Minute, open+45*time.Minute, 30*time.Minute, fn, tail)
	}

	// A series first seen behind the clock horizon: after a Flush at
	// open+20m its 1m tier starts sealed to there and its 1h tier to
	// open, so its minutes before open+20m are late for the one and not
	// the other. It then catches up to live at 1 Hz.
	clock = t0.Add(open + 20*time.Minute)
	eng.Flush(clock)
	backfill, err := db.Intern("air.pm", map[string]string{"sensor": "backfill"})
	if err != nil {
		t.Fatal(err)
	}
	for off := open + 5*time.Minute; off < open+40*time.Minute; off += time.Minute {
		var batch []tsdb.RefPoint
		for s := off; s < off+time.Minute; s += time.Second {
			batch = append(batch, tsdb.RefPoint{Ref: backfill, Point: tsdb.Point{
				Timestamp: t0.Add(s).UnixMilli() + int64(rng.Intn(900)), Value: float64(rng.Intn(8000)-2000) / 8}})
		}
		if res := db.AppendRefs(batch); len(res.Errors) > 0 {
			t.Fatal(res.Errors[0])
		}
	}
	for _, fn := range composable {
		expect("behind the clock", "backfill", open, open+38*time.Minute+5*time.Second, time.Hour, fn, fallback)
		expect("behind the clock: 30m bucket after it", "backfill", open+7*time.Minute, open+45*time.Minute, 30*time.Minute, fn, tail)
	}
	// Random ranges over both, at the intervals the 1h tier serves.
	for trial := 0; trial < 6; trial++ {
		lo, span := t0.Add(open-2*time.Hour).UnixMilli(), (2*time.Hour + 45*time.Minute).Milliseconds()
		a, b := lo+rng.Int63n(span), lo+rng.Int63n(span)
		if a > b {
			a, b = b, a
		}
		for _, sensor := range []string{"dense", "backfill"} {
			for _, iv := range []time.Duration{time.Hour, 3 * time.Hour} {
				for _, fn := range aggs {
					if got := check("late", sensor, a, b, iv, fn); got.tails != 0 {
						t.Errorf("late: %s %s-%s [%d, %d] read its open bucket from the 1m tier", sensor, iv, fn, a, b)
					}
				}
			}
		}
	}
}

// TestUnsealedTailFallback: before any window seals nothing can be
// served from tiers, and results still match a raw scan exactly.
func TestUnsealedTailFallback(t *testing.T) {
	raw, rolled, eng := buildPair(t, 24*time.Hour) // grace holds all windows open
	q := tsdb.Query{
		Metric: "air.no2", Tags: map[string]string{"sensor": "*"},
		Start: t0.UnixMilli(), End: t0.Add(4 * time.Hour).UnixMilli(),
		Aggregator: tsdb.AggAvg, Downsample: time.Minute,
	}
	want, err := raw.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rolled.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "unsealed", got, want)
	st := eng.Stats()
	if st.QueryHits != 0 {
		t.Fatalf("served %d downsamples from tiers with every window unsealed", st.QueryHits)
	}
	if st.Tiers[0].OpenWindows == 0 {
		t.Fatal("expected open windows")
	}

	eng.FlushAll()
	got, err = rolled.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "sealed", got, want)
	if eng.Stats().QueryHits == 0 {
		t.Fatal("expected tier-served downsamples after FlushAll")
	}
}

// TestTieredRetention: raw and each tier age out independently.
func TestTieredRetention(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	eng, err := New(db, Config{
		Tiers: []Tier{
			{Resolution: time.Minute, Retention: 2 * time.Hour},
			{Resolution: time.Hour}, // keep forever
		},
		RawRetention: time.Hour,
		FlushEvery:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	tags := map[string]string{"sensor": "s1"}
	for off := time.Duration(0); off < 6*time.Hour; off += time.Minute {
		if err := put(db, tsdb.DataPoint{
			Metric: "air.co2", Tags: tags,
			Point: tsdb.Point{Timestamp: t0.Add(off).UnixMilli(), Value: 400},
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.FlushAll()
	now := t0.Add(6 * time.Hour)
	removed, err := eng.ApplyRetention(now)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("retention removed nothing")
	}

	countIn := func(metric string, tg map[string]string, from, to time.Time) int {
		pts, err := db.SeriesWindowExact(metric, tg, from.UnixMilli(), to.UnixMilli()-1)
		if err != nil {
			t.Fatal(err)
		}
		return len(pts)
	}
	if n := countIn("air.co2", tags, t0, now.Add(-time.Hour)); n != 0 {
		t.Fatalf("%d raw points survived raw retention", n)
	}
	if n := countIn("air.co2", tags, now.Add(-time.Hour), now); n == 0 {
		t.Fatal("recent raw points were deleted")
	}
	mtags := map[string]string{"sensor": "s1", StatTag: "mean"}
	if n := countIn("rollup.1m.air.co2", mtags, t0, now.Add(-2*time.Hour)); n != 0 {
		t.Fatalf("%d 1m windows survived tier retention", n)
	}
	if n := countIn("rollup.1m.air.co2", mtags, now.Add(-2*time.Hour), now); n == 0 {
		t.Fatal("recent 1m windows were deleted")
	}
	if n := countIn("rollup.1h.air.co2", mtags, t0, now); n == 0 {
		t.Fatal("1h tier (infinite retention) lost windows")
	}
	if eng.Stats().RetentionDeleted == 0 {
		t.Fatal("retention counter not incremented")
	}
}

// TestLateArrivalDropped: with zero grace, a point behind the sealed
// horizon is excluded from rollups (and counted) but stays raw.
func TestLateArrivalDropped(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	eng, err := New(db, Config{Tiers: []Tier{{Resolution: time.Minute}}, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	tags := map[string]string{"sensor": "s1"}
	putOff := func(off time.Duration, v float64) {
		t.Helper()
		if err := put(db, tsdb.DataPoint{
			Metric: "air.co2", Tags: tags,
			Point: tsdb.Point{Timestamp: t0.Add(off).UnixMilli(), Value: v},
		}); err != nil {
			t.Fatal(err)
		}
	}
	putOff(0, 400)
	putOff(30*time.Second, 410)
	putOff(70*time.Second, 420) // watermark passes 1m: first window seals
	putOff(45*time.Second, 999) // late for the sealed window

	st := eng.Stats()
	if st.Late != 1 {
		t.Fatalf("late = %d, want 1", st.Late)
	}
	got, err := db.SeriesWindowExact("rollup.1m.air.co2",
		map[string]string{"sensor": "s1", StatTag: "count"}, t0.UnixMilli(), t0.UnixMilli())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != 2 {
		t.Fatalf("sealed window count = %v, want one point of value 2", got)
	}
	// The raw series still holds all four points.
	raw, err := db.SeriesWindowExact("air.co2", tags, 0, math.MaxInt64/2)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 {
		t.Fatalf("raw points = %d, want 4", len(raw))
	}
}

// TestServeSkipsDerivedAndReserved: direct queries over the derived
// namespace and series carrying the reserved stat tag bypass rollups.
func TestServeSkipsDerivedAndReserved(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	eng, err := New(db, Config{Tiers: []Tier{{Resolution: time.Minute}}, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := put(db, tsdb.DataPoint{
		Metric: "x", Tags: map[string]string{StatTag: "weird"},
		Point: tsdb.Point{Timestamp: t0.UnixMilli(), Value: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Skipped != 1 || st.Observed != 0 {
		t.Fatalf("skipped=%d observed=%d, want 1/0", st.Skipped, st.Observed)
	}
	derivedRef, err := db.Intern("rollup.1m.x", map[string]string{StatTag: "mean"})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := serveDownsample(eng, derivedRef, 0, 1, time.Minute, tsdb.AggAvg,
		func(tsdb.Point) error { return nil }); ok {
		t.Fatal("served a downsample over the derived namespace")
	}
}

// TestServeRespectsTierRetention: when a tier's retention has aged
// out derived windows that raw points outlive, queries over the old
// range must come from raw, not silently go empty.
func TestServeRespectsTierRetention(t *testing.T) {
	now := t0.Add(6 * time.Hour)
	raw, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rolled, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(rolled, Config{
		Tiers:      []Tier{{Resolution: time.Minute, Retention: 2 * time.Hour}},
		FlushEvery: -1,
		Now:        func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close(); raw.Close(); rolled.Close() })

	tags := map[string]string{"sensor": "s1"}
	for off := time.Duration(0); off < 6*time.Hour; off += time.Minute {
		dp := tsdb.DataPoint{
			Metric: "air.co2", Tags: tags,
			Point: tsdb.Point{Timestamp: t0.Add(off).UnixMilli(), Value: 400 + float64(off/time.Minute)},
		}
		if err := put(raw, dp); err != nil {
			t.Fatal(err)
		}
		if err := put(rolled, dp); err != nil {
			t.Fatal(err)
		}
	}
	eng.FlushAll()
	if _, err := eng.ApplyRetention(now); err != nil {
		t.Fatal(err)
	}

	q := tsdb.Query{
		Metric: "air.co2", Tags: map[string]string{"sensor": "s1"},
		Start: t0.UnixMilli(), End: now.UnixMilli(),
		Aggregator: tsdb.AggAvg, Downsample: time.Minute,
	}
	want, err := raw.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rolled.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "tier-retention", got, want)
	if eng.Stats().QueryHits == 0 {
		t.Fatal("recent range was not tier-served")
	}
}

// TestPruneDeadSeriesState: a series fully aged out by retention gets
// a new SeriesID if it ever returns, so the engine must drop its
// drained state instead of accumulating one entry per kill/revive
// cycle.
func TestPruneDeadSeriesState(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	eng, err := New(db, Config{Tiers: []Tier{{Resolution: time.Minute}}, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	tags := map[string]string{"sensor": "prune"}
	if err := put(db, tsdb.DataPoint{Metric: "pr.m", Tags: tags,
		Point: tsdb.Point{Timestamp: t0.UnixMilli(), Value: 1}}); err != nil {
		t.Fatal(err)
	}
	// Count tracked (non-skip) states: sealing writes derived series,
	// whose skip-only states are expected and live.
	states := func() int {
		n := 0
		for i := range eng.shards {
			eng.shards[i].mu.Lock()
			for _, st := range eng.shards[i].series {
				if !st.skip {
					n++
				}
			}
			eng.shards[i].mu.Unlock()
		}
		return n
	}
	if states() == 0 {
		t.Fatal("observer did not create tracking state")
	}
	// Age the raw series out entirely (the derived windows too), then
	// flush far past the window end so everything seals and the dead
	// state drains.
	if _, err := db.DeleteBefore(t0.Add(time.Hour).UnixMilli()); err != nil {
		t.Fatal(err)
	}
	eng.Flush(t0.Add(2 * time.Hour))
	if n := states(); n != 0 {
		t.Fatalf("dead series state not pruned: %d entries remain", n)
	}
	// The series coming back (new SeriesID) tracks again.
	if err := put(db, tsdb.DataPoint{Metric: "pr.m", Tags: tags,
		Point: tsdb.Point{Timestamp: t0.Add(3 * time.Hour).UnixMilli(), Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if states() == 0 {
		t.Fatal("revived series not tracked")
	}
}
