package rollup

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// TestPlanDeclineReasons: every branch on which the planner leaves a
// member to the raw scan names itself in the query's plan.
func TestPlanDeclineReasons(t *testing.T) {
	clock := t0.Add(10 * time.Hour)
	db, eng := openEngine(t, Config{
		Tiers: []Tier{{Resolution: time.Minute, Retention: 12 * time.Hour}, {Resolution: time.Hour}},
		Now:   func() time.Time { return clock },
	})
	// write appends one reading of sensor every step over [from, to).
	write := func(tags map[string]string, from, to, step time.Duration) {
		t.Helper()
		ref, err := db.Intern("air.pm", tags)
		if err != nil {
			t.Fatal(err)
		}
		var batch []tsdb.RefPoint
		for off := from; off < to; off += step {
			batch = append(batch, tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: t0.Add(off).UnixMilli(), Value: float64(off / step % 7)}})
		}
		if res := db.AppendRefs(batch); len(res.Errors) > 0 {
			t.Fatal(res.Errors[0])
		}
	}
	dense := map[string]string{"sensor": "dense"}
	write(dense, 0, 10*time.Hour, time.Second)
	write(map[string]string{"sensor": "sparse"}, 0, 10*time.Hour, 5*time.Minute)
	write(map[string]string{"sensor": "odd", StatTag: "weird"}, 0, 10*time.Hour, 5*time.Minute)
	eng.Flush(clock)
	// late: live forty minutes past the 1h horizon at 10h, so its 1m
	// tier seals by watermark; then a reading for a sealed minute, which
	// the 1m tier drops as late.
	late := map[string]string{"sensor": "late"}
	write(late, 10*time.Hour, 10*time.Hour+40*time.Minute, time.Second)
	write(late, 10*time.Hour+10*time.Minute+500*time.Millisecond, 10*time.Hour+10*time.Minute+time.Second, time.Second)

	at := func(d time.Duration) int64 { return t0.Add(d).UnixMilli() }
	for _, c := range []struct {
		name      string
		metric    string
		tags      map[string]string
		from, to  time.Duration
		iv        time.Duration
		fn        tsdb.Aggregator
		now       time.Duration // the clock, when not 10h
		source    string
		fallbacks uint64
	}{
		{name: "served", tags: dense, from: time.Hour, to: 7 * time.Hour, iv: time.Hour, fn: tsdb.AggAvg,
			source: "} rollup 1h est="},
		{name: "derived series", metric: "rollup.1h.air.pm", tags: map[string]string{"sensor": "dense", StatTag: "sum"},
			from: time.Hour, to: 7 * time.Hour, iv: time.Hour, fn: tsdb.AggSum, source: "(derived series read directly)"},
		{name: "interval finer than every tier", tags: dense, from: time.Hour, to: 2 * time.Hour, iv: 30 * time.Second, fn: tsdb.AggAvg,
			source: "(no tier divides the interval)", fallbacks: 1},
		{name: "aggregator does not compose", tags: dense, from: time.Hour, to: 7 * time.Hour, iv: time.Hour, fn: tsdb.AggDev,
			source: "(aggregator does not compose across windows)", fallbacks: 1},
		{name: "not rolled up", tags: map[string]string{"sensor": "odd"}, from: time.Hour, to: 7 * time.Hour, iv: time.Hour, fn: tsdb.AggAvg,
			source: "(series not rolled up)", fallbacks: 1},
		{name: "cost rule", tags: map[string]string{"sensor": "sparse"}, from: time.Hour, to: 7 * time.Hour, iv: time.Minute, fn: tsdb.AggMax,
			source: "(tier no cheaper than the raw scan)", fallbacks: 1},
		{name: "late drop on the finer tier", tags: late, from: 10 * time.Hour, to: 10*time.Hour + 35*time.Minute, iv: time.Hour, fn: tsdb.AggAvg,
			source: "(no tier serves a bucket: the finer tier dropped a late point)", fallbacks: 1},
		{name: "retention floor", tags: dense, from: time.Hour, to: 5 * time.Hour, iv: 7 * time.Minute, fn: tsdb.AggAvg, now: 30 * time.Hour,
			source: "(no tier serves a bucket: past the tier's retention)", fallbacks: 1},
		{name: "no tier serves a bucket", tags: dense, from: 12 * time.Hour, to: 14 * time.Hour, iv: time.Hour, fn: tsdb.AggAvg,
			source: "(no tier serves a bucket)", fallbacks: 1},
	} {
		clock = t0.Add(10 * time.Hour)
		if c.now > 0 {
			clock = t0.Add(c.now)
		}
		if c.metric == "" {
			c.metric = "air.pm"
		}
		before := eng.Stats()
		p, err := db.Plan(tsdb.Query{Metric: c.metric, Tags: c.tags, Start: at(c.from), End: at(c.to) - 1,
			Aggregator: tsdb.AggAvg, Downsample: c.iv, DownsampleFn: c.fn})
		if err != nil {
			t.Fatal(err)
		}
		after := eng.Stats()
		if note := p.String(); p.Tiered+p.Raw != 1 || !strings.Contains(note, c.source) {
			t.Errorf("%s: plan %q (%d tiered, %d raw), want one member with %q", c.name, note, p.Tiered, p.Raw, c.source)
		}
		if got := after.QueryFallbacks - before.QueryFallbacks; got != c.fallbacks {
			t.Errorf("%s: %d fallbacks counted, want %d", c.name, got, c.fallbacks)
		}
	}
}

// TestPlanEstimateBoundsReads: over the TestPlannerParityBits series —
// a dense and a sparse one, sealed and then live, read by every
// aggregator at intervals on and off each tier — a plan's Estimate is
// never below the points its run reads, tier reads and raw scans alike.
func TestPlanEstimateBoundsReads(t *testing.T) {
	clock := t0
	db, eng := openEngine(t, Config{
		Tiers: []Tier{{Resolution: time.Minute, Retention: 12 * time.Hour}, {Resolution: time.Hour}},
		Now:   func() time.Time { return clock },
	})
	rng := rand.New(rand.NewSource(18))
	refs := map[string]*tsdb.Ref{}
	cadence := map[string]time.Duration{"dense": time.Second, "sparse": 5 * time.Minute}
	write := func(from, to time.Duration) {
		t.Helper()
		for _, name := range []string{"dense", "sparse"} {
			if refs[name] == nil {
				var err error
				if refs[name], err = db.Intern("air.pm", map[string]string{"sensor": name}); err != nil {
					t.Fatal(err)
				}
			}
			var batch []tsdb.RefPoint
			for off := (from + cadence[name] - 1).Truncate(cadence[name]); off < to; off += cadence[name] {
				batch = append(batch, tsdb.RefPoint{Ref: refs[name], Point: tsdb.Point{
					Timestamp: t0.Add(off).UnixMilli() + int64(rng.Intn(900)), Value: float64(rng.Intn(8000)-2000) / 8}})
			}
			if res := db.AppendRefs(batch); len(res.Errors) > 0 {
				t.Fatal(res.Errors[0])
			}
		}
	}
	aggs := []tsdb.Aggregator{tsdb.AggSum, tsdb.AggAvg, tsdb.AggMin, tsdb.AggMax, tsdb.AggCount, tsdb.AggP50, tsdb.AggP95, tsdb.AggP99, tsdb.AggDev}
	intervals := []time.Duration{time.Minute, 7 * time.Minute, 30 * time.Minute, time.Hour, 3 * time.Hour}
	filters := []map[string]string{{"sensor": "dense"}, {"sensor": "sparse"}, {"sensor": "*"}, nil}
	tiered := 0
	sweep := func(trials int, lo, hi time.Duration) {
		t.Helper()
		for trial := 0; trial < trials; trial++ {
			a, b := lo.Milliseconds()+rng.Int63n((hi-lo).Milliseconds()), lo.Milliseconds()+rng.Int63n((hi-lo).Milliseconds())
			if a > b {
				a, b = b, a
			}
			q := tsdb.Query{Metric: "air.pm", Start: t0.UnixMilli() + a, End: t0.UnixMilli() + b,
				Aggregator: tsdb.AggAvg, Downsample: intervals[rng.Intn(len(intervals))], DownsampleFn: aggs[rng.Intn(len(aggs))],
				Tags: filters[rng.Intn(len(filters))]}
			p, err := db.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			before := db.PointsRead()
			if err := p.Run(func(tsdb.ResultSeries) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if read := db.PointsRead() - before; int64(p.Estimate) < read {
				t.Fatalf("%s-%s over %v [%d, %d]: estimate %d, run read %d\n%s",
					q.Downsample, q.DownsampleFn, q.Tags, a, b, p.Estimate, read, p)
			}
			tiered += p.Tiered
		}
	}
	write(0, 8*time.Hour)
	clock = t0.Add(8 * time.Hour)
	eng.Flush(clock)
	sweep(300, 0, 8*time.Hour+10*time.Minute)
	// Live: forty minutes past the horizon with no Flush, so the 1m
	// tier seals by watermark while the 1h bucket stays open.
	for off := 8 * time.Hour; off < 8*time.Hour+40*time.Minute; off += time.Minute {
		write(off, off+time.Minute)
	}
	sweep(300, 6*time.Hour, 8*time.Hour+45*time.Minute)
	if tiered == 0 {
		t.Fatal("no member of the sweep was read from a tier")
	}
}
