package tsdb

// Tests for the streaming read path: the fused cursor pipeline
// (decode → downsample → k-way interpolating merge) must reproduce
// the classic materializing pipeline bit for bit across ragged
// timestamps, gaps, sealed/head mixes and every aggregator; the
// ordered scan must yield the same bits in the same order on every
// run; and the per-query scratch must keep percentile downsampling
// from allocating per bucket.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// refAggregateSeries is the original materializing cross-series
// reduction, kept as the parity oracle for the streaming merge.
func refAggregateSeries(series [][]Point, agg Aggregator) []Point {
	if len(series) == 1 {
		return series[0]
	}
	tsSet := map[int64]bool{}
	for _, s := range series {
		for _, p := range s {
			tsSet[p.Timestamp] = true
		}
	}
	tss := make([]int64, 0, len(tsSet))
	for ts := range tsSet {
		tss = append(tss, ts)
	}
	sort.Slice(tss, func(i, j int) bool { return tss[i] < tss[j] })

	idx := make([]int, len(series))
	out := make([]Point, 0, len(tss))
	vals := make([]float64, 0, len(series))
	for _, ts := range tss {
		vals = vals[:0]
		for si, s := range series {
			for idx[si]+1 < len(s) && s[idx[si]+1].Timestamp <= ts {
				idx[si]++
			}
			v, ok := refValueAt(s, idx[si], ts)
			if ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			out = append(out, Point{Timestamp: ts, Value: agg.apply(vals)})
		}
	}
	return out
}

func refValueAt(s []Point, cursor int, ts int64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	p := s[cursor]
	if p.Timestamp == ts {
		return p.Value, true
	}
	if p.Timestamp > ts {
		return 0, false
	}
	if cursor+1 >= len(s) {
		return 0, false
	}
	next := s[cursor+1]
	frac := float64(ts-p.Timestamp) / float64(next.Timestamp-p.Timestamp)
	return p.Value + frac*(next.Value-p.Value), true
}

// downsample is the original materializing downsample step — collect a
// bucket's values, then reduce them — kept as the reference the fused
// downsampleSource fold is checked against.
func downsample(pts []Point, interval time.Duration, fn Aggregator) []Point {
	ms := interval.Milliseconds()
	if len(pts) == 0 || ms <= 0 {
		return pts
	}
	var out []Point
	var bucketStart int64 = math.MinInt64
	var vals []float64
	flush := func() {
		if len(vals) > 0 {
			out = append(out, Point{Timestamp: bucketStart, Value: fn.apply(vals)})
			vals = vals[:0]
		}
	}
	for _, p := range pts {
		bs := p.Timestamp - (p.Timestamp % ms)
		if bs != bucketStart {
			flush()
			bucketStart = bs
		}
		vals = append(vals, p.Value)
	}
	flush()
	return out
}

// refExecute is the original materializing query pipeline (raw scan →
// downsample → aggregate → rate), with the same deterministic member
// ordering the engine uses. It ignores any installed rollup planner.
func refExecute(db *DB, q Query) ([]ResultSeries, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	groups := map[string][]matched{}
	groupTags := map[string]map[string]string{}
	var groupKeys []string
	var groupBy []string
	for k, v := range q.Tags {
		if v == "*" {
			groupBy = append(groupBy, k)
		}
	}
	sort.Strings(groupBy)
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for key, s := range sh.series {
			if s.metric != q.Metric || !tagsMatch(q.Tags, s.tags) {
				continue
			}
			gk := ""
			gt := map[string]string{}
			for _, k := range groupBy {
				gk += k + "=" + s.tags[k] + ";"
				gt[k] = s.tags[k]
			}
			if _, ok := groups[gk]; !ok {
				groupKeys = append(groupKeys, gk)
				groupTags[gk] = gt
			}
			groups[gk] = append(groups[gk], matched{s, sh, key})
		}
		sh.mu.RUnlock()
	}
	sort.Strings(groupKeys)
	for _, ms := range groups {
		sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
	}

	fn := q.DownsampleFn
	if fn == "" {
		fn = q.Aggregator
	}
	var out []ResultSeries
	for _, gk := range groupKeys {
		members := groups[gk]
		var seriesPts [][]Point
		for _, m := range members {
			pts, err := db.rawPoints(m.s, m.sh, q.Start, q.End)
			if err != nil {
				return nil, err
			}
			if q.Downsample > 0 {
				pts = downsample(pts, q.Downsample, fn)
			}
			if len(pts) > 0 {
				seriesPts = append(seriesPts, pts)
			}
		}
		if len(seriesPts) == 0 {
			continue
		}
		merged := refAggregateSeries(seriesPts, q.Aggregator)
		if q.Rate {
			merged = rate(merged)
		}
		tags := map[string]string{}
		for k, v := range groupTags[gk] {
			tags[k] = v
		}
		for k, v := range commonTags(members[0].s.tags, members) {
			tags[k] = v
		}
		out = append(out, ResultSeries{Metric: q.Metric, Tags: tags, Points: merged})
	}
	return out, nil
}

// seedRagged loads a deliberately awkward dataset: ten sensors with
// different cadences and phase offsets, periodic gaps, one sensor
// long enough to seal multiple blocks, one sensor sealed twice with
// overlapping time ranges (out-of-order ingest), and fresh head
// points interleaving with sealed data.
func seedRagged(t testing.TB, db *DB) {
	t.Helper()
	put := func(sensor string, ts int64, v float64) {
		err := put(db, DataPoint{
			Metric: "par.m",
			Tags:   map[string]string{"sensor": sensor, "city": "trondheim"},
			Point:  Point{Timestamp: ts, Value: v},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		sensor := fmt.Sprintf("s%02d", i)
		cadence := int64(60000 + i*7000)
		phase := int64(i) * 13000
		n := 80
		if i == 0 {
			n = 600 // seals two blocks, leaves a head tail
		}
		for j := 0; j < n; j++ {
			if (i+j)%17 == 0 {
				continue // gaps
			}
			if i == 3 && j > 40 && j < 60 {
				continue // one long gap
			}
			put(sensor, baseTS+phase+int64(j)*cadence, float64((i*31+j*7)%100))
		}
	}
	// Overlapping sealed blocks on s01: a full block of late points
	// landing inside the range s01 already sealed.
	for j := 0; j < headSealSize; j++ {
		put("s01", baseTS+30000+int64(j)*61000, float64(j%50))
	}
}

func parityQueries() []Query {
	end := baseTS + 12*3600*1000
	qs := []Query{}
	for _, agg := range []Aggregator{AggSum, AggAvg, AggMin, AggMax, AggCount, AggP50, AggP95, AggP99, AggDev} {
		// Cross-series aggregation, no downsample.
		qs = append(qs, Query{Metric: "par.m", Start: baseTS, End: end, Aggregator: agg})
		// Grouped with downsample (fn defaults to agg).
		qs = append(qs, Query{Metric: "par.m", Tags: map[string]string{"sensor": "*"},
			Start: baseTS, End: end, Aggregator: agg, Downsample: 5 * time.Minute})
	}
	// Mixed downsample fn, rate, and odd interval.
	qs = append(qs,
		Query{Metric: "par.m", Start: baseTS, End: end, Aggregator: AggAvg,
			Downsample: 10 * time.Minute, DownsampleFn: AggP95},
		Query{Metric: "par.m", Tags: map[string]string{"sensor": "*"}, Start: baseTS, End: end,
			Aggregator: AggAvg, Rate: true},
		Query{Metric: "par.m", Start: baseTS + 3600*1000 + 1234, End: end - 777,
			Aggregator: AggSum, Downsample: 7 * time.Minute},
	)
	return qs
}

// TestStreamingParity pins the fused streaming pipeline to the
// materializing reference across every aggregator, ragged cadences,
// gaps, sealed/head mixes and overlapping blocks — bit for bit.
func TestStreamingParity(t *testing.T) {
	db := mustOpen(t)
	seedRagged(t, db)
	for _, q := range parityQueries() {
		got, err := db.Execute(q)
		if err != nil {
			t.Fatalf("Execute(%+v): %v", q, err)
		}
		want, err := refExecute(db, q)
		if err != nil {
			t.Fatalf("refExecute(%+v): %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %+v diverged:\n got %d series\nwant %d series", q, len(got), len(want))
			for i := 0; i < len(got) && i < len(want); i++ {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("first diverging series %d:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
			t.FailNow()
		}
	}
}

// TestScanDeterministic: the ordered scan must yield the same series,
// in the same order, with the same bits, on every run — shard map
// iteration order must never reach the output.
func TestScanDeterministic(t *testing.T) {
	db := mustOpen(t)
	seedRagged(t, db)
	q := Query{Metric: "par.m", Tags: map[string]string{"sensor": "*"},
		Start: baseTS, End: baseTS + 12*3600*1000, Aggregator: AggP95, Downsample: 5 * time.Minute}

	golden, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != 10 {
		t.Fatalf("want 10 series, got %d", len(golden))
	}
	for run := 0; run < 20; run++ {
		got, err := db.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, golden) {
			t.Fatalf("run %d diverged from the first scan", run)
		}
	}
}

// TestScanYieldError: an error returned by yield mid-scan aborts the
// scan and comes back unchanged — plain, ranked and traced alike — and
// the trace can be released the moment ExecuteStream returns.
func TestScanYieldError(t *testing.T) {
	db := mustOpen(t)
	seedRagged(t, db)
	sentinel := errors.New("stop here")
	for _, limit := range []int{0, 3} {
		tr := obs.NewTrace("query", "yield-error")
		q := Query{Metric: "par.m", Tags: map[string]string{"sensor": "*"},
			Start: baseTS, End: baseTS + 12*3600*1000, Aggregator: AggAvg, SeriesLimit: limit, Trace: tr}
		n := 0
		err := db.ExecuteStream(q, func(rs ResultSeries) error {
			n++
			if n == 2 {
				return sentinel
			}
			return nil
		})
		tr.Release()
		if err != sentinel {
			t.Fatalf("limit %d: want the sentinel error unchanged, got %v", limit, err)
		}
		if n != 2 {
			t.Fatalf("limit %d: yield ran %d times, want 2", limit, n)
		}
	}
}

// TestDownsampleFoldMatchesApply: the register fold inside
// downsampleSource must produce the bits Aggregator.apply produces
// over each bucket's values in arrival order — signed zeros and NaN
// included, where "the same number" is not enough.
func TestDownsampleFoldMatchesApply(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{negZero, negZero, 0, negZero, 0.1, 0.2, 0.30000000000000004, -17.25,
		math.NaN(), 3, 2, math.NaN(), 1e300, 1e300, -1e300, 412.5, negZero, 5e-324}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 400; i++ {
		vals = append(vals, math.Round(rng.NormFloat64()*1e4)/1e3)
	}
	pts := make([]Point, len(vals))
	for i, v := range vals {
		pts[i] = Point{Timestamp: baseTS + int64(i)*1000, Value: v}
	}
	for _, fn := range []Aggregator{AggSum, AggAvg, AggMin, AggMax, AggCount, AggP50, AggP95, AggP99, AggDev} {
		for _, iv := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 7 * time.Second, time.Hour} {
			want := downsample(pts, iv, fn)
			got, err := drainSource(&downsampleSource{src: &sliceSource{pts: pts}, ms: iv.Milliseconds(), fn: fn, sc: new(execScratch)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d buckets, want %d", fn, iv, len(got), len(want))
			}
			for i := range got {
				if got[i].Timestamp != want[i].Timestamp || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("%s/%s bucket %d: %v (%#x), want %v (%#x)", fn, iv, i,
						got[i], math.Float64bits(got[i].Value), want[i], math.Float64bits(want[i].Value))
				}
			}
		}
	}
}

// TestPercentileScratchAllocs: downsampled percentile queries must
// not allocate per bucket — the sort scratch is reused, so a 7x
// longer window (7x the buckets) costs about the same allocations.
func TestPercentileScratchAllocs(t *testing.T) {
	db := mustOpen(t)
	for j := 0; j < 2016; j++ { // a week at 5-minute cadence, mostly sealed
		err := put(db, DataPoint{
			Metric: "alloc.m",
			Tags:   map[string]string{"sensor": "s0"},
			Point:  Point{Timestamp: baseTS + int64(j)*300000, Value: float64(j % 97)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run := func(days int64) float64 {
		q := Query{Metric: "alloc.m", Start: baseTS, End: baseTS + days*24*3600*1000,
			Aggregator: AggAvg, Downsample: time.Hour, DownsampleFn: AggP95}
		return testing.AllocsPerRun(20, func() {
			if err := db.ExecuteStream(q, func(ResultSeries) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	oneDay, week := run(1), run(7)
	if week > oneDay*2 {
		t.Fatalf("allocations scale with bucket count: 1 day = %.0f, 7 days = %.0f", oneDay, week)
	}
	if week > 40 {
		t.Fatalf("cold percentile query allocates too much: %.0f allocs/op", week)
	}
}

// countingPlanner serves every downsample request by re-bucketing the
// store's own raw points — standing in for the rollup engine — and
// counts how often it is consulted.
type countingPlanner struct {
	db    *DB
	calls atomic.Int64
}

func (p *countingPlanner) ServeDownsample(series *Ref, start, end int64, interval time.Duration, fn Aggregator, yield func(Point) error) (bool, error) {
	p.calls.Add(1)
	raw, err := p.db.SeriesWindowExact(series.Metric(), series.Tags(), start, end)
	if err != nil {
		return false, err
	}
	for _, pt := range downsample(raw, interval, fn) {
		if err := yield(pt); err != nil {
			return false, err
		}
	}
	return true, nil
}

// TestTopKScoredFromPlanner: with a planner installed, topk selection
// scores every candidate through the planner's pre-aggregated buckets
// (one planner call per candidate, plus one per materialized winner)
// and returns exactly what the plannerless engine returns.
func TestTopKScoredFromPlanner(t *testing.T) {
	db := mustOpen(t)
	seedRagged(t, db)
	q := Query{Metric: "par.m", Tags: map[string]string{"sensor": "*"},
		Start: baseTS, End: baseTS + 12*3600*1000,
		Aggregator: AggAvg, Downsample: 10 * time.Minute, SeriesLimit: 3}

	want, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	planner := &countingPlanner{db: db}
	db.SetRollupPlanner(planner)
	defer db.SetRollupPlanner(nil)
	got, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("planner-scored topk diverged:\n got %+v\nwant %+v", got, want)
	}
	// 10 candidates scored + 3 winners materialized.
	if c := planner.calls.Load(); c != 13 {
		t.Fatalf("planner consulted %d times, want 13 (10 scores + 3 winners)", c)
	}
	if math.IsNaN(SeriesScore(nil)) != true {
		t.Fatal("empty series must score NaN")
	}
}
