package tsdb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Aggregator combines values, both across series and within downsample
// buckets — the OpenTSDB aggregator set the paper's dashboards use.
type Aggregator string

// Supported aggregators.
const (
	AggSum   Aggregator = "sum"
	AggAvg   Aggregator = "avg"
	AggMin   Aggregator = "min"
	AggMax   Aggregator = "max"
	AggCount Aggregator = "count"
	AggP50   Aggregator = "p50"
	AggP95   Aggregator = "p95"
	AggP99   Aggregator = "p99"
	AggDev   Aggregator = "dev"
)

// Valid reports whether the aggregator is known.
func (a Aggregator) Valid() bool {
	switch a {
	case AggSum, AggAvg, AggMin, AggMax, AggCount, AggP50, AggP95, AggP99, AggDev:
		return true
	}
	return false
}

// Apply reduces a non-empty value slice with the aggregator — the
// same reduction the query engine uses inside downsample buckets,
// exported so the rollup engine computes window statistics that are
// bit-compatible with a raw scan. Apply on an empty slice returns NaN.
func (a Aggregator) Apply(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return a.apply(vals)
}

// apply reduces a non-empty value slice.
func (a Aggregator) apply(vals []float64) float64 {
	return a.applyWith(vals, nil)
}

// execScratch holds the reusable buffers one query carries through a
// scan: percentile reductions sort into sorted instead of allocating
// and copying per bucket, the cross-series merge collects each
// timestamp's contributions into vals, and a downsample fold that
// needs its bucket's values side by side (percentiles, dev) gathers
// them in bucket. One scratch serves one goroutine at a time.
type execScratch struct {
	sorted []float64
	vals   []float64
	bucket []float64
}

// scratchPool recycles scratch buffers across scans.
var scratchPool = sync.Pool{New: func() any { return new(execScratch) }}

// applyWith reduces a non-empty value slice, borrowing sc (when
// non-nil) for reductions that need working memory.
func (a Aggregator) applyWith(vals []float64, sc *execScratch) float64 {
	switch a {
	case AggSum:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s
	case AggAvg:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	case AggMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case AggMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case AggCount:
		return float64(len(vals))
	case AggP50:
		return percentile(vals, 0.50, sc)
	case AggP95:
		return percentile(vals, 0.95, sc)
	case AggP99:
		return percentile(vals, 0.99, sc)
	case AggDev:
		mean := AggAvg.applyWith(vals, sc)
		ss := 0.0
		for _, v := range vals {
			d := v - mean
			ss += d * d
		}
		return math.Sqrt(ss / float64(len(vals)))
	default:
		return math.NaN()
	}
}

// percentile computes the linearly-interpolated p-quantile. The sort
// runs on a copy of vals — taken from the scratch when one is
// available, so a query sorts into one buffer instead of allocating
// per bucket.
func percentile(vals []float64, p float64, sc *execScratch) float64 {
	var s []float64
	if sc != nil {
		sc.sorted = append(sc.sorted[:0], vals...)
		s = sc.sorted
	} else {
		s = append([]float64(nil), vals...)
	}
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// PercentileSorted is the linearly-interpolated p-quantile of a non-empty
// ascending slice: the percentile aggregators minus their copy and sort.
func PercentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	rank := p * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Query selects and reduces series, OpenTSDB-style.
type Query struct {
	Metric string
	// Tags filters series: exact value, or "*" to group by that tag
	// (one result series per distinct value). Tags not mentioned are
	// not constrained and are aggregated over.
	Tags map[string]string
	// Start and End bound the time range (inclusive), in ms.
	Start, End int64
	// Aggregator combines values across series within a group at each
	// timestamp (after interpolation). Required.
	Aggregator Aggregator
	// Downsample, when >0, buckets points into intervals reduced by
	// DownsampleFn (defaults to Aggregator).
	Downsample   time.Duration
	DownsampleFn Aggregator
	// Rate converts the result to a per-second first derivative.
	Rate bool
	// SeriesLimit, when >0, keeps only the K result series ranking
	// highest (or, with LimitLowest, lowest) by the mean of their
	// result points — the server side of topk/bottomk. Selection runs
	// on a bounded heap, so memory stays O(K) no matter how many
	// series the filter matches.
	SeriesLimit int
	LimitLowest bool
	// Trace, when non-nil, receives per-stage timings for this
	// execution (series matching, member priming, k-way merge, group
	// reduction, rollup serving; with Trace.Detailed also per-point
	// block-decode/head-scan/downsample-fold attribution). Nil costs
	// nothing.
	Trace *obs.Trace
}

// ResultSeries is one output series of a query.
type ResultSeries struct {
	Metric string
	// Tags contains the group-by tags and any tags shared by every
	// aggregated series.
	Tags   map[string]string
	Points []Point
}

// Query errors.
var (
	ErrBadAggregator = errors.New("tsdb: unknown aggregator")
	ErrBadRange      = errors.New("tsdb: query start after end")
	ErrBadLimit      = errors.New("tsdb: series limit must be positive")
)

// Validate checks the query's shape without touching the store — the
// same checks Execute runs, exported so network edges can answer a
// malformed query with a 400 before any response bytes are written.
func (q Query) Validate() error {
	if !q.Aggregator.Valid() {
		return fmt.Errorf("%w: %q", ErrBadAggregator, q.Aggregator)
	}
	if q.Downsample > 0 {
		fn := q.DownsampleFn
		if fn == "" {
			fn = q.Aggregator
		}
		if !fn.Valid() {
			return fmt.Errorf("%w: %q", ErrBadAggregator, q.DownsampleFn)
		}
	}
	if q.Start > q.End {
		return ErrBadRange
	}
	if q.SeriesLimit < 0 {
		return fmt.Errorf("%w: series limit %d", ErrBadLimit, q.SeriesLimit)
	}
	return nil
}

// Execute runs the query and materializes every result series. It is
// a convenience wrapper over ExecuteStream for callers that need the
// whole result at once (dashboard panels, examples); response paths
// that fan out to many series should consume ExecuteStream directly
// so only one group's points are resident at a time.
func (db *DB) Execute(q Query) ([]ResultSeries, error) {
	var out []ResultSeries
	if err := db.ExecuteStream(q, func(rs ResultSeries) error {
		out = append(out, rs)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ExecuteStream runs the query, yielding result series one at a time
// in deterministic order (group key order; with SeriesLimit, rank
// order). Groups are reduced one after another on the caller's
// goroutine, so only the group being reduced has points materialized
// — with SeriesLimit additionally the K retained series — and a wide
// query's memory is bounded by one group, not the whole result. A
// non-nil error from yield aborts the scan and is returned unchanged.
func (db *DB) ExecuteStream(q Query, yield func(ResultSeries) error) error {
	if err := q.Validate(); err != nil {
		return err
	}

	tr := q.Trace
	var tMatch time.Time
	if tr != nil {
		tMatch = time.Now()
	}
	groups := db.matchGroups(q)
	if tr != nil {
		tr.Stage("match_series").Add(time.Since(tMatch))
	}

	sc := scratchPool.Get().(*execScratch)
	defer scratchPool.Put(sc)
	if q.SeriesLimit > 0 {
		return db.streamLimited(q, groups, sc, yield)
	}
	for _, g := range groups {
		rs, ok, err := db.timedGroupSeries(q, g, sc)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := yield(rs); err != nil {
			return err
		}
	}
	return nil
}

// scanGroup is one result group of a query: the series sharing one
// combination of group-by tag values.
type scanGroup struct {
	key     string
	tags    map[string]string // the group-by tags
	members []matched
}

// matchGroups collects the series matching q, grouped by group-by tag
// values and sorted by group key. Only series pointers are gathered;
// point data is read lazily, group by group.
func (db *DB) matchGroups(q Query) []*scanGroup {
	var groupBy []string
	for k, v := range q.Tags {
		if v == "*" {
			groupBy = append(groupBy, k)
		}
	}
	sort.Strings(groupBy)

	byKey := map[string]*scanGroup{}
	var groups []*scanGroup
	var gk []byte
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for key, s := range sh.series {
			if s.metric != q.Metric || !tagsMatch(q.Tags, s.tags) {
				continue
			}
			gk = gk[:0]
			for _, k := range groupBy {
				gk = append(append(append(append(gk, k...), '='), s.tags[k]...), ';')
			}
			g := byKey[string(gk)]
			if g == nil {
				g = &scanGroup{key: string(gk), tags: make(map[string]string, len(groupBy))}
				for _, k := range groupBy {
					g.tags[k] = s.tags[k]
				}
				byKey[g.key] = g
				groups = append(groups, g)
			}
			g.members = append(g.members, matched{s, sh, key})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	// Deterministic member order (shard map iteration is not): the
	// cross-series reduction then applies floating-point operations in
	// a stable order, so repeated runs agree bitwise.
	for _, g := range groups {
		ms := g.members
		sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
	}
	return groups
}

// timedGroupSeries is groupSeries credited to the trace's group_reduce
// stage.
func (db *DB) timedGroupSeries(q Query, g *scanGroup, sc *execScratch) (ResultSeries, bool, error) {
	if q.Trace == nil {
		return db.groupSeries(q, g.members, g.tags, sc)
	}
	t0 := time.Now()
	rs, ok, err := db.groupSeries(q, g.members, g.tags, sc)
	q.Trace.Stage("group_reduce").Add(time.Since(t0))
	return rs, ok, err
}

// groupSeries reduces one group's member series to its result series,
// streaming every member through per-point cursors: points decode
// straight into the downsample fold and the k-way interpolating
// merge, so only the merged result is ever materialized. ok is false
// when no member has points in range.
func (db *DB) groupSeries(q Query, members []matched, gt map[string]string, sc *execScratch) (ResultSeries, bool, error) {
	// Prime one cursor per member, dropping members with nothing in
	// range — a group with a single live member passes its points
	// through unreduced, matching the materializing semantics.
	tr := q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	live := make([]memberCursor, 0, len(members))
	maxEst := 0
	for _, m := range members {
		src, est, err := db.memberSource(m, q, sc)
		if err != nil {
			return ResultSeries{}, false, err
		}
		p, ok, err := src.next()
		if err != nil {
			return ResultSeries{}, false, err
		}
		if !ok {
			continue
		}
		if est > maxEst {
			maxEst = est
		}
		live = append(live, memberCursor{src: src, head: p, hasHead: true})
	}
	if tr != nil {
		// Priming covers planner dispatch and each cursor's first point
		// (first block decode); the merge below pulls the rest.
		tr.Stage("member_prime").Add(time.Since(t0))
		t0 = time.Now()
	}
	if len(live) == 0 {
		return ResultSeries{}, false, nil
	}

	// Preallocate the merged result from the cursor estimate.
	merged := make([]Point, 0, min(maxEst, maxPrealloc))
	var err error
	if len(live) == 1 {
		merged = append(merged, live[0].head)
		merged, err = drainSource(live[0].src, merged)
	} else {
		merged, err = mergeAggregate(live, q.Aggregator, sc, merged)
	}
	if err != nil {
		return ResultSeries{}, false, err
	}
	if tr != nil {
		// The k-way interpolating merge, including the member cursors'
		// decode work it pulls through.
		tr.Stage("kway_merge").Add(time.Since(t0))
	}
	if q.Rate {
		merged = rate(merged)
	}
	// Result tags: group-by tags plus tags common to all members.
	tags := map[string]string{}
	for k, v := range gt {
		tags[k] = v
	}
	for k, v := range commonTags(members[0].s.tags, members) {
		tags[k] = v
	}
	return ResultSeries{Metric: q.Metric, Tags: tags, Points: merged}, true, nil
}

// maxPrealloc caps what a point-count estimate may allocate up front:
// it is a guess, not a commitment.
const maxPrealloc = 1 << 14

// matched pairs a series with its shard for later lock-free reads.
type matched struct {
	s   *memSeries
	sh  *shard
	key string
}

// RollupPlanner serves a downsampled read of one series from
// pre-aggregated rollup tiers, streaming buckets to yield in timestamp
// order. The series arrives as its interned handle, so planners key
// their state by SeriesID instead of re-deriving key strings.
// Implementations return ok=false — before yielding anything — when
// the request cannot be satisfied from rollups (interval finer than
// every tier, non-composable aggregator, unknown series, …), in which
// case the query engine falls back to the raw block scan. A non-nil
// error from yield must abort the read and be returned unchanged.
type RollupPlanner interface {
	ServeDownsample(series *Ref, start, end int64, interval time.Duration, fn Aggregator, yield func(Point) error) (ok bool, err error)
}

// SetRollupPlanner installs (or, with nil, removes) the planner
// consulted by Execute for every downsampled per-series read.
func (db *DB) SetRollupPlanner(p RollupPlanner) {
	if p == nil {
		db.planner.Store(nil)
		return
	}
	db.planner.Store(&p)
}

// memberPlan is the one place the member read policy lives: it
// resolves the effective downsample fn and interval, and when a
// rollup planner is installed and can serve the downsample, streams
// the served buckets to each and reports served=true. memberSource
// and memberEach both dispatch through it, so planner fallback and
// downsample gating cannot drift between the query path and the
// topk scoring path.
func (db *DB) memberPlan(m matched, q Query, each func(Point) error) (fn Aggregator, ds int64, served bool, err error) {
	fn = q.DownsampleFn
	if fn == "" {
		fn = q.Aggregator
	}
	ds = q.Downsample.Milliseconds()
	if ds > 0 && m.s.ref != nil {
		if pp := db.planner.Load(); pp != nil {
			if tr := q.Trace; tr != nil {
				// Per-member planner attribution: rollup_serve counts the
				// members a tier answered, rollup_fallback the ones that
				// fell through to the raw block scan — the slow-query
				// log's "rollup vs raw" planner decision.
				t0 := time.Now()
				served, err = (*pp).ServeDownsample(m.s.ref, q.Start, q.End, q.Downsample, fn, each)
				if served {
					tr.Stage("rollup_serve").Add(time.Since(t0))
				} else {
					tr.Stage("rollup_fallback").Add(time.Since(t0))
				}
			} else {
				served, err = (*pp).ServeDownsample(m.s.ref, q.Start, q.End, q.Downsample, fn, each)
			}
		}
	}
	return fn, ds, served, err
}

// memberSource builds one member series' contribution to a query as
// a point cursor: the rollup planner's pre-aggregated buckets when
// one is installed and can serve the downsample, otherwise the raw
// block cursor fused straight into the downsample fold — no
// intermediate []Point between decode and bucket reduction. est is an
// upper bound on the points the source can yield, for output
// preallocation.
func (db *DB) memberSource(m matched, q Query, sc *execScratch) (pointSource, int, error) {
	var pts []Point
	fn, ds, served, err := db.memberPlan(m, q, func(p Point) error {
		if pts == nil {
			// One allocation for a served member: its bucket count, capped
			// like every estimate (the range may run far past the data).
			pts = make([]Point, 0, min((q.End-q.Start)/q.Downsample.Milliseconds()+2, maxPrealloc))
		}
		pts = append(pts, p)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if served {
		return &sliceSource{pts: pts}, len(pts), nil
	}
	src, est, err := db.seriesSource(m.s, m.sh, q.Start, q.End, q.Trace)
	if err != nil {
		return nil, 0, err
	}
	if ds > 0 {
		if buckets := (q.End-q.Start)/ds + 2; buckets < int64(est) {
			est = int(buckets)
		}
		src = &downsampleSource{src: src, ms: ds, fn: fn, sc: sc}
		if tr := q.Trace; tr.Detailed() {
			// Inclusive of the decode chain below it; subtract
			// block_decode/head_scan to attribute the fold alone.
			src = &timedSource{src: src, st: tr.Stage("downsample_fold")}
		}
	}
	return src, est, nil
}

// memberEach streams one member series' post-downsample points to
// each without materializing them anywhere: planner-served buckets
// pass straight through, raw scans fold inside the cursor. This is
// the read under topk/bottomk scoring — ranking a series touches no
// member point slice, and when a rollup tier covers the range, no raw
// block either.
func (db *DB) memberEach(m matched, q Query, sc *execScratch, each func(Point) error) error {
	fn, ds, served, err := db.memberPlan(m, q, each)
	if err != nil || served {
		return err
	}
	src, _, err := db.seriesSource(m.s, m.sh, q.Start, q.End, q.Trace)
	if err != nil {
		return err
	}
	if ds > 0 {
		src = &downsampleSource{src: src, ms: ds, fn: fn, sc: sc}
		if tr := q.Trace; tr.Detailed() {
			src = &timedSource{src: src, st: tr.Stage("downsample_fold")}
		}
	}
	return eachPoint(src, each)
}

// ReadRef streams the points of ref's series within [start, end] to
// yield in timestamp order: as stored when interval is 0, otherwise
// folded into epoch-aligned buckets by fn through the cursor a query's
// raw scan uses, so the buckets a rollup planner reads for a range's
// raw edges (and re-buckets out of its own derived series) are the
// scan's own, bit for bit. Nothing is looked up, keyed or
// materialized. A handle retention has killed reads as empty; callers
// that cache handles check Live first. A non-nil error from yield
// aborts the read and is returned unchanged.
func (db *DB) ReadRef(ref *Ref, start, end int64, interval time.Duration, fn Aggregator, yield func(Point) error) error {
	src, _, err := db.seriesSource(ref.s, &db.shards[ref.shard], start, end, nil)
	if err != nil {
		return err
	}
	if ms := interval.Milliseconds(); ms > 0 {
		sc := scratchPool.Get().(*execScratch)
		defer scratchPool.Put(sc)
		src = &downsampleSource{src: src, ms: ms, fn: fn, sc: sc}
	}
	return eachPoint(src, yield)
}

func commonTags(first map[string]string, members []matched) map[string]string {
	common := map[string]string{}
	for k, v := range first {
		shared := true
		for _, m := range members {
			if m.s.tags[k] != v {
				shared = false
				break
			}
		}
		if shared {
			common[k] = v
		}
	}
	return common
}

// tagsMatch checks filter tags against series tags ("*" matches any
// present value).
func tagsMatch(filter, tags map[string]string) bool {
	for k, v := range filter {
		tv, ok := tags[k]
		if !ok {
			return false
		}
		if v != "*" && v != tv {
			return false
		}
	}
	return true
}

// memberCursor is one member's window into the k-way merge: prev is
// the last point at or before the current union timestamp, head the
// first one after it — the two points interpolation needs, and all a
// member ever keeps resident.
type memberCursor struct {
	src     pointSource
	prev    Point
	head    Point
	hasPrev bool
	hasHead bool
}

// mergeAggregate combines the primed member cursors into one series
// by aggregating at the union of timestamps, linearly interpolating
// members that lack an exact sample (OpenTSDB semantics). Members
// contribute only within their own [first, last] time span. It is the
// streaming equivalent of the classic materialize-then-walk
// reduction: each union timestamp is found as the minimum of the
// member heads, so one pass over K cursors replaces the timestamp-set
// map, its sort, and K materialized member slices.
func mergeAggregate(members []memberCursor, agg Aggregator, sc *execScratch, out []Point) ([]Point, error) {
	for {
		// Next union timestamp: the earliest unconsumed head.
		ts, any := int64(0), false
		for i := range members {
			if members[i].hasHead && (!any || members[i].head.Timestamp < ts) {
				ts, any = members[i].head.Timestamp, true
			}
		}
		if !any {
			return out, nil
		}
		// Advance members so prev is the last point ≤ ts.
		for i := range members {
			m := &members[i]
			for m.hasHead && m.head.Timestamp <= ts {
				m.prev, m.hasPrev = m.head, true
				p, ok, err := m.src.next()
				if err != nil {
					return nil, err
				}
				m.head, m.hasHead = p, ok
			}
		}
		// Collect contributions at ts, in member order.
		sc.vals = sc.vals[:0]
		for i := range members {
			m := &members[i]
			switch {
			case !m.hasPrev:
				// Before the member's first point: no contribution.
			case m.prev.Timestamp == ts:
				sc.vals = append(sc.vals, m.prev.Value)
			case !m.hasHead:
				// After the member's last point: no contribution.
			default:
				frac := float64(ts-m.prev.Timestamp) / float64(m.head.Timestamp-m.prev.Timestamp)
				sc.vals = append(sc.vals, m.prev.Value+frac*(m.head.Value-m.prev.Value))
			}
		}
		if len(sc.vals) > 0 {
			out = append(out, Point{Timestamp: ts, Value: agg.applyWith(sc.vals, sc)})
		}
	}
}

// rate converts a series to per-second first differences.
func rate(pts []Point) []Point {
	if len(pts) < 2 {
		return nil
	}
	out := make([]Point, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		dtMS := pts[i].Timestamp - pts[i-1].Timestamp
		if dtMS <= 0 {
			continue
		}
		out = append(out, Point{
			Timestamp: pts[i].Timestamp,
			Value:     (pts[i].Value - pts[i-1].Value) / (float64(dtMS) / 1000),
		})
	}
	return out
}
