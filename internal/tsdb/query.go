package tsdb

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
	// execution (series matching, member planning, member priming,
	// k-way merge, group reduction; with Trace.Detailed also per-point
	// block-decode/head-scan/downsample-fold attribution) and the
	// query's Plan as its plan note. Nil costs nothing.
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

// ExecuteStream plans the query and runs the plan: see Plan and
// Plan.Run.
func (db *DB) ExecuteStream(q Query, yield func(ResultSeries) error) error {
	p, err := db.Plan(q)
	if err != nil {
		return err
	}
	return p.Run(yield)
}

// Plan is a query decided before it reads a point: its groups and
// member series as matched, and each member's one read — a rollup tier
// read, or the raw scan and why no tier serves it. A traced query
// carries it as its trace's plan note.
type Plan struct {
	db     *DB
	q      Query
	fn     Aggregator // the effective downsample function
	groups []*scanGroup
	// Estimate bounds from above the points one run reads (see
	// DB.PointsRead); a topk winner is read twice, to rank it and to
	// materialize it. Tiered and Raw count the members by source.
	Estimate, Tiered, Raw int
}

// Plan validates q, matches its series and decides every member's
// read: when the query downsamples and a rollup planner is installed,
// the planner decides each member, once; other members read raw.
func (db *DB) Plan(q Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	tr := q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	p := &Plan{db: db, q: q, fn: q.DownsampleFn, groups: db.matchGroups(q)}
	if p.fn == "" {
		p.fn = q.Aggregator
	}
	if tr != nil {
		tr.Stage("match_series").Add(time.Since(t0))
		t0 = time.Now()
	}
	var planner RollupPlanner
	why := "not downsampled"
	if q.Downsample.Milliseconds() > 0 {
		why = "no rollup planner"
		if pp := db.planner.Load(); pp != nil {
			planner = *pp
		}
	}
	n := 0
	for _, g := range p.groups {
		n += len(g.members)
	}
	reads := make([]memberRead, n) // one allocation for every member
	for _, g := range p.groups {
		g.reads, reads = reads[:len(g.members)], reads[len(g.members):]
		for i, m := range g.members {
			rd := &g.reads[i]
			rd.why = why
			if planner != nil {
				rd.tier, rd.why = planner.PlanDownsample(m.s.ref, q.Start, q.End, q.Downsample, p.fn)
			}
			if rd.tier != nil {
				rd.est = rd.tier.Points()
				p.Tiered++
			} else {
				rd.est = db.PointEstimate(m.s.ref, q.Start, q.End)
				p.Raw++
			}
			p.Estimate += rd.est
		}
	}
	if tr != nil {
		tr.Stage("member_plan").Add(time.Since(t0))
		tr.AddPlan(p)
	}
	return p, nil
}

// Run executes the plan, yielding result series one at a time in
// deterministic order (group key order; with SeriesLimit, rank order).
// Groups are reduced one after another on the caller's goroutine, so
// only the group being reduced has points materialized — with
// SeriesLimit additionally the K retained series — and a wide query's
// memory is bounded by one group, not the whole result. A non-nil
// error from yield aborts the scan and is returned unchanged.
func (p *Plan) Run(yield func(ResultSeries) error) error {
	sc := scratchPool.Get().(*execScratch)
	defer scratchPool.Put(sc)
	if p.q.SeriesLimit > 0 {
		return p.runLimited(sc, yield)
	}
	for _, g := range p.groups {
		rs, ok, err := p.timedGroupSeries(g, sc)
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

// String renders the plan as its trace note: the metric and estimate,
// then per member its tags, source, estimate and, read raw, why no tier
// serves it.
func (p *Plan) String() string {
	b := fmt.Appendf(nil, "%s est=%d {", p.q.Metric, p.Estimate)
	sep := ""
	for _, g := range p.groups {
		for i, rd := range g.reads {
			b = appendKey(append(b, sep...), "", g.members[i].s.ref.pairs)
			if rd.tier != nil {
				b = fmt.Appendf(b, " %s est=%d", rd.tier, rd.est)
			} else {
				b = fmt.Appendf(b, " raw est=%d (%s)", rd.est, rd.why)
			}
			sep = "; "
		}
	}
	return string(append(b, '}'))
}

// scanGroup is one result group of a query: the series sharing one
// combination of group-by tag values.
type scanGroup struct {
	key     string
	members []matched
	reads   []memberRead // the plan's read of each member, by index
}

// matchGroups collects the series matching q through the postings
// index, grouped by group-by tag values and sorted by group key. Only
// series pointers are gathered, and no shard lock is taken; point data
// is read lazily, group by group.
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
	db.idx.match(q.Metric, q.Tags, func(s *memSeries) {
		gk = gk[:0]
		for _, k := range groupBy {
			v, _ := s.ref.Tag(k)
			gk = append(append(append(append(gk, k...), '='), v...), ';')
		}
		g := byKey[string(gk)]
		if g == nil {
			g = &scanGroup{key: string(gk)}
			byKey[g.key] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, matched{s, &db.shards[s.ref.shard]})
	})
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	// Deterministic member order (posting iteration is not): the
	// cross-series reduction then applies floating-point operations in
	// a stable order, so repeated runs agree bitwise.
	for _, g := range groups {
		slices.SortFunc(g.members, func(a, b matched) int { return compareSeries(a.s.ref, b.s.ref) })
	}
	return groups
}

// timedGroupSeries is groupSeries credited to the trace's group_reduce
// stage.
func (p *Plan) timedGroupSeries(g *scanGroup, sc *execScratch) (ResultSeries, bool, error) {
	if p.q.Trace == nil {
		return p.groupSeries(g, sc)
	}
	t0 := time.Now()
	rs, ok, err := p.groupSeries(g, sc)
	p.q.Trace.Stage("group_reduce").Add(time.Since(t0))
	return rs, ok, err
}

// groupSeries reduces one group's member series to its result series,
// streaming every member through per-point cursors: points decode
// straight into the downsample fold and the k-way interpolating
// merge, so only the merged result is ever materialized. ok is false
// when no member has points in range.
func (p *Plan) groupSeries(g *scanGroup, sc *execScratch) (ResultSeries, bool, error) {
	// Prime one cursor per member, dropping members with nothing in
	// range — a group with a single live member passes its points
	// through unreduced, matching the materializing semantics.
	q, tr := p.q, p.q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	live := make([]memberCursor, 0, len(g.members))
	maxEst := 0
	for i := range g.members {
		src, est, err := p.source(g, i, sc)
		if err != nil {
			return ResultSeries{}, false, err
		}
		pt, ok, err := src.next()
		if err != nil {
			return ResultSeries{}, false, err
		}
		if !ok {
			continue
		}
		if est > maxEst {
			maxEst = est
		}
		live = append(live, memberCursor{src: src, head: pt, hasHead: true})
	}
	if tr != nil {
		// Priming covers each member's tier read or each cursor's first
		// point (first block decode); the merge below pulls the rest.
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
	// Result tags: the tags common to all members, the group-by tags
	// among them.
	return ResultSeries{Metric: q.Metric, Tags: commonTags(g.members), Points: merged}, true, nil
}

// maxPrealloc caps what a point-count estimate may allocate up front:
// it is a guess, not a commitment.
const maxPrealloc = 1 << 14

// matched pairs a series with its shard for later lock-free reads.
type matched struct {
	s  *memSeries
	sh *shard
}

// memberRead is the read a plan decided for one member.
type memberRead struct {
	tier TierRead // nil: the raw scan
	est  int      // the points the read reads, at most
	why  string   // read raw: why no tier serves it
}

// RollupPlanner decides, once per member when a query is planned,
// whether pre-aggregated rollup tiers serve a downsampled read of one
// series. The series arrives as its interned handle, so planners key
// their state by SeriesID instead of re-deriving key strings. It
// returns the read that serves the downsample, or nil and why no tier
// can (interval finer than every tier, non-composable aggregator,
// unknown series, …), in which case the member is scanned raw.
type RollupPlanner interface {
	PlanDownsample(series *Ref, start, end int64, interval time.Duration, fn Aggregator) (TierRead, string)
}

// TierRead is a planned read. Serve streams its buckets to yield in
// timestamp order and cannot decline; a non-nil error from yield aborts
// it and is returned unchanged. It may run more than once (a topk
// winner is read to rank it, then to materialize it). Points bounds
// the stored points one Serve reads; String names its tiers.
type TierRead interface {
	Serve(yield func(Point) error) error
	Points() int
	String() string
}

// SetRollupPlanner installs (or, with nil, removes) the planner
// consulted by Plan for every downsampled per-series read.
func (db *DB) SetRollupPlanner(p RollupPlanner) {
	if p == nil {
		db.planner.Store(nil)
		return
	}
	db.planner.Store(&p)
}

// source is one planned member's contribution as a point cursor: its
// tier read's buckets, or the raw block cursor fused straight into the
// downsample fold — no intermediate []Point between decode and bucket
// reduction. est is an upper bound on the points the source can yield,
// for output preallocation.
func (p *Plan) source(g *scanGroup, i int, sc *execScratch) (pointSource, int, error) {
	q, m := p.q, g.members[i]
	ds := q.Downsample.Milliseconds()
	if tier := g.reads[i].tier; tier != nil {
		var pts []Point
		err := tier.Serve(func(pt Point) error {
			if pts == nil {
				// One allocation for a served member: its bucket count, capped
				// like every estimate (the range may run far past the data).
				pts = make([]Point, 0, min((q.End-q.Start)/ds+2, maxPrealloc))
			}
			pts = append(pts, pt)
			return nil
		})
		return &sliceSource{pts: pts}, len(pts), err
	}
	src, est, err := p.db.seriesSource(m.s, m.sh, q.Start, q.End, q.Trace)
	if err != nil || ds <= 0 {
		return src, est, err
	}
	if buckets := (q.End-q.Start)/ds + 2; buckets < int64(est) {
		est = int(buckets)
	}
	src = &downsampleSource{src: src, ms: ds, fn: p.fn, sc: sc}
	if tr := q.Trace; tr.Detailed() {
		// Inclusive of the decode chain below it; subtract
		// block_decode/head_scan to attribute the fold alone.
		src = &timedSource{src: src, st: tr.Stage("downsample_fold")}
	}
	return src, est, nil
}

// each streams one planned member's post-downsample points to each
// without materializing them anywhere: a tier read's buckets pass
// straight through, a raw scan folds inside the cursor. This is the
// read under topk/bottomk scoring — ranking a series touches no member
// point slice, and when a rollup tier serves it, no raw block either.
func (p *Plan) each(g *scanGroup, i int, sc *execScratch, each func(Point) error) error {
	if tier := g.reads[i].tier; tier != nil {
		return tier.Serve(each)
	}
	src, _, err := p.source(g, i, sc)
	if err != nil {
		return err
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

// commonTags returns the tags every member carries with the same
// value.
func commonTags(members []matched) map[string]string {
	common := map[string]string{}
next:
	for _, t := range members[0].s.ref.pairs {
		for _, m := range members[1:] {
			if v, ok := m.s.ref.Tag(t.Key); !ok || v != t.Value {
				continue next
			}
		}
		common[t.Key] = t.Value
	}
	return common
}

// tagsMatch checks filter tags against a series' sorted tags ("*"
// matches any present value).
func tagsMatch(filter map[string]string, tags []Tag) bool {
	for k, v := range filter {
		tv, ok := tagValue(tags, k)
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
