package rollup

// Query-side planner: the engine implements tsdb.RollupPlanner, so
// a query's plan asks it about every downsampled per-series read, once,
// before the query reads a point; the read it returns serves the
// decision when the query runs. The planner picks the coarsest tier
// whose resolution divides the requested interval and whose
// statistics can reproduce the requested aggregator, reads the derived
// stat series through the refs the seal path cached (no lookup, no raw
// block decode), and folds them to the query interval inside the
// store's own cursor — streaming each finished bucket to the caller's
// yield instead of materializing the window. The partial bucket at the range start is scanned raw, since
// its tier windows hold points before the range. The bucket just past
// the last one that tier covers (its sealed horizon, or the range end)
// comes from the finest tier whose resolution divides the interval,
// when the aggregator composes across windows (avg, sum, min, max,
// count): that tier's sealed windows, then the raw points after them,
// fold into one value (avg as Σsum ÷ Σcount), and only what lies past
// that bucket is scanned raw. A live series reporting faster than that
// tier's resolution so reads its open hour as sealed minutes plus the
// last minute raw, instead of point by point. Percentiles and dev scan
// everything past the horizon raw, and so does a bucket in which the
// finer tier dropped a point as late: its windows would miss it.
//
// Horizons are read as published after the write-back of the windows
// behind them returned, so a read never meets a sealed window that is
// not yet stored.
//
// Served buckets match a raw scan bucket for bucket: bit for bit where
// every window holds one reading, to float association where windows
// sum several. A tier that holds no fewer stored points than the raw
// series over the range it would serve is not read: reading it would
// cost what the scan costs, or twice that. Declining the coarse tier
// sends the whole series to the raw scan; declining the finer one
// leaves its part raw.
//
// The same planned read also ranks topk/bottomk selection: the query
// engine folds a candidate series' score straight off the streamed
// buckets, so when a tier covers the range, selection is served
// entirely from tier sums/counts and never decodes a raw member block.

import (
	"strings"
	"time"

	"repro/internal/tsdb"
)

// whyRetention is why a read whose every bucket lies behind a tier's
// retention is scanned raw.
const whyRetention = "no tier serves a bucket: past the tier's retention"

// PlanDownsample implements tsdb.RollupPlanner: from the tiers'
// published horizons and the cost rule it decides which buckets of the
// range each tier serves and which the raw scan reads, and returns that
// read, or nil and why no tier serves a bucket. Decisions are counted
// here: hits (and tail hits) and fallbacks, once per member per query.
func (e *Engine) PlanDownsample(series *tsdb.Ref, start, end int64, interval time.Duration, fn tsdb.Aggregator) (tsdb.TierRead, string) {
	if strings.HasPrefix(series.Metric(), MetricPrefix) {
		return nil, "derived series read directly"
	}
	iMS := interval.Milliseconds()
	if iMS <= 0 || start < 0 {
		return nil, "interval under 1ms or range before the epoch"
	}
	ti, rd, why := e.pickTier(iMS, fn)
	if ti < 0 {
		return e.decline(why)
	}
	r := &planned{e: e, series: series, start: start, end: end, interval: interval, fn: fn, coarse: tierView{ti: ti, rd: rd}}
	r.fine.ti, r.fine.rd = e.pickFiner(iMS, fn)
	if !e.sealedViews(series.ID(), &r.coarse, &r.fine) {
		return e.decline("series not rolled up")
	}

	// bLo: first bucket boundary at or after start, and at or after the
	// coarse tier's retention cutoff; the buckets before it are scanned.
	r.bLo = max(alignUp(start, iMS), e.retentionFloor(ti, iMS))
	// cut: first bucket boundary the coarse tier cannot fully cover —
	// the bucket extends past its sealed horizon or past the requested
	// end. At bLo when the tier covers nothing.
	ecut := (end + 1) - (end+1)%iMS
	r.cut = max(r.bLo, min(r.coarse.horizon-r.coarse.horizon%iMS, ecut))
	if r.cut > r.bLo {
		if r.stored, r.points, why = e.weigh(series, &r.coarse, r.bLo, r.cut); why != "" {
			return e.decline(why)
		}
	}
	// edge: end of the finer tier's windows that serve the bucket at cut;
	// cut when they serve none. rest: the first timestamp after the tiers.
	var fineCost int
	r.edge, fineCost, why = e.finerEdge(series, &r.fine, r.cut, end, iMS)
	if r.cut == r.bLo && r.edge == r.cut {
		switch {
		case why != "": // the finer tier's reason
		case r.bLo > alignUp(start, iMS): // the coarse tier's floor moved bLo
			why = whyRetention
		default:
			why = "no tier serves a bucket"
		}
		return e.decline(why)
	}
	if r.rest = r.cut; r.edge > r.cut {
		r.rest = r.cut + iMS
		e.tailHits.Add(1)
	}
	// What Serve reads besides the tiers' derived series: the raw head
	// bucket, the raw points in the bucket at cut, and the raw rest.
	r.points += fineCost + e.db.PointEstimate(series, start, r.bLo-1) +
		e.db.PointEstimate(series, r.edge, r.rest-1) + e.db.PointEstimate(series, r.rest, end)
	e.hits.Add(1)
	return r, ""
}

// decline counts a fallback and returns why no tier serves the read.
func (e *Engine) decline(why string) (tsdb.TierRead, string) {
	e.fallbacks.Add(1)
	return nil, why
}

// planned is one series' downsample as PlanDownsample decided it: raw
// before bLo, the coarse tier over [bLo, cut), the bucket at cut from
// the finer tier's windows up to edge and raw after them (when edge >
// cut), and raw from rest on.
type planned struct {
	e                    *Engine
	series               *tsdb.Ref
	start, end           int64
	interval             time.Duration
	fn                   tsdb.Aggregator
	coarse, fine         tierView
	bLo, cut, edge, rest int64
	stored, points       int // coarse windows of one derived series; points read
}

// Points implements tsdb.TierRead.
func (r *planned) Points() int { return r.points }

// String implements tsdb.TierRead: the chosen tier, and the finer one
// when it serves the bucket at cut.
func (r *planned) String() string {
	if r.edge > r.cut {
		return "rollup " + r.e.tiers[r.coarse.ti].name + "+" + r.e.tiers[r.fine.ti].name
	}
	return "rollup " + r.e.tiers[r.coarse.ti].name
}

// Serve implements tsdb.TierRead, streaming the planned buckets in
// timestamp order.
func (r *planned) Serve(yield func(tsdb.Point) error) error {
	e := r.e
	if r.bLo > r.start { // partial head bucket from raw
		if err := e.db.ReadRef(r.series, r.start, r.bLo-1, r.interval, r.fn, yield); err != nil {
			return err
		}
	}
	fold := r.interval
	if r.interval.Milliseconds() == e.tiers[r.coarse.ti].resMS {
		fold = 0 // every stored window is one query bucket already
	}
	if err := e.yieldTier(&r.coarse, r.bLo, r.cut, fold, r.stored, yield); err != nil {
		return err
	}
	if r.edge > r.cut {
		// The bucket at cut: the finer windows up to edge, raw after.
		if err := e.yieldOpen(r.series, r.fn, &r.fine, r.cut, r.edge, min(r.end, r.rest-1), yield); err != nil {
			return err
		}
	}
	if r.rest <= r.end {
		return e.db.ReadRef(r.series, r.rest, r.end, r.interval, r.fn, yield)
	}
	return nil
}

// alignUp rounds ms up to a multiple of step.
func alignUp(ms, step int64) int64 {
	if rem := ms % step; rem != 0 {
		return ms + step - rem
	}
	return ms
}

// retentionFloor is the first bucket boundary (buckets of iMS) at or
// after tier ti's retention cutoff: a tier with finite retention holds
// nothing before its cutoff even when raw points are kept longer, and a
// bucket straddling it would be served partial. 0 without retention.
func (e *Engine) retentionFloor(ti int, iMS int64) int64 {
	ret := e.tiers[ti].retention
	if ret <= 0 {
		return 0
	}
	if lo := e.cfg.Now().UnixMilli() - ret.Milliseconds(); lo > 0 {
		return alignUp(lo, iMS)
	}
	return 0
}

// weigh is the cost rule for reading v over [lo, hi): a tier earns the
// read only by holding fewer stored points than the raw series there. A
// derived series has a point per non-empty window, so at a cadence no
// finer than the tier's resolution it is as long as the raw one — and
// an average across windows reads two of them. stored is the points of
// one derived series over the range, cost those the read reads; why
// says when the tier does not earn the read.
func (e *Engine) weigh(series *tsdb.Ref, v *tierView, lo, hi int64) (stored, cost int, why string) {
	if v.stat == nil {
		return 0, 0, "" // nothing stored: reads as empty
	}
	stored = e.db.PointEstimate(v.stat, lo, hi-1)
	cost = stored
	if v.rd.avg {
		cost *= 2
	}
	if cost != 0 && cost >= e.db.PointEstimate(series, lo, hi-1) {
		why = "tier no cheaper than the raw scan"
	}
	return stored, cost, why
}

// finerEdge plans the finer tier's part of a read whose coarse tier
// stops at cut: it returns the end of its windows that serve the bucket
// starting there — its sealed horizon or the range end, whichever comes
// first — and what reading them costs, or cut when they serve none. Every tier seals from one horizon and both resolutions
// divide the interval, so the finer tier never holds a whole bucket
// past cut; the clamp to that one bucket only states it. A tier whose
// derived series are gone serves none; one that dropped a late point
// from cut on, whose retention reaches past cut, or that fails the
// cost rule serves none and says why.
func (e *Engine) finerEdge(series *tsdb.Ref, v *tierView, cut, end, iMS int64) (int64, int, string) {
	switch {
	case v.ti < 0 || v.stat == nil || (v.rd.avg && v.count == nil):
		return cut, 0, ""
	case v.lateUntil > cut:
		return cut, 0, "no tier serves a bucket: the finer tier dropped a late point"
	}
	r := e.tiers[v.ti].resMS
	edge := min(v.horizon-v.horizon%r, (end+1)-(end+1)%r, cut+iMS)
	switch {
	case edge <= cut:
		return cut, 0, ""
	case e.retentionFloor(v.ti, iMS) > cut:
		return cut, 0, whyRetention
	}
	_, cost, why := e.weigh(series, v, cut, edge)
	if why != "" {
		return cut, 0, why
	}
	return edge, cost, ""
}

// tierRead is how a tier reproduces one downsample: the derived
// statistic to read and the aggregator that folds its windows into
// coarser query buckets. avg reads the count statistic beside it and
// divides per bucket — an average across windows is sum over count.
type tierRead struct {
	stat int // windowStats index
	fold tsdb.Aggregator
	avg  bool
}

// foldRead is the read that folds windows of any resolution into
// coarser buckets for fn; false when fn does not compose across
// windows (percentiles, dev).
func foldRead(fn tsdb.Aggregator) (tierRead, bool) {
	switch fn {
	case tsdb.AggSum, tsdb.AggMin, tsdb.AggMax:
		return tierRead{stat: statOf(fn), fold: fn}, true
	case tsdb.AggCount:
		return tierRead{stat: statCount, fold: tsdb.AggSum}, true
	case tsdb.AggAvg:
		return tierRead{stat: statSum, fold: tsdb.AggSum, avg: true}, true
	}
	return tierRead{}, false
}

// pickTier returns the index of the coarsest tier that can serve a
// downsample of interval iMS with aggregator fn, and the read that
// does it; -1 and why when none can.
func (e *Engine) pickTier(iMS int64, fn tsdb.Aggregator) (int, tierRead, string) {
	why := "no tier divides the interval"
	for i := len(e.tiers) - 1; i >= 0; i-- {
		r := e.tiers[i].resMS
		if r > iMS || iMS%r != 0 {
			continue
		}
		why = "aggregator does not compose across windows"
		if iMS == r { // statistics stored as the bucket needs them
			switch fn {
			case tsdb.AggAvg:
				return i, tierRead{stat: statMean}, ""
			case tsdb.AggP50, tsdb.AggP95, tsdb.AggP99:
				// Percentiles don't compose; only an exact-resolution
				// tier stores them directly.
				return i, tierRead{stat: statOf(fn)}, ""
			}
		}
		if rd, ok := foldRead(fn); ok {
			return i, rd, ""
		}
	}
	return -1, tierRead{}, why
}

// pickFiner returns the finest tier whose resolution divides iMS with
// buckets of several windows, and the read that folds them; -1 when
// there is none or fn does not compose. Under 7m or 30m with 1m and 1h
// tiers that is the chosen tier itself: its windows then serve the
// bucket straddling its own horizon, and TailServed counts that read
// like one from a finer tier.
func (e *Engine) pickFiner(iMS int64, fn tsdb.Aggregator) (int, tierRead) {
	rd, ok := foldRead(fn)
	if !ok {
		return -1, rd
	}
	for i := range e.tiers {
		if r := e.tiers[i].resMS; r < iMS && iMS%r == 0 {
			return i, rd
		}
	}
	return -1, rd
}

// statOf returns the windowStats index of the statistic fn computes.
func statOf(fn tsdb.Aggregator) int {
	for i := range windowStats {
		if windowStats[i].agg == fn {
			return i
		}
	}
	panic("rollup: no window statistic for aggregator " + string(fn))
}

// tierView is one tier of one series as a read sees it: the tier and
// read chosen for the query, its published horizon and late-drop mark
// (tierState.readUntil, lateUntil), and the derived series the read
// folds (count only when it averages; nil while the store holds no
// such series).
type tierView struct {
	ti                 int // -1: no tier
	rd                 tierRead
	horizon, lateUntil int64
	stat, count        *tsdb.Ref
}

// sealedViews fills in both views of one series under one lock; false
// when the engine does not roll the series up. A ref the seal path has
// not cached — a rebuilt series, one retention removed and a later
// seal brought back — is looked up and cached here.
func (e *Engine) sealedViews(id tsdb.SeriesID, views ...*tierView) bool {
	sh := &e.shards[uint64(id)%engineShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.series[id]
	if !ok || st.skip {
		return false
	}
	for _, v := range views {
		if v.ti < 0 {
			continue
		}
		v.horizon, v.lateUntil = st.tiers[v.ti].readUntil, st.tiers[v.ti].lateUntil
		v.stat = e.cachedRefLocked(st, v.ti, v.rd.stat)
		if v.rd.avg {
			v.count = e.cachedRefLocked(st, v.ti, statCount)
		}
	}
	return true
}

// cachedRefLocked returns the live handle of one derived series of st,
// or nil when the store holds no such series. Caller holds the shard
// lock.
func (e *Engine) cachedRefLocked(st *seriesState, ti, stat int) *tsdb.Ref {
	refs := &st.tiers[ti].refs
	if ref := refs[stat]; ref == nil || !ref.Live() {
		refs[stat] = e.db.Lookup(e.derivedName(st, ti, stat))
	}
	return refs[stat]
}

// derivedName is the name of one derived series of st: its metric
// under the tier's prefix, its tags plus the stat tag.
func (e *Engine) derivedName(st *seriesState, ti, stat int) (string, map[string]string) {
	src := st.ref.Tags()
	tags := make(map[string]string, len(src)+1)
	for _, t := range src {
		tags[t.Key] = t.Value
	}
	tags[StatTag] = windowStats[stat].name
	return e.tiers[ti].metricPrefix + st.ref.Metric(), tags
}

// yieldTier streams the buckets of [bLo, cut) out of v's derived
// series: stored windows as they are when interval is 0, otherwise
// folded to interval by v.rd.fold. stored bounds the windows either
// series holds there.
func (e *Engine) yieldTier(v *tierView, bLo, cut int64, interval time.Duration, stored int, yield func(tsdb.Point) error) error {
	if cut <= bLo || v.stat == nil || (v.rd.avg && v.count == nil) {
		return nil
	}
	if !v.rd.avg {
		return e.db.ReadRef(v.stat, bLo, cut-1, interval, v.rd.fold, yield)
	}
	// The two series are written atomically per window, so their
	// buckets align; both arrive in timestamp order, so pairing them
	// is a merge join. A bucket missing its count (or with a zero one)
	// is skipped rather than divided by zero.
	counts := make([]tsdb.Point, 0, min((cut-bLo)/interval.Milliseconds()+2, int64(stored)))
	if err := e.db.ReadRef(v.count, bLo, cut-1, interval, v.rd.fold, func(p tsdb.Point) error {
		counts = append(counts, p)
		return nil
	}); err != nil {
		return err
	}
	return e.db.ReadRef(v.stat, bLo, cut-1, interval, v.rd.fold, func(sum tsdb.Point) error {
		for len(counts) > 0 && counts[0].Timestamp < sum.Timestamp {
			counts = counts[1:]
		}
		if len(counts) == 0 || counts[0].Timestamp != sum.Timestamp || !(counts[0].Value > 0) {
			return nil
		}
		return yield(tsdb.Point{Timestamp: sum.Timestamp, Value: sum.Value / counts[0].Value})
	})
}

// yieldOpen streams the one bucket starting at b that straddles v's
// edge: the tier's windows [b, edge), then the raw points [edge, last],
// folded in timestamp order into one value as the scan's downsample
// fold would — avg as Σsum ÷ Σcount.
func (e *Engine) yieldOpen(series *tsdb.Ref, fn tsdb.Aggregator, v *tierView, b, edge, last int64, yield func(tsdb.Point) error) error {
	acc := openBucket{fold: v.rd.fold, count: fn == tsdb.AggCount}
	if err := e.db.ReadRef(v.stat, b, edge-1, 0, "", acc.window); err != nil {
		return err
	}
	if v.rd.avg {
		if err := e.db.ReadRef(v.count, b, edge-1, 0, "", acc.windowCount); err != nil {
			return err
		}
	}
	if err := e.db.ReadRef(series, edge, last, 0, "", acc.raw); err != nil {
		return err
	}
	switch {
	case v.rd.avg && acc.n > 0:
		return yield(tsdb.Point{Timestamp: b, Value: acc.v / acc.n})
	case !v.rd.avg && acc.seen:
		return yield(tsdb.Point{Timestamp: b, Value: acc.v})
	}
	return nil // an empty bucket, or windows missing their counts
}

// openBucket folds one query bucket from partial aggregates in
// timestamp order: windows of one tier statistic, then raw points.
// Sum starts from zero and min/max from the first value, as the scan's
// fold does.
type openBucket struct {
	fold  tsdb.Aggregator // sum, min or max
	count bool            // a raw point adds 1, not its value
	v, n  float64         // the folded value; points counted (avg's divisor)
	seen  bool
}

func (o *openBucket) add(x float64) {
	switch {
	case o.fold == tsdb.AggSum:
		o.v += x
	case !o.seen, o.fold == tsdb.AggMin && x < o.v, o.fold == tsdb.AggMax && x > o.v:
		o.v = x
	}
	o.seen = true
}

func (o *openBucket) window(p tsdb.Point) error {
	o.add(p.Value)
	return nil
}

func (o *openBucket) windowCount(p tsdb.Point) error {
	o.n += p.Value
	return nil
}

func (o *openBucket) raw(p tsdb.Point) error {
	if o.count {
		p.Value = 1
	}
	o.add(p.Value)
	o.n++
	return nil
}
