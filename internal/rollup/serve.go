package rollup

// Query-side planner: the engine implements tsdb.RollupPlanner, so
// ExecuteStream hands it every downsampled per-series read. The
// planner picks the coarsest tier whose resolution divides the
// requested interval and whose statistics can reproduce the requested
// aggregator exactly, reads the derived stat series through the refs
// the seal path cached (no lookup, no raw block decode), and folds
// them to the query interval inside the store's own cursor —
// streaming each finished bucket to the caller's yield instead of
// materializing the window. Three ranges fall back to the raw scan so
// served buckets match a raw scan bucket for bucket: the partial
// bucket at the range start, the partial bucket at the range end, and
// everything at or after the series' sealed horizon (the unsealed
// tail). A tier that holds no fewer stored points than the raw series
// over the served buckets is declined: reading it would cost what the
// scan costs, or twice that.
//
// The same ServeDownsample path also ranks topk/bottomk selection:
// the query engine folds a candidate series' score straight off the
// streamed buckets, so when a tier covers the range, selection is
// served entirely from tier sums/counts and never decodes a raw
// member block.

import (
	"maps"
	"strings"
	"time"

	"repro/internal/tsdb"
)

// ServeDownsample implements tsdb.RollupPlanner. The ok=false
// decisions all precede the first yield, as the interface requires.
func (e *Engine) ServeDownsample(series *tsdb.Ref, start, end int64, interval time.Duration, fn tsdb.Aggregator, yield func(tsdb.Point) error) (bool, error) {
	if strings.HasPrefix(series.Metric(), MetricPrefix) {
		return false, nil // direct reads of derived series stay raw
	}
	iMS := interval.Milliseconds()
	if iMS <= 0 || start < 0 {
		return false, nil
	}
	ti, rd := e.pickTier(iMS, fn)
	if ti < 0 {
		e.fallbacks.Add(1)
		return false, nil
	}
	sealedUntil, stat, count, known := e.sealedHorizon(series.ID(), ti, rd)
	if !known {
		e.fallbacks.Add(1)
		return false, nil
	}

	// bLo: first bucket boundary at or after start; buckets before it
	// would cover pre-range points the query must exclude.
	bLo := start
	if rem := start % iMS; rem != 0 {
		bLo += iMS - rem
	}
	// A tier with finite retention has nothing before its cutoff even
	// when raw points are kept longer: clamp the tier-served range and
	// let the head raw scan cover the older buckets.
	if ret := e.tiers[ti].retention; ret > 0 {
		if retLo := e.cfg.Now().UnixMilli() - ret.Milliseconds(); retLo > 0 {
			if rem := retLo % iMS; rem != 0 {
				retLo += iMS - rem // align up: partial buckets stay raw
			}
			if retLo > bLo {
				bLo = retLo
			}
		}
	}
	// cut: first bucket boundary the tiers cannot fully cover —
	// either because the bucket extends past the sealed horizon or
	// past the requested end.
	hcut := sealedUntil - sealedUntil%iMS
	ecut := (end + 1) - (end+1)%iMS
	cut := hcut
	if ecut < cut {
		cut = ecut
	}
	if cut <= bLo {
		e.fallbacks.Add(1)
		return false, nil
	}
	// The cost rule: a tier earns the read only by holding fewer stored
	// points than the raw series over the same buckets. A derived
	// series has a point per non-empty window, so at a cadence no finer
	// than the tier's resolution it is as long as the raw one — and an
	// average across windows reads two of them.
	stored := 0 // points of one derived series over the served buckets
	if stat != nil {
		stored = e.db.PointEstimate(stat, bLo, cut-1)
		cost := stored
		if rd.avg {
			cost *= 2
		}
		if cost > 0 && cost >= e.db.PointEstimate(series, bLo, cut-1) {
			e.fallbacks.Add(1)
			return false, nil
		}
	}

	if bLo > start { // partial head bucket from raw
		if err := e.db.ReadRef(series, start, bLo-1, interval, fn, yield); err != nil {
			return false, err
		}
	}
	fold := interval
	if iMS == e.tiers[ti].resMS {
		fold = 0 // every stored window is one query bucket already
	}
	if err := e.yieldTier(rd, stat, count, bLo, cut, fold, stored, yield); err != nil {
		return false, err
	}
	if cut <= end { // unsealed tail (and partial end bucket) from raw
		if err := e.db.ReadRef(series, cut, end, interval, fn, yield); err != nil {
			return false, err
		}
	}
	e.hits.Add(1)
	return true, nil
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

// pickTier returns the index of the coarsest tier that can serve a
// downsample of interval iMS with aggregator fn exactly, and the read
// that does it; -1 when none can.
func (e *Engine) pickTier(iMS int64, fn tsdb.Aggregator) (int, tierRead) {
	for i := len(e.tiers) - 1; i >= 0; i-- {
		r := e.tiers[i].resMS
		if r > iMS || iMS%r != 0 {
			continue
		}
		switch fn {
		case tsdb.AggSum, tsdb.AggMin, tsdb.AggMax: // composable across windows
			return i, tierRead{stat: statOf(fn), fold: fn}
		case tsdb.AggCount:
			return i, tierRead{stat: statCount, fold: tsdb.AggSum}
		case tsdb.AggAvg:
			if iMS == r {
				return i, tierRead{stat: statMean}
			}
			return i, tierRead{stat: statSum, fold: tsdb.AggSum, avg: true}
		case tsdb.AggP50, tsdb.AggP95, tsdb.AggP99:
			// Percentiles don't compose; only an exact-resolution tier
			// stores them directly.
			if iMS == r {
				return i, tierRead{stat: statOf(fn)}
			}
		}
		// AggDev and unknown aggregators: raw scan.
	}
	return -1, tierRead{}
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

// sealedHorizon reads the series' sealed boundary for one tier and
// the refs of the derived series rd reads (count only when rd
// averages). A ref the seal path has not cached — restored state, a
// series retention removed and a later seal brought back — is looked
// up and cached here; it stays nil while the derived series does not
// exist, and reads as empty.
func (e *Engine) sealedHorizon(id tsdb.SeriesID, ti int, rd tierRead) (horizon int64, stat, count *tsdb.Ref, known bool) {
	sh := &e.shards[uint64(id)%engineShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.series[id]
	if !ok || st.skip {
		return 0, nil, nil, false
	}
	stat = e.cachedRefLocked(st, ti, rd.stat)
	if rd.avg {
		count = e.cachedRefLocked(st, ti, statCount)
	}
	return st.tiers[ti].sealedUntil, stat, count, true
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

// derivedName is the name of one derived series of st.
func (e *Engine) derivedName(st *seriesState, ti, stat int) (string, map[string]string) {
	tags := maps.Clone(st.tags)
	tags[StatTag] = windowStats[stat].name
	return e.tiers[ti].metricPrefix + st.metric, tags
}

// yieldTier streams the buckets of [bLo, cut) out of the derived
// series: stored windows as they are when interval is 0, otherwise
// folded to interval by rd.fold. stored bounds the windows either
// series holds there.
func (e *Engine) yieldTier(rd tierRead, stat, count *tsdb.Ref, bLo, cut int64, interval time.Duration, stored int, yield func(tsdb.Point) error) error {
	if stat == nil || (rd.avg && count == nil) {
		return nil
	}
	if !rd.avg {
		return e.db.ReadRef(stat, bLo, cut-1, interval, rd.fold, yield)
	}
	// The two series are written atomically per window, so their
	// buckets align; both arrive in timestamp order, so pairing them
	// is a merge join. A bucket missing its count (or with a zero one)
	// is skipped rather than divided by zero.
	counts := make([]tsdb.Point, 0, min((cut-bLo)/interval.Milliseconds()+2, int64(stored)))
	if err := e.db.ReadRef(count, bLo, cut-1, interval, rd.fold, func(p tsdb.Point) error {
		counts = append(counts, p)
		return nil
	}); err != nil {
		return err
	}
	return e.db.ReadRef(stat, bLo, cut-1, interval, rd.fold, func(sum tsdb.Point) error {
		for len(counts) > 0 && counts[0].Timestamp < sum.Timestamp {
			counts = counts[1:]
		}
		if len(counts) == 0 || counts[0].Timestamp != sum.Timestamp || !(counts[0].Value > 0) {
			return nil
		}
		return yield(tsdb.Point{Timestamp: sum.Timestamp, Value: sum.Value / counts[0].Value})
	})
}
