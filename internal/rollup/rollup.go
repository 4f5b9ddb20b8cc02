// Package rollup is the continuous-aggregation engine of the CTT
// cloud: it subscribes to every write landing in the time-series
// store, maintains per-series aggregation windows at a ladder of
// resolutions (raw → 1m → 1h by default), and flushes each sealed
// window back into the store as derived series — one per statistic
// (count, sum, min, max, mean, p50, p95, p99) — under the
// rollup.<resolution>.<metric> namespace with a stat=<name> tag.
//
// The paper's pilots accumulate months of 5-minute sensor history
// ("historic data ... collected since January 2017", §3) that
// dashboards read almost exclusively downsampled; scanning raw
// Gorilla blocks for every hourly-average panel is wasted work. The
// engine instead answers those reads from the rollup tiers: it
// installs itself as the store's RollupPlanner, so any query whose
// downsample interval is a multiple of a tier resolution (and whose
// aggregator the tier can reproduce exactly) is served from the
// coarsest satisfying tier, skipping raw block decodes entirely. The
// bucket straddling that tier's sealed horizon is, for a composable
// aggregate, combined from the finest tier dividing the interval — its
// sealed windows, then the raw points after them — unless that tier
// dropped a late point there; the partial head bucket and whatever no
// tier has sealed fall back to the raw scan, so served results match a
// full raw scan bucket for bucket (to float association where a window
// holds several readings).
//
// Windows seal on a watermark: once a series' newest-seen timestamp
// (minus a configurable grace allowance for out-of-order arrivals)
// passes a window's end, the window is aggregated and written out. A
// background loop additionally seals by wall (or injected) clock, so
// idle series flush too, and applies per-tier retention: raw points
// and each rollup tier age out on their own schedules, turning the
// store into tiered storage — recent data at full resolution, months
// of history at 1m/1h.
//
// The engine keeps no file of its own. Its unsealed tail — per-series
// watermarks, sealed horizons and open windows — is a function of what
// the store holds: New rebuilds it from the raw points and derived
// count series the WAL and block files restore, so a restart, a
// promoted replica or a changed tier ladder resumes every open window
// with the points it had before.
//
// The write-back is on every raw point's path, so it runs at store
// speed: each tier of a series caches the interned refs of its eight
// derived series, a window's statistics come from one pass and one
// in-place sort, and everything an observed batch seals goes back
// through one AppendRefs call, each series' windows oldest first.
package rollup

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

// MetricPrefix namespaces every derived series the engine writes.
// Writes under this prefix are never themselves rolled up.
const MetricPrefix = "rollup."

// StatTag is the tag key carrying the statistic name on derived
// series. Raw series that already use this tag key are not rolled up
// (they would collide with the derived namespace).
const StatTag = "stat"

// Tier is one rollup level: windows of Resolution, kept for
// Retention (0 = forever).
type Tier struct {
	Resolution time.Duration
	Retention  time.Duration
}

// Config tunes the engine. Zero values select the defaults.
type Config struct {
	// Tiers lists the rollup levels, finest first. Default:
	// 1m kept 7 days, 1h kept 90 days.
	Tiers []Tier
	// RawRetention ages out raw (non-derived) points older than this;
	// 0 keeps them forever.
	RawRetention time.Duration
	// Grace delays watermark sealing: a window seals only once the
	// series watermark passes its end by Grace, allowing out-of-order
	// arrivals that far behind the newest point. Default 0.
	Grace time.Duration
	// FlushEvery is the background seal/retention cadence. Default
	// 10s; negative disables the background loop entirely (callers
	// drive Flush/ApplyRetention themselves — tests and benches).
	FlushEvery time.Duration
	// Now injects the clock used for idle sealing and retention
	// cutoffs (simulated pilots run on simulated time). Default
	// time.Now.
	Now func() time.Time
}

// The statistics of a sealed window, in storage order.
const (
	statCount = iota
	statSum
	statMin
	statMax
	statMean
	statP50
	statP95
	statP99
	numStats
)

// windowStats names the statistics, each with the aggregator sealStats
// matches bit for bit.
var windowStats = [numStats]struct {
	name string
	agg  tsdb.Aggregator
}{
	statCount: {"count", tsdb.AggCount},
	statSum:   {"sum", tsdb.AggSum},
	statMin:   {"min", tsdb.AggMin},
	statMax:   {"max", tsdb.AggMax},
	statMean:  {"mean", tsdb.AggAvg},
	statP50:   {"p50", tsdb.AggP50},
	statP95:   {"p95", tsdb.AggP95},
	statP99:   {"p99", tsdb.AggP99},
}

const engineShards = 16

// Engine is the continuous-aggregation subsystem over one store.
type Engine struct {
	db    *tsdb.DB
	cfg   Config
	tiers []tierSpec

	shards [engineShards]engineShard

	// clockSealed is the newest horizon Flush has sealed every known
	// series to; a series first seen later starts sealed to it too.
	clockSealed atomic.Int64

	removeObs func()
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// counters
	observed  atomic.Uint64 // raw points seen by the observer
	late      atomic.Uint64 // points behind ≥1 tier's sealed horizon (once per point)
	skipped   atomic.Uint64 // points on series with a reserved stat tag
	sealedN   atomic.Uint64 // windows sealed
	written   atomic.Uint64 // derived points written back
	hits      atomic.Uint64 // per-series downsamples served from tiers
	fallbacks atomic.Uint64 // per-series downsamples that fell back to raw
	tailHits  atomic.Uint64 // hits whose bucket at the chosen tier's horizon came from windows finer than the interval
	retained  atomic.Uint64 // points removed by retention
	retErrs   atomic.Uint64 // background retention/compaction passes that failed

	// obsHist, once RegisterMetrics installs it, times each
	// observeBatch call — the rollup fold is on the store's observer
	// fan-out path, so this is the engine's share of ingest latency.
	obsHist atomic.Pointer[obs.Histogram]
}

// tierSpec is a Tier with its derived values precomputed.
type tierSpec struct {
	res          time.Duration
	resMS        int64
	retention    time.Duration
	name         string // "1m", "1h", "90s"
	metricPrefix string // "rollup.1m."
}

type engineShard struct {
	mu     sync.Mutex
	series map[tsdb.SeriesID]*seriesState
}

type seriesState struct {
	ref       *tsdb.Ref // interned handle, the series' identity; dead ⇒ prunable once drained
	skip      bool      // derived series / reserved stat tag: never rolled up
	countSkip bool      // reserved stat tag: count on the skipped counter
	watermark int64     // newest event timestamp seen (ms)
	pending   int       // write-backs of sealed windows not yet returned
	tiers     []tierState
}

type tierState struct {
	open        map[int64]*window // by window start (ms)
	sealedUntil int64             // every window with start < sealedUntil is sealed
	// readUntil is the horizon queries read: sealedUntil as of the last
	// moment no write-back of the series was in flight, so every window
	// before it is stored.
	readUntil int64
	// lateUntil: a window starting before it may lack a point the tier
	// dropped as late (the end of the newest such window; 0 when none).
	lateUntil int64
	refs      [numStats]*tsdb.Ref // derived series, windowStats order; interned at first seal
}

// fold appends v to the open window starting at w.
func (ts *tierState) fold(w int64, v float64) {
	win := ts.open[w]
	if win == nil {
		win = &window{}
		win.vals = win.one[:0]
		ts.open[w] = win
	}
	win.vals = append(win.vals, v)
}

type window struct {
	vals []float64  // arrival order until the seal sorts them in place
	one  [1]float64 // backs vals until a second value arrives
}

// formatRes renders a resolution as the shortest of h/m/s units.
func formatRes(d time.Duration) string {
	switch {
	case d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	default:
		return fmt.Sprintf("%ds", d/time.Second)
	}
}

// ParseTiers parses a tier spec, "1m:168h,1h:2160h" ("res" alone
// keeps forever), and refuses what New would refuse.
func ParseTiers(spec string) ([]Tier, error) {
	var tiers []Tier
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		resS, retS, hasRet := strings.Cut(part, ":")
		res, err := time.ParseDuration(resS)
		if err != nil {
			return nil, fmt.Errorf("bad tier resolution %q: %v", resS, err)
		}
		var ret time.Duration
		if hasRet {
			if ret, err = time.ParseDuration(retS); err != nil {
				return nil, fmt.Errorf("bad tier retention %q: %v", retS, err)
			}
		}
		tiers = append(tiers, Tier{Resolution: res, Retention: ret})
	}
	return tiers, checkTiers(tiers)
}

// checkTiers reports why New would refuse tiers: a resolution below
// 1s, or resolutions not distinct and finest first (serving picks the
// coarsest satisfying tier by scanning from the back).
func checkTiers(tiers []Tier) error {
	for i, t := range tiers {
		if t.Resolution < time.Second {
			return fmt.Errorf("rollup: tier resolution %v below 1s", t.Resolution)
		}
		if i > 0 && t.Resolution.Milliseconds() <= tiers[i-1].Resolution.Milliseconds() {
			return fmt.Errorf("rollup: tiers must be sorted by ascending resolution, each resolution once")
		}
	}
	return nil
}

// New builds an engine over db, rebuilds the unsealed tail of every
// stored series, subscribes the engine to the store's write feed,
// installs it as the store's rollup planner, and (unless disabled)
// starts the background seal/retention loop. Call Close to detach.
func New(db *tsdb.DB, cfg Config) (*Engine, error) {
	if len(cfg.Tiers) == 0 {
		cfg.Tiers = []Tier{
			{Resolution: time.Minute, Retention: 7 * 24 * time.Hour},
			{Resolution: time.Hour, Retention: 90 * 24 * time.Hour},
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.FlushEvery == 0 {
		cfg.FlushEvery = 10 * time.Second
	}
	if err := checkTiers(cfg.Tiers); err != nil {
		return nil, err
	}
	e := &Engine{db: db, cfg: cfg, stop: make(chan struct{})}
	for _, t := range cfg.Tiers {
		name := formatRes(t.Resolution)
		e.tiers = append(e.tiers, tierSpec{
			res: t.Resolution, resMS: t.Resolution.Milliseconds(), retention: t.Retention,
			name: name, metricPrefix: MetricPrefix + name + ".",
		})
	}
	for i := range e.shards {
		e.shards[i].series = make(map[tsdb.SeriesID]*seriesState)
	}
	if err := e.restore(); err != nil {
		return nil, err
	}
	e.removeObs = db.AddBatchObserver(e.observeBatch)
	db.SetRollupPlanner(e)
	if cfg.FlushEvery > 0 {
		e.wg.Add(1)
		go e.loop()
	}
	return e, nil
}

// restore rebuilds, before the engine sees a write, the unsealed tail
// of every stored series it rolls up. The watermark is the newest
// stored timestamp; each tier's sealed horizon is the later of the
// watermark's (less Grace) and the end of the newest window the tier's
// count series holds — windows a clock Flush sealed past the watermark
// must not seal twice. Horizons only rise, so every stored point at or
// past one was folded into an open window, never dropped as late: the
// open windows are the raw points from the horizon on, folded in
// timestamp order. Late drops leave no trace in the store, so every
// window before the horizon counts as possibly short of one.
func (e *Engine) restore() error {
	grace := e.cfg.Grace.Milliseconds()
	for _, ref := range e.db.Refs() {
		st := e.newSeriesState(ref)
		if st.skip {
			continue
		}
		wm, ok := e.db.NewestTimestamp(ref)
		if !ok {
			continue
		}
		st.watermark = wm
		from := wm
		for i := range st.tiers {
			ts, res := &st.tiers[i], e.tiers[i].resMS
			if h := wm - grace; h > 0 {
				ts.sealedUntil = h - h%res
			}
			if count := e.db.Lookup(e.derivedName(st, i, statCount)); count != nil {
				if newest, ok := e.db.NewestTimestamp(count); ok {
					ts.sealedUntil = max(ts.sealedUntil, newest+res)
				}
			}
			ts.readUntil, ts.lateUntil = ts.sealedUntil, ts.sealedUntil
			from = min(from, ts.sealedUntil)
		}
		err := e.db.ReadRef(ref, from, wm, 0, "", func(p tsdb.Point) error {
			for i := range st.tiers {
				if ts := &st.tiers[i]; p.Timestamp >= ts.sealedUntil {
					ts.fold(p.Timestamp-p.Timestamp%e.tiers[i].resMS, p.Value)
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("rollup: rebuild %s: %w", ref.Key(), err)
		}
		e.shards[uint64(ref.ID())%engineShards].series[ref.ID()] = st
	}
	return nil
}

// Close stops the background loop and detaches the engine from the
// store. It seals nothing: the open windows are rebuilt from the store
// by the next New, and seal at their natural boundaries. Callers that
// want the tail sealed now call FlushAll first.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		close(e.stop)
		e.wg.Wait()
		e.removeObs()
		e.db.SetRollupPlanner(nil)
	})
	return nil
}

func (e *Engine) loop() {
	defer e.wg.Done()
	// Supervised: a panic in a seal/retention tick must not silently
	// end continuous aggregation for the process lifetime.
	obs.Supervised("rollup", nil, e.stop, e.loopBody)
}

func (e *Engine) loopBody() {
	ticker := time.NewTicker(e.cfg.FlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			now := e.cfg.Now()
			e.Flush(now)
			if _, err := e.ApplyRetention(now); err != nil {
				// A corrupt block or a failed WAL compaction; nothing
				// the loop can do but keep serving — count it so the
				// failure is visible on /metrics instead of silent.
				e.retErrs.Add(1)
				continue
			}
		}
	}
}

// observeBatch is the store write hook, batch-granular: one call per
// stored batch, one engine-shard lock acquisition per shard touched
// by the batch, windows keyed by interned SeriesID — no key strings,
// no tag hashing, and the derived-series / reserved-tag skip decision
// is made once per series instead of once per point.
func (e *Engine) observeBatch(rps []tsdb.RefPoint) {
	if h := e.obsHist.Load(); h != nil {
		defer h.ObserveSince(time.Now())
	}
	var wb writeBack
	for si := uint64(0); si < engineShards; si++ {
		sh := &e.shards[si]
		locked := false
		for i := range rps {
			id := uint64(rps[i].Ref.ID())
			if id%engineShards != si {
				continue
			}
			if !locked {
				sh.mu.Lock()
				locked = true
			}
			e.observeOneLocked(sh, rps[i], &wb)
		}
		if locked {
			sh.mu.Unlock()
		}
	}
	e.writeDerived(&wb)
}

// observeOneLocked folds one point into every tier's open window of
// its series and seals whatever the advancing watermark has passed.
// Caller holds the shard lock.
func (e *Engine) observeOneLocked(sh *engineShard, rp tsdb.RefPoint, wb *writeBack) {
	st, ok := sh.series[rp.Ref.ID()]
	if !ok {
		st = e.newSeriesState(rp.Ref)
		sh.series[rp.Ref.ID()] = st
	}
	if st.skip {
		if st.countSkip {
			e.skipped.Add(1)
		}
		return
	}
	e.observed.Add(1)
	if rp.Timestamp > st.watermark {
		st.watermark = rp.Timestamp
	}
	lateAny := false
	for i := range e.tiers {
		ts := &st.tiers[i]
		w := rp.Timestamp - rp.Timestamp%e.tiers[i].resMS
		if w < ts.sealedUntil {
			lateAny = true
			ts.lateUntil = max(ts.lateUntil, w+e.tiers[i].resMS)
			continue
		}
		ts.fold(w, rp.Value)
	}
	if lateAny {
		e.late.Add(1)
	}
	e.sealPassedLocked(st, st.watermark-e.cfg.Grace.Milliseconds(), wb)
}

// newSeriesState builds the tracking state for a first-seen series,
// deciding once whether it is ever rolled up. Derived (rollup.*)
// writes and series carrying the reserved stat tag keep a skip-only
// state so the per-point path is a single map hit. A series to roll up
// starts as sealed as the last clock Flush left every known one, so
// points behind the clock are late whenever their series first appears.
func (e *Engine) newSeriesState(ref *tsdb.Ref) *seriesState {
	st := &seriesState{ref: ref}
	if strings.HasPrefix(ref.Metric(), MetricPrefix) {
		st.skip = true // derived write: never roll up rollups
		return st
	}
	if _, reserved := ref.Tag(StatTag); reserved {
		st.skip, st.countSkip = true, true
		return st
	}
	st.tiers = make([]tierState, len(e.tiers))
	horizon := e.clockSealed.Load()
	for i := range st.tiers {
		st.tiers[i].open = make(map[int64]*window)
		st.tiers[i].sealedUntil = horizon - horizon%e.tiers[i].resMS
		st.tiers[i].readUntil = st.tiers[i].sealedUntil
	}
	return st
}

// sealPassedLocked seals, for every tier of st, each open window that
// ends at or before horizon into wb. Caller holds the shard lock.
func (e *Engine) sealPassedLocked(st *seriesState, horizon int64, wb *writeBack) {
	if st.skip || horizon <= 0 {
		return
	}
	n := len(wb.pts)
	for i := range e.tiers {
		ts := &st.tiers[i]
		// hA: start of the window containing the horizon — every
		// window strictly before it has fully elapsed.
		hA := horizon - horizon%e.tiers[i].resMS
		if hA <= ts.sealedUntil {
			continue
		}
		wb.pts = e.sealBeforeLocked(wb.pts, st, i, hA)
		ts.sealedUntil = hA
	}
	wb.track(st, n)
}

// writeBack is what one locked pass seals: the derived points, and the
// series they came from, whose horizons reach queries only once the
// points are stored.
type writeBack struct {
	pts    []tsdb.RefPoint
	series *[]*seriesState // from sealLists; nil until a series seals
}

// sealLists recycles writeBack.series, so listing the sealed series
// costs a seal no allocation.
var sealLists = sync.Pool{New: func() any { return new([]*seriesState) }}

// track ends a seal of st begun when pts held n points: a series that
// rendered windows waits for their write-back; one that rendered none
// publishes its horizons now, unless an earlier write-back of it is
// still in flight. Caller holds the shard lock.
func (wb *writeBack) track(st *seriesState, n int) {
	if len(wb.pts) == n {
		st.publishLocked()
		return
	}
	st.pending++
	if wb.series == nil {
		wb.series = sealLists.Get().(*[]*seriesState)
	}
	*wb.series = append(*wb.series, st)
}

// publishLocked moves st's read horizons up to its sealed ones once no
// write-back of it is in flight. Caller holds the shard lock.
func (st *seriesState) publishLocked() {
	if st.pending > 0 {
		return
	}
	for i := range st.tiers {
		st.tiers[i].readUntil = st.tiers[i].sealedUntil
	}
}

// sealBeforeLocked seals tier ti's open windows that start before
// limit, oldest first — windows sealing together (idle Flush, rebuilt
// windows, FlushAll, arrivals inside Grace) out of order would leave a
// derived series overlapping blocks to decode and sort on every read —
// and moves the sealed horizon past them. Caller holds the shard lock.
func (e *Engine) sealBeforeLocked(out []tsdb.RefPoint, st *seriesState, ti int, limit int64) []tsdb.RefPoint {
	ts := &st.tiers[ti]
	starts := make([]int64, 0, 4)
	for w := range ts.open {
		if w < limit {
			starts = append(starts, w)
		}
	}
	slices.Sort(starts)
	for _, w := range starts {
		out = e.appendWindowPoints(out, st, ti, w, ts.open[w])
		delete(ts.open, w)
		ts.sealedUntil = max(ts.sealedUntil, w+e.tiers[ti].resMS)
	}
	return out
}

// appendWindowPoints renders one sealed window as its derived stat
// points, addressed to the tier's cached refs.
func (e *Engine) appendWindowPoints(out []tsdb.RefPoint, st *seriesState, ti int, start int64, win *window) []tsdb.RefPoint {
	refs := e.derivedRefs(st, ti)
	if len(win.vals) == 0 || refs == nil {
		return out
	}
	e.sealedN.Add(1)
	out = slices.Grow(out, numStats)
	for i, v := range sealStats(win.vals) {
		out = append(out, tsdb.RefPoint{Ref: refs[i], Point: tsdb.Point{Timestamp: start, Value: v}})
	}
	return out
}

// derivedRefs returns the handles of st's derived series on tier ti,
// interning them on the first seal and again once retention has
// removed one (AppendRefs re-interns a dead ref itself, on every write).
func (e *Engine) derivedRefs(st *seriesState, ti int) *[numStats]*tsdb.Ref {
	refs := &st.tiers[ti].refs
	for i, ref := range refs {
		if ref != nil && ref.Live() {
			continue
		}
		var err error
		if refs[i], err = e.db.Intern(e.derivedName(st, ti, i)); err != nil {
			return nil // unreachable: the raw name validated, the additions are valid
		}
	}
	return refs
}

// sealStats reduces a sealed window to its statistics in windowStats
// order, each bit-identical to its Aggregator.Apply: the arithmetic ones
// in one pass over arrival order (float sums, and min/max over NaN or
// signed zeros, depend on it), the percentiles from one in-place sort —
// none for a one-value window, every 1m window at the pilots' cadence.
func sealStats(vals []float64) [numStats]float64 {
	sum, lo, hi := 0.0, vals[0], vals[0]
	for _, v := range vals {
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	n := float64(len(vals))
	if len(vals) > 1 {
		slices.Sort(vals) // what sort.Float64s, Apply's sort, calls
	}
	return [numStats]float64{n, sum, lo, hi, sum / n,
		tsdb.PercentileSorted(vals, 0.50), tsdb.PercentileSorted(vals, 0.95), tsdb.PercentileSorted(vals, 0.99)}
}

// writeDerived stores what a pass sealed, then publishes the horizons
// of the series it came from, one lock per run of a shard's series.
// Runs outside the engine shard locks: the store's observers (including
// this engine, which skips the rollup namespace) fire synchronously on
// these writes.
func (e *Engine) writeDerived(wb *writeBack) {
	e.written.Add(uint64(e.db.AppendRefs(wb.pts).Stored))
	if wb.series == nil {
		return
	}
	var locked *engineShard
	for _, st := range *wb.series {
		if sh := &e.shards[uint64(st.ref.ID())%engineShards]; sh != locked {
			if locked != nil {
				locked.mu.Unlock()
			}
			locked = sh
			sh.mu.Lock()
		}
		st.pending--
		st.publishLocked()
	}
	locked.mu.Unlock()
	clear(*wb.series)
	*wb.series = (*wb.series)[:0]
	sealLists.Put(wb.series)
}

// Flush seals every window that has fully elapsed by the given clock
// (minus Grace) — how idle series' windows get sealed when no further
// writes advance their watermark.
func (e *Engine) Flush(now time.Time) {
	horizon := now.UnixMilli() - e.cfg.Grace.Milliseconds()
	if horizon > e.clockSealed.Load() { // before the walk: a series created during it sees this
		e.clockSealed.Store(horizon) // racing Flushes: the loser is at most a tick older
	}
	for i := range e.shards {
		sh := &e.shards[i]
		var wb writeBack
		sh.mu.Lock()
		for id, st := range sh.series {
			e.sealPassedLocked(st, horizon, &wb)
			// A series retention removed gets a fresh SeriesID if it
			// ever returns; once this state has nothing left to seal,
			// drop it so dead IDs don't accumulate forever.
			if st.ref != nil && !st.ref.Live() && openWindowsLocked(st) == 0 {
				delete(sh.series, id)
			}
		}
		sh.mu.Unlock()
		e.writeDerived(&wb)
	}
}

// openWindowsLocked counts st's open windows across tiers. Caller
// holds the shard lock.
func openWindowsLocked(st *seriesState) int {
	n := 0
	for i := range st.tiers {
		n += len(st.tiers[i].open)
	}
	return n
}

// FlushAll unconditionally seals and flushes every open window,
// regardless of watermark or clock. Points arriving later for a
// flushed window are dropped from the rollups (counted as late); the
// raw series still records them.
func (e *Engine) FlushAll() {
	for i := range e.shards {
		sh := &e.shards[i]
		var wb writeBack
		sh.mu.Lock()
		for _, st := range sh.series {
			if st.skip {
				continue
			}
			n := len(wb.pts)
			for ti := range e.tiers {
				wb.pts = e.sealBeforeLocked(wb.pts, st, ti, math.MaxInt64)
			}
			wb.track(st, n)
		}
		sh.mu.Unlock()
		e.writeDerived(&wb)
	}
}

// ApplyRetention ages out raw points and each rollup tier on their
// configured schedules, measured back from now. Returns the number of
// points removed.
func (e *Engine) ApplyRetention(now time.Time) (int, error) {
	nowMS := now.UnixMilli()
	total := 0
	if e.cfg.RawRetention > 0 {
		n, err := e.db.DeleteBeforeWhere(nowMS-e.cfg.RawRetention.Milliseconds(),
			func(metric string) bool {
				return !strings.HasPrefix(metric, MetricPrefix)
			})
		total += n
		if err != nil {
			e.retained.Add(uint64(total))
			return total, err
		}
	}
	for i := range e.tiers {
		spec := &e.tiers[i]
		if spec.retention <= 0 {
			continue
		}
		prefix := spec.metricPrefix
		n, err := e.db.DeleteBeforeWhere(nowMS-spec.retention.Milliseconds(),
			func(metric string) bool {
				return strings.HasPrefix(metric, prefix)
			})
		total += n
		if err != nil {
			e.retained.Add(uint64(total))
			return total, err
		}
	}
	e.retained.Add(uint64(total))
	if total > 0 {
		// Rewrite the WAL from the post-retention state (a no-op
		// without persistence) so the log tracks the live data instead
		// of growing forever. A deferred truncation (live replication
		// reader behind) is benign: the next pass retries.
		if err := e.db.CompactWAL(); err != nil && !errors.Is(err, tsdb.ErrTruncateDeferred) {
			return total, err
		}
	}
	return total, nil
}

// TierStat is the live state of one rollup level.
type TierStat struct {
	Name        string
	Resolution  time.Duration
	Retention   time.Duration
	OpenWindows int
	// LagMS is the largest gap, across series, between a series'
	// watermark and its sealed horizon — how far rollup serving trails
	// the freshest data.
	LagMS int64
}

// Stats is a snapshot of the engine's counters and per-tier state.
type Stats struct {
	Observed         uint64
	Late             uint64
	Skipped          uint64
	WindowsSealed    uint64
	PointsWritten    uint64
	QueryHits        uint64
	QueryFallbacks   uint64
	TailServed       uint64 // QueryHits whose bucket at the chosen tier's horizon came from windows finer than the interval
	RetentionDeleted uint64
	RetentionErrors  uint64
	Tiers            []TierStat
}

// Stats snapshots the engine.
func (e *Engine) Stats() Stats {
	return Stats{
		Observed:         e.observed.Load(),
		Late:             e.late.Load(),
		Skipped:          e.skipped.Load(),
		WindowsSealed:    e.sealedN.Load(),
		PointsWritten:    e.written.Load(),
		QueryHits:        e.hits.Load(),
		QueryFallbacks:   e.fallbacks.Load(),
		TailServed:       e.tailHits.Load(),
		RetentionDeleted: e.retained.Load(),
		RetentionErrors:  e.retErrs.Load(),
		Tiers:            e.tierStats(),
	}
}

// tierStats walks every series once for each tier's open windows and
// worst watermark lag.
func (e *Engine) tierStats() []TierStat {
	tiers := make([]TierStat, len(e.tiers))
	for i := range e.tiers {
		tiers[i] = TierStat{Name: e.tiers[i].name, Resolution: e.tiers[i].res, Retention: e.tiers[i].retention}
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, s := range sh.series {
			for ti := range s.tiers {
				tiers[ti].OpenWindows += len(s.tiers[ti].open)
				if lag := s.watermark - s.tiers[ti].sealedUntil; lag > tiers[ti].LagMS {
					tiers[ti].LagMS = lag
				}
			}
		}
		sh.mu.Unlock()
	}
	return tiers
}

// RegisterMetrics puts the engine's counters, its per-tier open-window
// and watermark-lag gauges and its observe-latency histogram on r, so
// /metrics and the self-scrape loop both see them. The counters read
// the engine's atomics; a per-tier gauge walks the series at scrape
// time.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	r.Uint("ctt_rollup_points_observed_total", e.observed.Load)
	r.Uint("ctt_rollup_late_dropped_total", e.late.Load)
	r.Uint("ctt_rollup_skipped_total", e.skipped.Load)
	r.Uint("ctt_rollup_windows_sealed_total", e.sealedN.Load)
	r.Uint("ctt_rollup_points_written_total", e.written.Load)
	r.Uint("ctt_rollup_query_hits_total", e.hits.Load)
	r.Uint("ctt_rollup_query_fallbacks_total", e.fallbacks.Load)
	r.Uint("ctt_rollup_query_tail_served_total", e.tailHits.Load)
	r.Uint("ctt_rollup_retention_deleted_total", e.retained.Load)
	r.Uint("ctt_rollup_retention_errors_total", e.retErrs.Load)
	for ti := range e.tiers {
		label := `{tier="` + e.tiers[ti].name + `"}`
		r.Uint("ctt_rollup_open_windows"+label, func() uint64 { return uint64(e.tierStats()[ti].OpenWindows) })
		r.Uint("ctt_rollup_lag_ms"+label, func() uint64 { return uint64(e.tierStats()[ti].LagMS) })
	}
	e.obsHist.Store(r.Histogram("ctt_rollup_observe_seconds", "", nil))
}
