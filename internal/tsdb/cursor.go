package tsdb

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// Per-point cursors over stored series: the read hot path hands
// points one at a time from sealed blocks (via blockCursor) through
// range filtering, head merging and downsample folding, so a scan
// never materializes a series-sized []Point unless the caller asks
// for one. Every source yields points in non-decreasing timestamp
// order.

// pointSource is a pull iterator over points in timestamp order.
type pointSource interface {
	// next returns the next point; ok is false when the source is
	// exhausted. After !ok or an error the source must not be reused.
	next() (Point, bool, error)
}

// sliceSource streams an already-materialized, sorted point slice.
type sliceSource struct {
	pts []Point
	i   int
}

func (s *sliceSource) next() (Point, bool, error) {
	if s.i >= len(s.pts) {
		return Point{}, false, nil
	}
	p := s.pts[s.i]
	s.i++
	return p, true, nil
}

// chunkSource streams the in-range points of a run of encoded chunks
// — sealed blocks in memory, or chunks on disk read and CRC-verified
// when the cursor reaches them, into a buffer reused across chunks —
// decoding one point at a time and leaving a chunk at its first point
// past the range end — where a run of time-ordered, non-overlapping
// chunks ends. Overlapping runs go through sortedSource.
type chunkSource struct {
	blocks     []sealedBlock
	chunks     []*diskChunk // read when blocks is empty
	i          int
	cur        blockCursor
	open       bool
	start, end int64
	buf        []byte
	ds         *diskStore
}

func (c *chunkSource) next() (Point, bool, error) {
	for {
		if !c.open {
			switch {
			case c.i < len(c.blocks):
				c.cur.reset(c.blocks[c.i].data, c.blocks[c.i].n)
			case c.i < len(c.chunks):
				payload, err := c.chunks[c.i].payload(&c.buf)
				if err != nil {
					c.ds.readErrs.Add(1)
					return Point{}, false, err
				}
				c.cur.reset(payload, c.chunks[c.i].n)
			default:
				return Point{}, false, nil
			}
			c.i++
			c.open = true
		}
		p, ok, err := c.cur.next()
		switch {
		case err != nil:
			return Point{}, false, err
		case !ok || p.Timestamp > c.end:
			c.open = false // the chunk holds nothing more in range
		case p.Timestamp >= c.start:
			return p, true, nil
		}
	}
}

// sortedSource streams what src yields sorted by timestamp: the points
// of chunks that overlap, because out-of-order ingest sealed or flushed
// them so (rare), decoded and sorted once.
func sortedSource(src pointSource) (pointSource, error) {
	pts, err := drainSource(src, nil)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Timestamp < pts[j].Timestamp })
	return &sliceSource{pts: pts}, err
}

// mergeSource interleaves two sorted sources; ties go to a, so block
// points precede same-timestamp head points.
type mergeSource struct {
	a, b     pointSource
	ap, bp   Point
	aok, bok bool
	primed   bool
}

func (m *mergeSource) prime() error {
	var err error
	if m.ap, m.aok, err = m.a.next(); err != nil {
		return err
	}
	if m.bp, m.bok, err = m.b.next(); err != nil {
		return err
	}
	m.primed = true
	return nil
}

func (m *mergeSource) next() (Point, bool, error) {
	if !m.primed {
		if err := m.prime(); err != nil {
			return Point{}, false, err
		}
	}
	switch {
	case !m.aok && !m.bok:
		return Point{}, false, nil
	case m.aok && (!m.bok || m.ap.Timestamp <= m.bp.Timestamp):
		p := m.ap
		var err error
		if m.ap, m.aok, err = m.a.next(); err != nil {
			return Point{}, false, err
		}
		return p, true, nil
	default:
		p := m.bp
		var err error
		if m.bp, m.bok, err = m.b.next(); err != nil {
			return Point{}, false, err
		}
		return p, true, nil
	}
}

// timedSource accrues the wall time of every next() call into a stage
// accumulator — the opt-in per-point detail mode behind
// Trace.SetDetailed. Timing is inclusive of the wrapped chain: a
// downsample_fold wrapper includes the block_decode below it, so
// attribution subtracts inner stages from outer ones.
type timedSource struct {
	src pointSource
	st  *obs.Stage
}

func (t *timedSource) next() (Point, bool, error) {
	t0 := time.Now()
	p, ok, err := t.src.next()
	t.st.Add(time.Since(t0))
	return p, ok, err
}

// seriesSource builds a cursor over one series' points within
// [start, end], merging on-disk chunks, sealed blocks and the head
// buffer (oldest layer wins timestamp ties). The shard lock is taken
// only to snapshot the block list, copy the in-range slice of the
// head, and gather the disk chunk set — one critical section, so a
// concurrent flush (which moves data between the layers atomically
// per shard) can never make a point visible twice or not at all.
// Decoding runs lock-free. The returned estimate is an upper bound on
// the number of points the source can yield. With a detailed trace,
// the legs are wrapped in per-point timers (disk_read / block_decode
// / head_scan stages); a nil or undetailed trace adds nothing to the
// chain.
func (db *DB) seriesSource(s *memSeries, sh *shard, start, end int64, tr *obs.Trace) (pointSource, int, error) {
	detailed := tr.Detailed()
	var dchunks []*diskChunk
	sh.mu.RLock()
	blocks := s.blocks
	// head is sorted: copy just the in-range subrange.
	lo := sort.Search(len(s.head), func(i int) bool { return s.head[i].Timestamp >= start })
	hi := sort.Search(len(s.head), func(i int) bool { return s.head[i].Timestamp > end })
	var head []Point
	if lo < hi {
		head = append(head, s.head[lo:hi]...)
	}
	if db.disk != nil && s.ref != nil {
		dchunks = db.disk.chunksFor(s.ref.id, start, end)
	}
	sh.mu.RUnlock()

	est := len(head)
	inRange := blocks[:0:0]
	ordered := true
	for _, b := range blocks {
		if b.maxTS < start || b.minTS > end {
			continue
		}
		if n := len(inRange); n > 0 && b.minTS < inRange[n-1].maxTS {
			ordered = false
		}
		inRange = append(inRange, b)
		est += b.n
	}

	var blockSrc, diskSrc pointSource
	var err error
	if len(inRange) > 0 {
		blockSrc = &chunkSource{blocks: inRange, start: start, end: end}
		if !ordered {
			if blockSrc, err = sortedSource(blockSrc); err != nil {
				return nil, 0, err
			}
		}
		if detailed {
			blockSrc = &timedSource{src: blockSrc, st: tr.Stage("block_decode")}
		}
	}
	if len(dchunks) > 0 {
		ordered = true
		for i, c := range dchunks {
			est += c.n
			if i > 0 && c.minTS < dchunks[i-1].maxTS {
				ordered = false
			}
		}
		diskSrc = &chunkSource{chunks: dchunks, start: start, end: end, ds: db.disk}
		if !ordered {
			if diskSrc, err = sortedSource(diskSrc); err != nil {
				return nil, 0, err
			}
		}
		if detailed {
			diskSrc = &timedSource{src: diskSrc, st: tr.Stage("disk_read")}
		}
	}

	var headSrc pointSource
	if len(head) > 0 || (blockSrc == nil && diskSrc == nil) {
		headSrc = &sliceSource{pts: head}
		if detailed {
			headSrc = &timedSource{src: headSrc, st: tr.Stage("head_scan")}
		}
	}

	// Merge: disk (oldest) under memory blocks under head, ties going
	// to the older layer.
	src := diskSrc
	for _, layer := range []pointSource{blockSrc, headSrc} {
		switch {
		case layer == nil:
		case src == nil:
			src = layer
		default:
			src = &mergeSource{a: src, b: layer}
		}
	}
	db.pointsRead.Add(int64(est))
	return src, est, nil
}

// PointEstimate bounds from above the points a read of ref's series
// over [start, end] decodes, from index metadata alone: every sealed
// block and disk chunk overlapping the range counts whole (a cursor
// decodes a chunk from its first point), the head by the points inside
// the range. What a rollup planner weighs a tier read against the raw
// scan with, and how it estimates what its reads cost.
func (db *DB) PointEstimate(ref *Ref, start, end int64) int {
	if start > end {
		return 0 // an empty range reads nothing
	}
	s, sh := ref.s, &db.shards[ref.shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := sort.Search(len(s.head), func(i int) bool { return s.head[i].Timestamp > end }) -
		sort.Search(len(s.head), func(i int) bool { return s.head[i].Timestamp >= start })
	for _, b := range s.blocks {
		if b.maxTS >= start && b.minTS <= end {
			n += b.n
		}
	}
	if db.disk != nil {
		n += db.disk.pointsIn(ref.id, start, end)
	}
	return n
}

// PointsRead is the number of points the store's read cursors have
// been built over since Open: every sealed block and disk chunk
// overlapping a read's range counts whole, the head by the points
// inside it. It bounds the points decoded from above, as a Plan's
// Estimate bounds one run's share of it.
func (db *DB) PointsRead() int64 { return db.pointsRead.Load() }

// NewestTimestamp returns the newest stored timestamp of ref's series
// from index metadata alone — head, sealed blocks, disk chunks — and
// false when the series holds no points.
func (db *DB) NewestTimestamp(ref *Ref) (int64, bool) {
	s, sh := ref.s, &db.shards[ref.shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	newest, ok := int64(0), false
	note := func(ts int64) {
		if !ok || ts > newest {
			newest, ok = ts, true
		}
	}
	if n := len(s.head); n > 0 {
		note(s.head[n-1].Timestamp)
	}
	for _, b := range s.blocks {
		note(b.maxTS)
	}
	if db.disk != nil {
		for _, c := range db.disk.chunksFor(ref.id, math.MinInt64, math.MaxInt64) {
			note(c.maxTS)
		}
	}
	return newest, ok
}

// downsampleSource folds a raw source into fixed epoch-aligned
// buckets reduced by fn, one bucket resident at a time. sum, avg, min,
// max and count fold in registers in arrival order — bit for bit what
// applyWith computes over the same values; percentiles and dev need
// the bucket's values side by side and gather them in the shared
// scratch.
type downsampleSource struct {
	src  pointSource
	ms   int64
	fn   Aggregator
	sc   *execScratch
	pend Point
	pOK  bool
	done bool
}

func (d *downsampleSource) next() (Point, bool, error) {
	if d.done {
		return Point{}, false, nil
	}
	p := d.pend
	if !d.pOK {
		var ok bool
		var err error
		if p, ok, err = d.src.next(); err != nil {
			return Point{}, false, err
		} else if !ok {
			d.done = true
			return Point{}, false, nil
		}
	}
	d.pOK = false
	bucket := p.Timestamp - p.Timestamp%d.ms
	gather := false
	switch d.fn {
	case AggSum, AggAvg, AggMin, AggMax, AggCount:
	default:
		gather = true
		d.sc.bucket = append(d.sc.bucket[:0], p.Value)
	}
	sum, lo, hi, n := 0.0+p.Value, p.Value, p.Value, 1
	for {
		p, ok, err := d.src.next()
		if err != nil {
			return Point{}, false, err
		}
		if !ok {
			d.done = true
			break
		}
		if b := p.Timestamp - p.Timestamp%d.ms; b != bucket {
			d.pend, d.pOK = p, true
			break
		}
		if gather {
			d.sc.bucket = append(d.sc.bucket, p.Value)
			continue
		}
		sum += p.Value
		if p.Value < lo {
			lo = p.Value
		}
		if p.Value > hi {
			hi = p.Value
		}
		n++
	}
	var v float64
	switch d.fn {
	case AggSum:
		v = sum
	case AggAvg:
		v = sum / float64(n)
	case AggMin:
		v = lo
	case AggMax:
		v = hi
	case AggCount:
		v = float64(n)
	default:
		v = d.fn.applyWith(d.sc.bucket, d.sc)
	}
	return Point{Timestamp: bucket, Value: v}, true, nil
}

// eachPoint streams everything a source yields to each; an error from
// each aborts and is returned unchanged.
func eachPoint(src pointSource, each func(Point) error) error {
	for {
		p, ok, err := src.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := each(p); err != nil {
			return err
		}
	}
}

// drainSource appends everything a source yields to out.
func drainSource(src pointSource, out []Point) ([]Point, error) {
	for {
		p, ok, err := src.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, p)
	}
}
