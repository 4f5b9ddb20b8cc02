package tsdb

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb/fsio"
)

// DB is the time-series store. It shards series across a fixed set of
// locks by the hash the registry interned them under, keeps a mutable
// head buffer per series, and seals full heads into Gorilla-compressed
// blocks. A series is known by its interned Ref (see intern.go): the
// shard holds its memSeries in a plain slice, nothing is keyed by a
// string, and writers reach the series through the Ref alone.
type DB struct {
	shards [numShards]shard
	reg    registry
	wal    *wal // nil when persistence is disabled
	idx    postings

	// walGate serializes WAL compaction (write lock) against in-flight
	// append+insert sequences (read lock), so a compaction snapshot can
	// never miss a point that was logged but not yet inserted. Taken
	// only when a WAL is attached.
	walGate sync.RWMutex

	// observers is a copy-on-write list so the write hot path can fan
	// points out (live stream, rollup engine, cache invalidation)
	// without taking a lock. obsMu serialises registration only.
	obsMu     sync.Mutex
	observers atomic.Pointer[[]*observerEntry]

	// planner, when installed, serves downsampled per-series reads
	// from pre-aggregated rollup tiers instead of raw block scans.
	planner atomic.Pointer[RollupPlanner]

	// pointsRead counts what read cursors were built over (PointsRead).
	pointsRead atomic.Int64

	// instr, when installed, receives per-stage ingest timings (see
	// instrument.go). Nil costs one atomic load on the batch path.
	instr atomic.Pointer[Instrumentation]

	// opts are the resolved open options; disk is the durable block
	// layer (nil when running in memory).
	opts Options
	disk *diskStore

	// replPos is the last committed replication position (see repl.go);
	// nil on a node that never applied a replicated record.
	replPos atomic.Pointer[ReplPos]

	// markersPending is set when a flush has appended a WAL marker but
	// the follow-up WAL truncation has not succeeded yet; the
	// compactor must not invalidate the marker's file references until
	// it clears.
	markersPending atomic.Bool

	// degraded is the sticky read-only state (see degrade.go); nil
	// while healthy. The *Fails counters track consecutive failures
	// toward the degrade thresholds, the *Errs counters are cumulative
	// totals for /metrics.
	degraded       atomic.Pointer[degradedState]
	walAppendFails atomic.Uint32
	flushFails     atomic.Uint32
	compactFails   atomic.Uint32
	walAppendErrs  atomic.Uint64
	walFsyncErrs   atomic.Uint64

	// sealed counts the chunks this process has encoded, per value
	// encoding (indexed by chunkEncoding) — the fallback share on
	// /metrics.
	sealed [2]struct{ chunks, points, bytes atomic.Int64 }

	// loopStop/loopWG manage the background flush+compact goroutine.
	loopStop chan struct{}
	loopWG   sync.WaitGroup
}

// Options configures OpenOptions. The zero value of every field picks
// a sensible default; a zero Dir disables persistence entirely.
type Options struct {
	// Dir is the data directory: the WAL lives at Dir/tsdb.wal and
	// block files under Dir/blocks, and a background flusher seals
	// cold data into block files and truncates the WAL. Empty keeps
	// everything in memory.
	Dir string

	// DurableBlocks is ignored: a non-empty Dir always enables block
	// files. The field is removed once the load harness stops setting
	// it.
	DurableBlocks bool

	// FlushAge is how old a point must be before a flush pass moves it
	// to disk (default 30m). Young data stays in memory so the flusher
	// never races active head churn.
	FlushAge time.Duration

	// FlushInterval is the background flush cadence (default 1m);
	// negative disables the background loop (FlushBlocks/CompactBlocks
	// remain callable).
	FlushInterval time.Duration

	// CompactInterval is the background compaction cadence (default
	// 10m).
	CompactInterval time.Duration

	// CompactMaxBytes bounds a compaction run's merged output size
	// (default 8 MiB).
	CompactMaxBytes int64

	// Partition is the time width of one block file partition (default
	// 24h); files never span partitions.
	Partition time.Duration

	// Now supplies the clock flush cutoffs are computed against
	// (default time.Now). Deployments replaying historic data inject
	// their simulated clock here.
	Now func() time.Time

	// FS is the filesystem the WAL and block layer run on (default
	// fsio.OS, the real one). Tests substitute a fault-injecting
	// implementation here.
	FS fsio.FS
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.FlushAge <= 0 {
		o.FlushAge = 30 * time.Minute
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = time.Minute
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = 10 * time.Minute
	}
	if o.CompactMaxBytes <= 0 {
		o.CompactMaxBytes = 8 << 20
	}
	if o.Partition <= 0 {
		o.Partition = 24 * time.Hour
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.FS == nil {
		o.FS = fsio.OS
	}
	return o
}

const (
	numShards = 16
	// headSealSize: points per head buffer before sealing to a block.
	// 256 points at 5-minute cadence ≈ 21 hours per block.
	headSealSize = 256
)

type shard struct {
	mu sync.RWMutex
	// series lists the shard's live series in interning order;
	// retention drops the ones it kills.
	series []*memSeries
}

type memSeries struct {
	ref    *Ref // the handle: identity, shard and liveness; retention kills it
	blocks []sealedBlock
	head   []Point // sorted by timestamp
}

func (s *memSeries) dead() bool { return s.ref.dead.Load() }

type sealedBlock struct {
	minTS, maxTS int64
	n            int
	data         []byte
}

// Open creates a DB with default options rooted at dir; an empty dir
// keeps everything in memory. See OpenOptions.
func Open(dir string) (*DB, error) {
	return OpenOptions(Options{Dir: dir})
}

// OpenOptions creates a DB per opts. With a data directory, block
// files are loaded first so WAL flush markers can validate against
// them, then the WAL replays whatever the block layer doesn't already
// hold.
func OpenOptions(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	db := &DB{opts: opts}
	db.idx.init()
	db.reg.init()
	if opts.Dir == "" {
		return db, nil
	}
	ds, err := db.openDiskStore(filepath.Join(opts.Dir, BlockDirName))
	if err != nil {
		return nil, err
	}
	ds.partMS = opts.Partition.Milliseconds()
	ds.maxMergeBytes = opts.CompactMaxBytes
	db.disk = ds
	w, err := openWAL(opts.Dir, opts.FS)
	if err != nil {
		ds.close()
		return nil, err
	}
	if err := db.replayWAL(w); err != nil {
		w.close()
		ds.close()
		return nil, err
	}
	db.wal = w
	if opts.FlushInterval > 0 {
		db.loopStop = make(chan struct{})
		db.loopWG.Add(1)
		// Supervised: a panic in a flush or compaction pass is logged
		// and the loop restarted with backoff instead of silently
		// losing background flushing for the process lifetime.
		go func() {
			defer db.loopWG.Done()
			obs.Supervised("tsdb-flush", nil, db.loopStop, func() {
				db.flushLoop(db.loopStop)
			})
		}()
	}
	return db, nil
}

// Close stops the background flusher, flushes and closes the WAL, and
// closes block file handles. It does not force a final flush: the WAL
// holds everything unflushed, so restart recovery is exact.
func (db *DB) Close() error {
	if db.loopStop != nil {
		close(db.loopStop)
		db.loopWG.Wait()
		db.loopStop = nil
	}
	var err error
	if db.wal != nil {
		err = db.wal.close()
	}
	if db.disk != nil {
		db.disk.close()
	}
	return err
}

// Sync forces WAL contents to stable storage. Any failure degrades
// the store immediately: after a rejected fsync the page cache can no
// longer be trusted to match the disk, so retrying (and acking) writes
// would risk silent loss.
func (db *DB) Sync() error {
	if db.wal == nil {
		return nil
	}
	if err := db.Degraded(); err != nil {
		return err
	}
	var err error
	if ins := db.instr.Load(); ins != nil {
		t0 := time.Now()
		err = db.wal.sync()
		ins.WALFsync.ObserveSince(t0)
	} else {
		err = db.wal.sync()
	}
	if err != nil {
		db.walFsyncErrs.Add(1)
		db.degrade(fmt.Errorf("wal sync: %w", err))
	}
	return err
}

// insertRef stores one point on its interned series, re-interning if
// retention removed the series after the caller resolved it.
func (db *DB) insertRef(rp RefPoint) {
	ref := rp.Ref
	for {
		sh := &db.shards[ref.shard]
		sh.mu.Lock()
		if !ref.dead.Load() {
			db.insertSeriesLocked(ref.s, rp.Point)
			sh.mu.Unlock()
			return
		}
		sh.mu.Unlock()
		ref = db.resurrect(ref)
	}
}

// insertSeriesLocked appends one point keeping the head sorted; most
// writes are appends. Caller holds the series' shard lock.
func (db *DB) insertSeriesLocked(s *memSeries, p Point) {
	if n := len(s.head); n == 0 || s.head[n-1].Timestamp <= p.Timestamp {
		s.head = append(s.head, p)
	} else {
		i := sort.Search(n, func(i int) bool { return s.head[i].Timestamp > p.Timestamp })
		s.head = append(s.head, Point{})
		copy(s.head[i+1:], s.head[i:])
		s.head[i] = p
	}
	if len(s.head) >= headSealSize {
		s.blocks = append(s.blocks, db.encodeSealed(s.head))
		// Keep the head array: an actively-written series reuses its
		// buffer every seal cycle instead of regrowing it from nil —
		// readers only ever see copies of the in-range head, never the
		// backing array.
		s.head = s.head[:0]
	}
}

// encodeSealed compresses sorted points into a sealed block value —
// the one place a chunk is encoded, whether by the head filling up, a
// flush or retention splitting a block, or a flush sealing a cold
// head.
func (db *DB) encodeSealed(pts []Point) sealedBlock {
	if len(pts) == 0 {
		return sealedBlock{}
	}
	data, enc := encodeBlock(pts)
	st := &db.sealed[enc]
	st.chunks.Add(1)
	st.points.Add(int64(len(pts)))
	st.bytes.Add(int64(len(data)))
	return sealedBlock{minTS: pts[0].Timestamp, maxTS: pts[len(pts)-1].Timestamp, n: len(pts), data: data}
}

// SealedStats counts the chunks a process has sealed under one value
// encoding since it started.
type SealedStats struct {
	Chunks, Points, Bytes int64
}

// SealedChunks reports what this process has sealed so far, split by
// the value encoding the data chose: exact decimals as scaled
// integers, everything else as Gorilla XOR.
func (db *DB) SealedChunks() (decimal, xor SealedStats) {
	load := func(enc chunkEncoding) SealedStats {
		st := &db.sealed[enc]
		return SealedStats{Chunks: st.chunks.Load(), Points: st.points.Load(), Bytes: st.bytes.Load()}
	}
	return load(encDecimal), load(encXOR)
}

// SeriesCount returns the number of distinct stored series.
func (db *DB) SeriesCount() int {
	n := 0
	for i := range db.shards {
		db.shards[i].mu.RLock()
		n += len(db.shards[i].series)
		db.shards[i].mu.RUnlock()
	}
	return n
}

// Refs returns the handle of every stored series, in no particular
// order — the walk a subscriber that keys state by series rebuilds it
// from at start.
func (db *DB) Refs() []*Ref {
	var out []*Ref
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			out = append(out, s.ref)
		}
		sh.mu.RUnlock()
	}
	return out
}

// PointCount returns the total number of stored points, including
// points flushed to disk.
func (db *DB) PointCount() int {
	n := 0
	if db.disk != nil {
		n += db.disk.pointCount()
	}
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			n += len(s.head)
			for _, b := range s.blocks {
				n += b.n
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// CompressedBytes reports the total size of sealed block data — the
// number the compression bench tracks.
func (db *DB) CompressedBytes() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			for _, b := range s.blocks {
				n += len(b.data)
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// SeriesWindowExact returns the raw points of the exact series
// identified by (metric, tags) — no filter semantics, the tag set
// must be the series' own — within [start, end]. A missing series
// yields a nil slice, not an error. This is the low-level read for
// callers that hold a series' name rather than its handle (ReadRef is
// the read by handle) and want none of Execute's matching and
// aggregation machinery.
func (db *DB) SeriesWindowExact(metric string, tags map[string]string, start, end int64) ([]Point, error) {
	ref := db.Lookup(metric, tags)
	if ref == nil {
		return nil, nil
	}
	return db.rawPoints(ref.s, &db.shards[ref.shard], start, end)
}

// ScanSeries streams the raw points of every series whose metric has
// the given prefix and whose tags match filter ("*" accepts any
// present value; an empty prefix matches every metric), one series at
// a time in display-key order (see Ref.Key) — the catch-up read
// /api/stream uses to replay a window of history without
// materializing more than one series' points. A non-nil error from
// yield aborts the scan and is returned unchanged.
func (db *DB) ScanSeries(metricPrefix string, filter map[string]string, start, end int64, yield func(series *Ref, pts []Point) error) error {
	// Collect matches first (pointers only) so yields run in a stable
	// order and without the index lock held.
	var ms []*memSeries
	for _, m := range db.SuggestMetrics(metricPrefix, 0) {
		db.idx.match(m, filter, func(s *memSeries) { ms = append(ms, s) })
	}
	slices.SortFunc(ms, func(a, b *memSeries) int { return compareSeries(a.ref, b.ref) })
	for _, s := range ms {
		pts, err := db.rawPoints(s, &db.shards[s.ref.shard], start, end)
		if err != nil {
			return err
		}
		if len(pts) == 0 {
			continue
		}
		if err := yield(s.ref, pts); err != nil {
			return err
		}
	}
	return nil
}

// rawPoints returns the series' points within [start, end], merging
// sealed blocks and head through the streaming cursor. Caller must
// NOT hold the shard lock.
func (db *DB) rawPoints(s *memSeries, sh *shard, start, end int64) ([]Point, error) {
	src, est, err := db.seriesSource(s, sh, start, end, nil)
	if err != nil {
		return nil, err
	}
	if est == 0 {
		return nil, nil
	}
	out, err := drainSource(src, make([]Point, 0, est))
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}
