package tsdb

// Series interning: the write hot path must absorb millions of points
// per minute, and almost every one of them addresses a series the
// store has already seen. Building the canonical series key for each
// point — sorting tag keys, concatenating strings — costs more than
// the insert itself. The registry here resolves (metric, tags) to a
// stable *Ref exactly once per series: lookups hash the metric and
// tags with an order-independent mix (no sort, no key string, no
// allocation) and compare against the interned canonical copy, so a
// previously-seen series resolves with two map probes and zero
// garbage. The resolved Ref carries everything downstream stages need
// — SeriesID for the WAL dictionary and the rollup engine, the
// canonical tag map for observers, the storage shard and memSeries
// for the insert — so one resolution at the network edge serves the
// whole pipeline.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// SeriesID identifies one interned series for the lifetime of the
// process. IDs are dense-ish but not persistent: a restart re-interns
// replayed series in WAL order and may assign different IDs.
type SeriesID uint64

// Ref is an interned series handle — the stable resolution of one
// (metric, tags) pair. Refs are created by Intern/InternBytes and
// remain valid until the series is removed by retention; writes
// through a stale Ref transparently re-intern.
type Ref struct {
	id     SeriesID
	hash   uint64
	key    string
	metric string
	tags   map[string]string
	// pairs holds the same tags sorted by key: lookup equality checks
	// scan this slice instead of probing the map, so a hit costs
	// string compares only — no hashing of individual keys.
	pairs []tagPair
	shard uint32
	s     *memSeries

	// dead marks a Ref whose series was removed by retention; the
	// write path re-interns when it observes the flag. Set under the
	// owning storage shard lock, read both under it and (by the
	// registry) outside it.
	dead atomic.Bool
}

// ID returns the series' process-lifetime identifier.
func (r *Ref) ID() SeriesID { return r.id }

// Metric returns the series' metric name.
func (r *Ref) Metric() string { return r.metric }

// Tags returns the canonical tag map. It is shared registry state:
// callers must treat it as read-only.
func (r *Ref) Tags() map[string]string { return r.tags }

// Key returns the canonical series key (metric{k1=v1,...}).
func (r *Ref) Key() string { return r.key }

// Live reports whether the handle still addresses a stored series;
// false once retention removed it (a later write through the handle
// transparently re-interns, but subscribers keying state by ID — the
// rollup engine — use this to prune entries for dead series).
func (r *Ref) Live() bool { return !r.dead.Load() }

// RefPoint is a point addressed to an interned series — the compact
// form ingest queues and batch observers carry instead of a
// DataPoint with its per-point tag map.
type RefPoint struct {
	Ref *Ref
	Point
}

// regShardCount shards the registry so concurrent edges resolving
// different series rarely contend. Power of two for cheap masking.
const regShardCount = 128

type registry struct {
	nextID atomic.Uint64
	shards [regShardCount]regShard
}

type regShard struct {
	mu sync.RWMutex
	// byHash buckets interned refs by series hash; collisions (distinct
	// series, equal hash) share a bucket and are told apart by the
	// equality checks in lookup.
	byHash map[uint64][]*Ref
}

func (reg *registry) init() {
	for i := range reg.shards {
		reg.shards[i].byHash = make(map[uint64][]*Ref)
	}
}

// --- hashing -----------------------------------------------------------

// FNV-1a, primed per field; tag pairs are combined with addition so
// the hash is independent of map iteration (and wire) order. The
// string and byte-slice variants must stay bit-identical: the HTTP
// edge hashes a decoded map while the telnet edge hashes raw line
// fields, and both must land in the same bucket.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// kvSep folds a separator byte between key and value so
	// ("ab","c") and ("a","bc") hash apart.
	kvSep = 0xfe
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime64
	}
	return h
}

func fnvByte(h uint64, c byte) uint64 {
	return (h ^ uint64(c)) * fnvPrime64
}

func seriesHash(metric string, tags map[string]string) uint64 {
	h := fnvString(fnvOffset64, metric)
	var pairs uint64
	for k, v := range tags {
		ph := fnvString(fnvOffset64, k)
		ph = fnvByte(ph, kvSep)
		ph = fnvString(ph, v)
		pairs += ph
	}
	return h + pairs*fnvPrime64
}

// seriesHashBytes is seriesHash over raw byte fields: metric plus
// alternating key, value slices.
func seriesHashBytes(metric []byte, kvs [][]byte) uint64 {
	h := fnvBytes(fnvOffset64, metric)
	var pairs uint64
	for i := 0; i+1 < len(kvs); i += 2 {
		ph := fnvBytes(fnvOffset64, kvs[i])
		ph = fnvByte(ph, kvSep)
		ph = fnvBytes(ph, kvs[i+1])
		pairs += ph
	}
	return h + pairs*fnvPrime64
}

// --- resolution --------------------------------------------------------

// tagPair is one canonical tag; Refs keep them sorted by key.
type tagPair struct{ k, v string }

// maxInlineTags bounds the stack scratch the hit path captures tag
// pairs into; series with more tags fall back to map-probing
// equality. Real series carry a handful of tags.
const maxInlineTags = 8

// Intern resolves (metric, tags) to the series' interned handle,
// creating and validating it on first sight. The hit path performs no
// allocation and no validation — a series that interned once is valid
// forever — so edges can intern per point at negligible cost: one
// iteration over the tag map (hashing and capturing the pairs), a
// bucket probe, and plain string compares against the canonical
// pairs. The caller keeps ownership of tags: the registry copies it
// when (and only when) the series is new.
func (db *DB) Intern(metric string, tags map[string]string) (*Ref, error) {
	if ref := db.Lookup(metric, tags); ref != nil {
		return ref, nil
	}
	return db.internSlow(metric, tags)
}

// Lookup is Intern's hit path alone: the live handle of a series that
// exists, nil for one that does not — a read must not create the
// series it asks about.
func (db *DB) Lookup(metric string, tags map[string]string) *Ref {
	// Hash and capture in one pass so equality below never re-probes
	// the candidate map.
	var kvs [2 * maxInlineTags]string
	n := 0
	small := len(tags) <= maxInlineTags
	h := fnvString(fnvOffset64, metric)
	var pairs uint64
	for k, v := range tags {
		ph := fnvString(fnvOffset64, k)
		ph = fnvByte(ph, kvSep)
		ph = fnvString(ph, v)
		pairs += ph
		if small {
			kvs[n] = k
			kvs[n+1] = v
			n += 2
		}
	}
	h += pairs * fnvPrime64

	rs := &db.reg.shards[h&(regShardCount-1)]
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	for _, ref := range rs.byHash[h] {
		// A dead ref (series removed by retention, not yet swept from
		// the bucket) must not be handed out: resolving it again would
		// spin the writer until the sweep.
		if ref.metric != metric || len(ref.pairs) != len(tags) || ref.dead.Load() {
			continue
		}
		if small {
			if equalKVStrings(ref.pairs, kvs[:n]) {
				return ref
			}
		} else if tagsEqualMap(ref.tags, tags) {
			return ref
		}
	}
	return nil
}

// InternBytes is Intern over raw byte fields — metric plus
// alternating key, value slices — so a wire parser can resolve a
// previously-seen series without materializing a single string or
// map. Strings are allocated only on the miss path, when the series
// is genuinely new.
func (db *DB) InternBytes(metric []byte, kvs [][]byte) (*Ref, error) {
	h := seriesHashBytes(metric, kvs)
	rs := &db.reg.shards[h&(regShardCount-1)]
	rs.mu.RLock()
	for _, ref := range rs.byHash[h] {
		if len(ref.pairs) == len(kvs)/2 && !ref.dead.Load() && ref.metric == string(metric) && equalKVBytes(ref.pairs, kvs) {
			rs.mu.RUnlock()
			return ref, nil
		}
	}
	rs.mu.RUnlock()
	tags := make(map[string]string, len(kvs)/2)
	for i := 0; i+1 < len(kvs); i += 2 {
		tags[string(kvs[i])] = string(kvs[i+1])
	}
	return db.internSlow(string(metric), tags)
}

// tagsEqualMap reports whether the canonical map equals the candidate
// map. Duplicate-free maps of equal length with every candidate pair
// present are equal sets.
func tagsEqualMap(canon, cand map[string]string) bool {
	if len(canon) != len(cand) {
		return false
	}
	for k, v := range cand {
		if cv, ok := canon[k]; !ok || cv != v {
			return false
		}
	}
	return true
}

// equalKVStrings compares the canonical sorted pairs against captured
// unordered key/value strings of the same count. Quadratic in the tag
// count, which is tiny; every compare short-circuits on length.
func equalKVStrings(canon []tagPair, kvs []string) bool {
	for i := 0; i < len(kvs); i += 2 {
		k, v := kvs[i], kvs[i+1]
		found := false
		for j := range canon {
			if canon[j].k == k {
				if canon[j].v != v {
					return false
				}
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// equalKVBytes is equalKVStrings over raw byte fields. The string
// conversions in the comparisons do not allocate. Duplicate keys in
// kvs (possible on a wire edge) fail here at worst and resolve
// through the dedup on the miss path.
func equalKVBytes(canon []tagPair, kvs [][]byte) bool {
	for i := 0; i+1 < len(kvs); i += 2 {
		found := false
		for j := range canon {
			if canon[j].k == string(kvs[i]) {
				if canon[j].v != string(kvs[i+1]) {
					return false
				}
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// internSlow creates (or finds, losing a race) the interned series:
// validate, canonicalize, register in the registry bucket, then
// register the storage-side memSeries and suggest index entries.
// Registry and storage shard locks are never held together — the
// retention path acquires them in the opposite order.
//
// The registry is keyed by the hash of the CANONICAL tag set,
// recomputed here rather than passed in: wire input with duplicate
// tag keys hashes differently at the lookup (each duplicate pair
// contributes), and registering under that alias hash would create a
// second Ref for an existing series — clobbering its storage slot.
// Recomputing makes every alias converge on the one canonical entry;
// the aliased lookup just pays the slow path again.
func (db *DB) internSlow(metric string, tags map[string]string) (*Ref, error) {
	if err := validateSeries(metric, tags); err != nil {
		return nil, err
	}
	canon := make(map[string]string, len(tags))
	for k, v := range tags {
		canon[k] = v
	}
	h := seriesHash(metric, canon)
	key := seriesKey(metric, canon)
	sorted := make([]tagPair, 0, len(canon))
	for k, v := range canon {
		sorted = append(sorted, tagPair{k, v})
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].k < sorted[j].k })
	ref := &Ref{
		hash:   h,
		key:    key,
		metric: metric,
		tags:   canon,
		pairs:  sorted,
		shard:  shardFor(key),
	}
	ref.s = &memSeries{metric: metric, tags: canon, ref: ref}

	rs := &db.reg.shards[h&(regShardCount-1)]
	rs.mu.Lock()
	for _, other := range rs.byHash[h] {
		if other.metric == metric && !other.dead.Load() && tagsEqualMap(other.tags, tags) {
			rs.mu.Unlock()
			return other, nil // lost the creation race
		}
	}
	ref.id = SeriesID(db.reg.nextID.Add(1))
	rs.byHash[h] = append(rs.byHash[h], ref)
	rs.mu.Unlock()

	// Storage registration: the series becomes visible to queries (and
	// countable) immediately, possibly with an empty head for an
	// instant until the first insert lands.
	sh := &db.shards[ref.shard]
	sh.mu.Lock()
	sh.series[key] = ref.s
	sh.mu.Unlock()
	db.idx.addSeries(metric, canon)
	return ref, nil
}

// dropRef removes a retention-killed ref from its registry bucket.
// Identity comparison: a resurrection may already have interned a new
// ref for the same series, which must survive.
func (db *DB) dropRef(ref *Ref) {
	rs := &db.reg.shards[ref.hash&(regShardCount-1)]
	rs.mu.Lock()
	bucket := rs.byHash[ref.hash]
	for i, r := range bucket {
		if r == ref {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			if len(bucket) == 0 {
				delete(rs.byHash, ref.hash)
			} else {
				rs.byHash[ref.hash] = bucket
			}
			break
		}
	}
	rs.mu.Unlock()
}

// resurrect replaces a dead ref (its series was removed by retention
// after the caller resolved it) with a live interned handle for the
// same metric and tags.
func (db *DB) resurrect(ref *Ref) *Ref {
	next, err := db.Intern(ref.metric, ref.tags)
	if err != nil {
		// Impossible: the series validated when first interned and the
		// canonical fields have not changed.
		panic(fmt.Sprintf("tsdb: re-intern of valid series failed: %v", err))
	}
	return next
}

// validateSeries checks a series' metric and tag names — applied once
// per interned series instead of once per point.
func validateSeries(metric string, tags map[string]string) error {
	if metric == "" {
		return ErrEmptyMetric
	}
	if !validName(metric) {
		return fmt.Errorf("%w: metric %q", ErrBadMetricChar, metric)
	}
	if len(tags) == 0 {
		return ErrNoTags
	}
	// Of several bad tags, name the smallest key: the same point gets
	// the same message every time, whatever the map's order.
	bad, found := "", false
	for k, v := range tags {
		if (!validName(k) || !validName(v)) && (!found || k < bad) {
			bad, found = k, true
		}
	}
	if found {
		return fmt.Errorf("%w: tag %q=%q", ErrBadMetricChar, bad, tags[bad])
	}
	return nil
}
