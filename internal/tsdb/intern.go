package tsdb

// Series interning: the write hot path must absorb millions of points
// per minute, and almost every one of them addresses a series the
// store has already seen. The registry here resolves (metric, tags) to
// a stable *Ref exactly once per series: lookups hash the metric and
// tags with an order-independent mix (no sort, no allocation) and
// compare against the interned tags, so a previously-seen series
// resolves with one bucket probe and zero garbage.
//
// A series' identity is stored once, on its Ref: the metric and the
// tags sorted by key (a []Tag, in the manner of Prometheus'
// labels.Labels). There is no tag map and no key string; postings,
// queries, the WAL and block-file series tables, replication and the
// rollup engine all read the sorted tags, and the storage shard is
// taken from the same hash the registry buckets by. The Ref carries
// everything downstream stages need — SeriesID for the WAL dictionary
// and the rollup engine, the tags for observers, the storage shard and
// memSeries for the insert — so one resolution at the network edge
// serves the whole pipeline.

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// SeriesID identifies one interned series for the lifetime of the
// process. IDs are dense-ish but not persistent: a restart re-interns
// replayed series in WAL order and may assign different IDs.
type SeriesID uint64

// Tag is one tag of a series.
type Tag struct{ Key, Value string }

// Ref is an interned series handle — the stable resolution of one
// (metric, tags) pair. Refs are created by Intern/InternBytes and
// remain valid until the series is removed by retention; writes
// through a stale Ref transparently re-intern.
type Ref struct {
	id     SeriesID
	hash   uint64
	metric string
	// pairs are the series' tags sorted by key, each key once: the one
	// stored copy of its identity.
	pairs []Tag
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

// Tags returns the series' tags sorted by key. It is shared registry
// state: callers must treat it as read-only.
func (r *Ref) Tags() []Tag { return r.pairs }

// Tag returns the value of the series' tag key, and whether it has
// one.
func (r *Ref) Tag(key string) (string, bool) { return tagValue(r.pairs, key) }

// Key renders the series as metric{k1=v1,...}, for messages; nothing
// stores or compares it.
func (r *Ref) Key() string { return string(appendKey(nil, r.metric, r.pairs)) }

// Live reports whether the handle still addresses a stored series;
// false once retention removed it (a later write through the handle
// transparently re-interns, but subscribers keying state by ID — the
// rollup engine — use this to prune entries for dead series).
func (r *Ref) Live() bool { return !r.dead.Load() }

// tagValue finds key in tags sorted by key.
func tagValue(tags []Tag, key string) (string, bool) {
	i, ok := slices.BinarySearchFunc(tags, key, func(t Tag, k string) int { return cmp.Compare(t.Key, k) })
	if !ok {
		return "", false
	}
	return tags[i].Value, true
}

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

func pairHash(k, v string) uint64 {
	return fnvString(fnvByte(fnvString(fnvOffset64, k), kvSep), v)
}

func seriesHash(metric string, tags []Tag) uint64 {
	var pairs uint64
	for _, t := range tags {
		pairs += pairHash(t.Key, t.Value)
	}
	return fnvString(fnvOffset64, metric) + pairs*fnvPrime64
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

// maxInlineTags bounds the stack scratch the hit path captures tag
// pairs into; series with more tags fall back to looking each map
// entry up in the sorted tags. Real series carry a handful of tags.
const maxInlineTags = 8

// Intern resolves (metric, tags) to the series' interned handle,
// creating and validating it on first sight. The hit path performs no
// allocation and no validation — a series that interned once is valid
// forever — so edges can intern per point at negligible cost: one
// iteration over the tag map (hashing and capturing the pairs), a
// bucket probe, and plain string compares against the sorted tags.
// The caller keeps ownership of tags: the registry copies it when (and
// only when) the series is new.
func (db *DB) Intern(metric string, tags map[string]string) (*Ref, error) {
	if ref := db.Lookup(metric, tags); ref != nil {
		return ref, nil
	}
	pairs := make([]Tag, 0, len(tags))
	for k, v := range tags {
		pairs = append(pairs, Tag{k, v})
	}
	slices.SortFunc(pairs, func(a, b Tag) int { return cmp.Compare(a.Key, b.Key) })
	return db.internSlow(metric, pairs)
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
	var pairs uint64
	for k, v := range tags {
		pairs += pairHash(k, v)
		if small {
			kvs[n] = k
			kvs[n+1] = v
			n += 2
		}
	}
	h := fnvString(fnvOffset64, metric) + pairs*fnvPrime64

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
			if equalKVs(ref.pairs, kvs[:n]) {
				return ref
			}
		} else if equalMap(ref.pairs, tags) {
			return ref
		}
	}
	return nil
}

// InternBytes is Intern over raw byte fields — metric plus
// alternating key, value slices — so a wire parser or a decoder of
// stored series records can resolve a previously-seen series without
// materializing a single string. Strings are allocated only on the
// miss path, when the series is genuinely new. A key given more than
// once takes its last value.
func (db *DB) InternBytes(metric []byte, kvs [][]byte) (*Ref, error) {
	h := seriesHashBytes(metric, kvs)
	rs := &db.reg.shards[h&(regShardCount-1)]
	rs.mu.RLock()
	for _, ref := range rs.byHash[h] {
		if len(ref.pairs) == len(kvs)/2 && !ref.dead.Load() && ref.metric == string(metric) && equalKVs(ref.pairs, kvs) {
			rs.mu.RUnlock()
			return ref, nil
		}
	}
	rs.mu.RUnlock()
	pairs := make([]Tag, 0, len(kvs)/2)
	for i := 0; i+1 < len(kvs); i += 2 {
		pairs = append(pairs, Tag{string(kvs[i]), string(kvs[i+1])})
	}
	// Stable, so of a repeated key the last value sorts last and wins.
	slices.SortStableFunc(pairs, func(a, b Tag) int { return cmp.Compare(a.Key, b.Key) })
	canon := pairs[:0]
	for i, t := range pairs {
		if i+1 == len(pairs) || pairs[i+1].Key != t.Key {
			canon = append(canon, t)
		}
	}
	return db.internSlow(string(metric), canon)
}

// equalMap reports whether the sorted tags equal a candidate map of
// the same length.
func equalMap(canon []Tag, cand map[string]string) bool {
	for k, v := range cand {
		if cv, ok := tagValue(canon, k); !ok || cv != v {
			return false
		}
	}
	return true
}

// equalKVs compares the sorted tags against unordered alternating
// key, value fields of the same count — captured strings or raw wire
// bytes, whose conversions in the comparisons do not allocate.
// Quadratic in the tag count, which is tiny; every compare
// short-circuits on length. Duplicate keys in kvs (possible on a wire
// edge) fail here at worst and resolve through the dedup on the miss
// path.
func equalKVs[S string | []byte](canon []Tag, kvs []S) bool {
	for i := 0; i+1 < len(kvs); i += 2 {
		found := false
		for j := range canon {
			if canon[j].Key == string(kvs[i]) {
				if canon[j].Value != string(kvs[i+1]) {
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

// internSlow creates (or finds, losing a race) the interned series
// from its tags sorted by key, each key once, which it takes
// ownership of: validate, register in the registry bucket, then
// register the storage-side memSeries and its postings. Registry and
// storage shard locks are never held together — the retention path
// acquires them in the opposite order.
//
// The registry is keyed by the hash of the deduplicated tags,
// recomputed here rather than passed in: wire input with duplicate
// tag keys hashes differently at the lookup (each duplicate pair
// contributes), and registering under that alias hash would create a
// second Ref for an existing series — clobbering its storage slot.
// Recomputing makes every alias converge on the one entry; the
// aliased lookup just pays the slow path again.
func (db *DB) internSlow(metric string, pairs []Tag) (*Ref, error) {
	if err := validateSeries(metric, pairs); err != nil {
		return nil, err
	}
	h := seriesHash(metric, pairs)
	ref := &Ref{hash: h, metric: metric, pairs: pairs, shard: uint32(h % numShards)}
	ref.s = &memSeries{ref: ref}

	rs := &db.reg.shards[h&(regShardCount-1)]
	rs.mu.Lock()
	for _, other := range rs.byHash[h] {
		if other.metric == metric && !other.dead.Load() && slices.Equal(other.pairs, pairs) {
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
	sh.series = append(sh.series, ref.s)
	db.idx.add(ref.s)
	sh.mu.Unlock()
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
// same metric and tags, which the two share: neither ever changes.
func (db *DB) resurrect(ref *Ref) *Ref {
	next, err := db.internSlow(ref.metric, ref.pairs)
	if err != nil {
		// Impossible: the series validated when first interned and its
		// identity has not changed.
		panic(fmt.Sprintf("tsdb: re-intern of valid series failed: %v", err))
	}
	return next
}

// validateSeries checks a series' metric and tags (sorted by key) —
// applied once per interned series instead of once per point. Of
// several bad tags it names the one with the smallest key, so the
// same point gets the same message every time.
func validateSeries(metric string, pairs []Tag) error {
	if metric == "" {
		return ErrEmptyMetric
	}
	if !validName(metric) {
		return fmt.Errorf("%w: metric %q", ErrBadMetricChar, metric)
	}
	if len(pairs) == 0 {
		return ErrNoTags
	}
	for _, t := range pairs {
		if !validName(t.Key) || !validName(t.Value) {
			return fmt.Errorf("%w: tag %q=%q", ErrBadMetricChar, t.Key, t.Value)
		}
	}
	return nil
}
