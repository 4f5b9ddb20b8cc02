package api

// queryCache is a small LRU over marshaled query responses. Entries
// are keyed on the canonical query string with the time range aligned
// to Config.CacheAlign. On top of that staleness bound, the cache is
// actively invalidated: every write landing in the store drops the
// entries whose metric and time range cover the written point, so a
// dashboard polling a range that just received data re-reads the
// store instead of serving the stale bucket. One entry serves both
// encodings: the plain body is stored at fill time, its gzip variant
// on the first hit that asks for it, and they leave together.

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Byte bounds: entries bigger than maxCacheBody are never cached, and
// total retained bytes (plain and gzip variants together) stay under
// maxCacheBytes — the entry-count cap alone would let a few huge
// result bodies pin unbounded memory.
const (
	maxCacheBody  = 1 << 20  // 1 MiB per entry
	maxCacheBytes = 64 << 20 // 64 MiB total
)

type queryCache struct {
	mu      sync.Mutex
	cap     int
	bytes   int
	entries map[string]*list.Element
	order   *list.List // front = most recent
	// byMetric indexes live entries by each metric they cover, so
	// per-point invalidation only scans entries that could match.
	byMetric map[string]map[*list.Element]struct{}
	// fills tracks in-flight cache fills by metric. A query registers
	// its metrics and range here before it reads the store; a write
	// landing inside that range poisons the fill, and a poisoned fill
	// is discarded instead of inserted. Without this, a look-aside
	// race goes permanent: the store read happens before a write
	// commits, the write's invalidation finds no entry to drop, the
	// stale body is inserted after — and if no further write touches
	// that metric, every later query hits the stale entry forever.
	fills map[string]map[*cacheFill]struct{}
	// count mirrors len(entries) so invalidate — called for every
	// stored point — skips the mutex entirely while the cache is
	// empty (the common state during bulk ingest). fillCount does the
	// same for in-flight fills.
	count       atomic.Int64
	fillCount   atomic.Int64
	hits        atomic.Uint64
	misses      atomic.Uint64
	invalidated atomic.Uint64
}

// cacheFill is one in-flight fill registration. All fields are
// guarded by queryCache.mu after construction.
type cacheFill struct {
	start, end int64
	metrics    []string
	poisoned   bool
	done       bool
}

// cacheEntry is immutable once inserted, except for gz (guarded by
// queryCache.mu): a re-put installs a new entry, so a reader holding
// one outside the lock can tell by identity whether it is still live.
type cacheEntry struct {
	key  string
	body []byte
	gz   []byte // gzip of body; nil until the first gzip hit
	// start/end bound the cached query's time range (ms); metrics
	// lists the metrics it touched — what invalidation matches on.
	start, end int64
	metrics    []string
}

// newQueryCache returns a cache holding up to capacity entries;
// capacity <= 0 disables caching (every get misses, put is a no-op).
func newQueryCache(capacity int) *queryCache {
	return &queryCache{
		cap:      capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		byMetric: make(map[string]map[*list.Element]struct{}),
		fills:    make(map[string]map[*cacheFill]struct{}),
	}
}

// beginFill registers an intent to cache a result covering metrics
// over [start, end] (ms). Call before the first store read; pass the
// token to put, and endFill it on every other exit path. Returns nil
// when caching is disabled.
func (c *queryCache) beginFill(start, end int64, metrics []string) *cacheFill {
	if c.cap <= 0 {
		return nil
	}
	f := &cacheFill{start: start, end: end, metrics: metrics}
	c.mu.Lock()
	for _, m := range metrics {
		set, ok := c.fills[m]
		if !ok {
			set = make(map[*cacheFill]struct{})
			c.fills[m] = set
		}
		set[f] = struct{}{}
	}
	c.fillCount.Add(1)
	c.mu.Unlock()
	return f
}

// endFill deregisters a fill without inserting anything (the abandon
// path). Safe on nil and after put already consumed the token.
func (c *queryCache) endFill(f *cacheFill) {
	if f == nil {
		return
	}
	c.mu.Lock()
	c.dropFill(f)
	c.mu.Unlock()
}

// dropFill deregisters f once. Caller holds c.mu.
func (c *queryCache) dropFill(f *cacheFill) {
	if f.done {
		return
	}
	f.done = true
	for _, m := range f.metrics {
		if set, ok := c.fills[m]; ok {
			delete(set, f)
			if len(set) == 0 {
				delete(c.fills, m)
			}
		}
	}
	c.fillCount.Add(-1)
}

// get returns the cached response bytes for key in the requested
// encoding. The first gzip hit on an entry compresses its body —
// outside the lock, and not at fill time, which would be pure cost for
// a fill invalidated before it is ever hit — and keeps the result only
// if the entry is still live, so an invalidate or re-put in between
// wins.
func (c *queryCache) get(key string, gz bool) ([]byte, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	e := el.Value.(*cacheEntry)
	zbody := e.gz
	c.mu.Unlock()
	if !gz {
		return e.body, true
	}
	if zbody != nil {
		return zbody, true
	}
	zbody = gzipBytes(e.body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry) == e && e.gz == nil {
		e.gz = zbody
		c.bytes += len(zbody)
		c.evict()
	}
	return zbody, true
}

// put inserts a result body, consuming the fill token from beginFill.
// The poison check and the insert happen under one lock hold, so an
// invalidation can never land between them.
func (c *queryCache) put(key string, body []byte, start, end int64, metrics []string, f *cacheFill) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clean := f == nil || !f.poisoned
	if f != nil {
		c.dropFill(f)
	}
	if !clean || len(body) > maxCacheBody {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.remove(el)
	}
	e := &cacheEntry{key: key, body: body, start: start, end: end, metrics: metrics}
	el := c.order.PushFront(e)
	c.entries[key] = el
	c.index(el, e)
	c.bytes += len(body)
	c.evict()
}

// evict drops entries from the back until both bounds hold. Caller
// holds c.mu.
func (c *queryCache) evict() {
	for len(c.entries) > c.cap || c.bytes > maxCacheBytes {
		c.remove(c.order.Back())
	}
	c.count.Store(int64(len(c.entries)))
}

// invalidate drops every entry whose query covered metric at time
// tsMS, and poisons every in-flight fill it would have dropped had it
// already been inserted. Called from the store's write observer for
// each stored point.
func (c *queryCache) invalidate(metric string, tsMS int64) {
	if c.cap <= 0 || (c.count.Load() == 0 && c.fillCount.Load() == 0) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for f := range c.fills[metric] {
		if f.start <= tsMS && tsMS <= f.end {
			f.poisoned = true
		}
	}
	set, ok := c.byMetric[metric]
	if !ok {
		return
	}
	var doomed []*list.Element
	for el := range set {
		e := el.Value.(*cacheEntry)
		if e.start <= tsMS && tsMS <= e.end {
			doomed = append(doomed, el)
		}
	}
	for _, el := range doomed {
		c.remove(el)
		c.invalidated.Add(1)
	}
	c.count.Store(int64(len(c.entries)))
}

// remove drops one entry. Caller holds c.mu.
func (c *queryCache) remove(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.order.Remove(el)
	c.bytes -= len(e.body) + len(e.gz)
	delete(c.entries, e.key)
	c.unindex(el, e)
}

func (c *queryCache) index(el *list.Element, e *cacheEntry) {
	for _, m := range e.metrics {
		set, ok := c.byMetric[m]
		if !ok {
			set = make(map[*list.Element]struct{})
			c.byMetric[m] = set
		}
		set[el] = struct{}{}
	}
}

func (c *queryCache) unindex(el *list.Element, e *cacheEntry) {
	for _, m := range e.metrics {
		if set, ok := c.byMetric[m]; ok {
			delete(set, el)
			if len(set) == 0 {
				delete(c.byMetric, m)
			}
		}
	}
}

func (c *queryCache) stats() (hits, misses, invalidated uint64) {
	return c.hits.Load(), c.misses.Load(), c.invalidated.Load()
}

// size reports the live entry count and the bytes they retain, plain
// and gzip variants together.
func (c *queryCache) size() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}
