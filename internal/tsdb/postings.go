package tsdb

// Postings: every series lookup — a query's match, Metrics, the
// /api/stream catch-up scan and /api/suggest — reads one inverted
// index instead of walking every shard. The index keeps the set of
// series per metric and per (tag key, value), so matching a query
// costs the smallest of its postings, not the store's series count
// (label-based series identification, as in Prometheus' postings).
//
// Members are the *memSeries themselves: the index hands a match the
// series it reads without a shard lookup, and a retention drop removes
// exactly the series it killed, never a successor interned under the
// same metric and tags. A series' metric and tags are read from its
// Ref. A posting is a plain slice — eight bytes a member — appended to
// when a series is interned and compacted in one pass per posting
// when retention drops series.
//
// The index changes in exactly the two places a series enters or
// leaves a shard's list. internSlow adds the series while its shard
// lock is held (lock order shard → index). DeleteBeforeWhere marks the
// series it drops dead under the shard lock and removes them all once
// its pass is done, with no shard lock held; until then a match skips
// dead members, so it never sees a series its shard no longer holds,
// while Metrics and the suggest lists may still name a dropped
// series' metric or tags. Lookups take the index's read lock alone.

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

// posting lists the series carrying one metric or one tag, in no
// particular order.
type posting []*memSeries

type postings struct {
	mu       sync.RWMutex
	byMetric map[string]posting
	byTag    map[string]map[string]posting // tag key → value → series
}

func (ix *postings) init() {
	ix.byMetric = make(map[string]posting)
	ix.byTag = make(map[string]map[string]posting)
}

// add registers a series that just entered its shard's list. Caller
// holds the shard lock.
func (ix *postings) add(s *memSeries) {
	ix.mu.Lock()
	metric := s.ref.metric
	ix.byMetric[metric] = append(ix.byMetric[metric], s)
	for _, t := range s.ref.pairs {
		vals := ix.byTag[t.Key]
		if vals == nil {
			vals = make(map[string]posting)
			ix.byTag[t.Key] = vals
		}
		vals[t.Value] = append(vals[t.Value], s)
	}
	ix.mu.Unlock()
}

// remove drops series that retention took out of their shards' lists
// and marked dead, given by their handles. Each posting they were in
// is compacted once, keeping its live members.
func (ix *postings) remove(dead []*Ref) {
	if len(dead) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// Postings already compacted: a tag's by its pair, a metric's as
	// {"", metric} (tag keys are never empty).
	done := map[Tag]bool{}
	for _, ref := range dead {
		if !done[Tag{Value: ref.metric}] {
			done[Tag{Value: ref.metric}] = true
			compact(ix.byMetric, ref.metric)
		}
		for _, t := range ref.pairs {
			if !done[t] {
				done[t] = true
				vals := ix.byTag[t.Key]
				if compact(vals, t.Value); len(vals) == 0 {
					delete(ix.byTag, t.Key)
				}
			}
		}
	}
}

// compact drops the dead members of m[name], and the posting once it
// is empty, so nothing lists a name no stored series carries.
func compact(m map[string]posting, name string) {
	p := m[name]
	live := p[:0]
	for _, s := range p {
		if !s.ref.dead.Load() {
			live = append(live, s)
		}
	}
	clear(p[len(live):]) // no dead series kept reachable
	if len(live) == 0 {
		delete(m, name)
	} else {
		m[name] = live
	}
}

// match calls fn, under the read lock, for every live series of
// metric whose tags match filter. It walks the smallest of the
// metric's posting and each exact filter's, checking the rest with
// tagsMatch.
func (ix *postings) match(metric string, filter map[string]string, fn func(*memSeries)) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	cand := ix.byMetric[metric]
	for k, v := range filter {
		if p := ix.byTag[k][v]; v != "*" && len(p) < len(cand) {
			cand = p
		}
	}
	for _, s := range cand {
		if s.ref.metric == metric && tagsMatch(filter, s.ref.pairs) && !s.ref.dead.Load() {
			fn(s)
		}
	}
}

// Metrics lists the distinct metric names, sorted.
func (db *DB) Metrics() []string {
	return db.SuggestMetrics("", 0)
}

// SuggestMetrics lists stored metric names with the given prefix,
// sorted, at most max (0 = unlimited).
func (db *DB) SuggestMetrics(prefix string, max int) []string {
	db.idx.mu.RLock()
	out := appendPrefixed(nil, db.idx.byMetric, prefix)
	db.idx.mu.RUnlock()
	return sortedMax(out, max)
}

// SuggestTagKeys lists stored tag keys with the given prefix.
func (db *DB) SuggestTagKeys(prefix string, max int) []string {
	db.idx.mu.RLock()
	out := appendPrefixed(nil, db.idx.byTag, prefix)
	db.idx.mu.RUnlock()
	return sortedMax(out, max)
}

// SuggestTagValues lists stored tag values, under any key, with the
// given prefix.
func (db *DB) SuggestTagValues(prefix string, max int) []string {
	var out []string
	db.idx.mu.RLock()
	for _, vals := range db.idx.byTag {
		out = appendPrefixed(out, vals, prefix)
	}
	db.idx.mu.RUnlock()
	return sortedMax(out, max)
}

// appendPrefixed appends the names in m that start with prefix.
func appendPrefixed[V any](out []string, m map[string]V, prefix string) []string {
	for name := range m {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	return out
}

// sortedMax sorts names, drops repeats and keeps at most max of them
// (0 = all).
func sortedMax(names []string, max int) []string {
	sort.Strings(names)
	names = slices.Compact(names)
	if max > 0 && len(names) > max {
		names = names[:max]
	}
	if names == nil {
		names = []string{}
	}
	return names
}
