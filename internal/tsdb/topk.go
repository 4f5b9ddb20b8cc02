package tsdb

// Server-side topk/bottomk: Query.SeriesLimit keeps only the K result
// series ranking highest (or lowest) by score. Ranking is lazy: a
// group's score is folded straight off its member cursor — served
// from rollup tier statistics (sums/counts) when a tier covers the
// range, so selection touches no member points — and only the K
// winning groups are ever materialized into result series. Groups
// that need cross-series aggregation or rate conversion fall back to
// a full reduction for scoring. Selection runs on a bounded heap, so
// retention is O(K); peak residency adds the one group being scored,
// never the whole fan-out.

import (
	"container/heap"
	"math"
	"sort"
	"time"
)

// SeriesScore ranks a result series for topk/bottomk selection: the
// arithmetic mean of its result points, computed after downsampling,
// cross-series aggregation and rate conversion. Exported so reference
// implementations (tests, clients predicting selection) rank exactly
// like the engine. An empty series scores NaN and is never selected.
func SeriesScore(pts []Point) float64 {
	if len(pts) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, p := range pts {
		s += p.Value
	}
	return s / float64(len(pts))
}

// scoredGroup is one group's rank entry. rs is only populated when
// scoring required a full reduction (full=true); cheaply-scored
// winners materialize after selection.
type scoredGroup struct {
	g     *scanGroup // its key is the deterministic tie-break
	rs    ResultSeries
	full  bool
	score float64
}

// limitHeap is a bounded heap of the K best groups seen so far. The
// root is always the *worst* retained entry, so a better candidate
// replaces it in O(log K). worse() defines "worst" for the requested
// direction (topk evicts the lowest score, bottomk the highest).
type limitHeap struct {
	entries []scoredGroup
	lowest  bool // bottomk: keep lowest scores
}

func (h *limitHeap) Len() int { return len(h.entries) }

// Less orders by "worse first": the heap root is the eviction victim.
func (h *limitHeap) Less(i, j int) bool {
	return h.worse(h.entries[i], h.entries[j])
}

// worse reports whether a ranks strictly worse than b for retention.
// Ties on score break on group key so selection is deterministic: the
// lexicographically later key is evicted first.
func (h *limitHeap) worse(a, b scoredGroup) bool {
	if a.score != b.score {
		if h.lowest {
			return a.score > b.score
		}
		return a.score < b.score
	}
	return a.g.key > b.g.key
}

func (h *limitHeap) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *limitHeap) Push(x any)    { h.entries = append(h.entries, x.(scoredGroup)) }
func (h *limitHeap) Pop() any {
	old := h.entries
	n := len(old)
	x := old[n-1]
	h.entries = old[:n-1]
	return x
}

// streamLimited runs topk/bottomk selection over the grouped matches
// and yields the K winners best-first. Candidates are scored in
// group-key order, so selection is deterministic.
func (db *DB) streamLimited(q Query, groups []*scanGroup, sc *execScratch, yield func(ResultSeries) error) error {
	h := &limitHeap{lowest: q.LimitLowest}
	for _, g := range groups {
		var t0 time.Time
		if q.Trace != nil {
			t0 = time.Now()
		}
		cand, err := db.scoreGroup(q, g, sc)
		if q.Trace != nil {
			q.Trace.Stage("group_reduce").Add(time.Since(t0))
		}
		if err != nil {
			return err
		}
		if math.IsNaN(cand.score) {
			continue // empty series (e.g. rate over one point) never rank
		}
		if h.Len() < q.SeriesLimit {
			heap.Push(h, cand)
		} else if h.worse(h.entries[0], cand) {
			h.entries[0] = cand
			heap.Fix(h, 0)
		}
	}
	// Yield best-first: sort the survivors by rank (best = what worse()
	// orders last), materializing the lazily-scored winners now — only
	// K reductions, each typically rollup-served.
	winners := h.entries
	sort.Slice(winners, func(i, j int) bool { return h.worse(winners[j], winners[i]) })
	for _, w := range winners {
		rs := w.rs
		if !w.full {
			var ok bool
			var err error
			rs, ok, err = db.timedGroupSeries(q, w.g, sc)
			if err != nil {
				return err
			}
			if !ok {
				continue // aged out since scoring (concurrent retention)
			}
		}
		if err := yield(rs); err != nil {
			return err
		}
	}
	return nil
}

// scoreGroup ranks one candidate group; an empty one scores NaN.
func (db *DB) scoreGroup(q Query, g *scanGroup, sc *execScratch) (scoredGroup, error) {
	if len(g.members) == 1 && !q.Rate {
		// Single-member, non-rate group: the result series is the
		// member's post-downsample stream unchanged, so its score
		// folds straight off the cursor — rollup tier statistics
		// when the planner covers the range, the fused decode
		// path otherwise. Nothing is materialized.
		sum, n := 0.0, 0
		err := db.memberEach(g.members[0], q, sc, func(p Point) error {
			sum += p.Value
			n++
			return nil
		})
		if err != nil || n == 0 {
			return scoredGroup{g: g, score: math.NaN()}, err
		}
		return scoredGroup{g: g, score: sum / float64(n)}, nil
	}
	rs, ok, err := db.groupSeries(q, g.members, g.tags, sc)
	if err != nil || !ok {
		return scoredGroup{g: g, score: math.NaN()}, err
	}
	return scoredGroup{g: g, rs: rs, full: true, score: SeriesScore(rs.Points)}, nil
}
