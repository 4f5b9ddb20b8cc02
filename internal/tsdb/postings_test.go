package tsdb

// The postings index against the full-shard scans it replaced: a
// seeded random history of writes, retention, resurrection through
// stale handles, concurrent interning, flushes and a durable
// close/reopen, checked after every step for identical matches,
// metric lists, stream-scan order and suggest lists.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// refMatchGroups is matchGroups as it was before the postings index:
// every series of every shard, compared under the shard's read lock.
func refMatchGroups(db *DB, q Query) []*scanGroup {
	var groupBy []string
	for k, v := range q.Tags {
		if v == "*" {
			groupBy = append(groupBy, k)
		}
	}
	sort.Strings(groupBy)
	byKey := map[string]*scanGroup{}
	var groups []*scanGroup
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			if s.ref.metric != q.Metric || !tagsMatch(q.Tags, s.ref.pairs) {
				continue
			}
			gk := ""
			for _, k := range groupBy {
				v, _ := s.ref.Tag(k)
				gk += k + "=" + v + ";"
			}
			g := byKey[gk]
			if g == nil {
				g = &scanGroup{key: gk}
				byKey[gk] = g
				groups = append(groups, g)
			}
			g.members = append(g.members, matched{s, sh})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	for _, g := range groups {
		ms := g.members
		sort.Slice(ms, func(i, j int) bool { return ms[i].s.ref.Key() < ms[j].s.ref.Key() })
	}
	return groups
}

// refNames walks every shard for the distinct names name reports of a
// series (its metric, its tag keys or its tag values) with the given
// prefix, sorted, at most max — Metrics and the three Suggest lists as
// a scan computes them.
func refNames(db *DB, prefix string, max int, name func(s *memSeries) []string) []string {
	set := map[string]bool{}
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			for _, n := range name(s) {
				if strings.HasPrefix(n, prefix) {
					set[n] = true
				}
			}
		}
		sh.mu.RUnlock()
	}
	out := []string{}
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

func seriesMetric(s *memSeries) []string { return []string{s.ref.metric} }

func seriesTagKeys(s *memSeries) []string {
	var out []string
	for _, t := range s.ref.pairs {
		out = append(out, t.Key)
	}
	return out
}

func seriesTagValues(s *memSeries) []string {
	var out []string
	for _, t := range s.ref.pairs {
		out = append(out, t.Value)
	}
	return out
}

// refScanKeys is ScanSeries' old full-shard match: the keys of the
// series it yields, in yield order.
func refScanKeys(t *testing.T, db *DB, prefix string, filter map[string]string, start, end int64) []string {
	type match struct {
		s  *memSeries
		sh *shard
	}
	var keys []string
	byKey := map[string]match{}
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			if key := s.ref.Key(); strings.HasPrefix(s.ref.metric, prefix) && tagsMatch(filter, s.ref.pairs) {
				keys = append(keys, key)
				byKey[key] = match{s, sh}
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(keys)
	var out []string
	for _, key := range keys {
		pts, err := db.rawPoints(byKey[key].s, byKey[key].sh, start, end)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) > 0 {
			out = append(out, key)
		}
	}
	return out
}

var (
	parityMetrics = []string{"air.co2", "air.no2", "env.temp", "rollup.1h.air.co2", "rollup.1m.env.temp"}
	parityKeys    = []string{"sensor", "city", "stat", "site"}
	parityValues  = []string{"a", "b", "c", "node-1", "node-2"}
)

// randomSeries draws a metric and one to three tags.
func randomSeries(rng *rand.Rand) (string, map[string]string) {
	tags := map[string]string{}
	for n := 1 + rng.IntN(3); len(tags) < n; {
		tags[parityKeys[rng.IntN(len(parityKeys))]] = parityValues[rng.IntN(len(parityValues))]
	}
	return parityMetrics[rng.IntN(len(parityMetrics))], tags
}

// randomFilter draws a filter of zero to three keys, each exact, "*"
// or a key no series carries.
func randomFilter(rng *rand.Rand) map[string]string {
	f := map[string]string{}
	for n := rng.IntN(4); len(f) < n; {
		switch rng.IntN(6) {
		case 0:
			f[parityKeys[rng.IntN(len(parityKeys))]] = "*"
		case 1:
			f["missing"] = "*"
		default:
			f[parityKeys[rng.IntN(len(parityKeys))]] = parityValues[rng.IntN(len(parityValues))]
		}
	}
	return f
}

func randomTS(rng *rand.Rand) int64 { return baseTS + int64(rng.IntN(100))*60000 }

// checkPostingsParity compares every index reader with its full-scan
// reference over random queries.
func checkPostingsParity(t *testing.T, db *DB, rng *rand.Rand, step string) {
	t.Helper()
	for range 12 {
		metric := parityMetrics[rng.IntN(len(parityMetrics))]
		if rng.IntN(8) == 0 {
			metric = "absent.metric"
		}
		q := Query{Metric: metric, Tags: randomFilter(rng)}
		got, want := db.matchGroups(q), refMatchGroups(db, q)
		if len(got) != len(want) {
			t.Fatalf("%s: matchGroups(%s %v) = %d groups, reference %d", step, q.Metric, q.Tags, len(got), len(want))
		}
		for i := range want {
			if got[i].key != want[i].key || len(got[i].members) != len(want[i].members) {
				t.Fatalf("%s: matchGroups(%s %v) group %d = %q with %d members, reference %q with %d",
					step, q.Metric, q.Tags, i, got[i].key, len(got[i].members), want[i].key, len(want[i].members))
			}
			for j, m := range want[i].members {
				if g := got[i].members[j]; g != m {
					t.Fatalf("%s: matchGroups(%s %v) group %q member %d = %s (%p), reference %s (%p)",
						step, q.Metric, q.Tags, want[i].key, j, g.s.ref.Key(), g.s, m.s.ref.Key(), m.s)
				}
			}
		}

		prefix := metric[:rng.IntN(len(metric)+1)]
		start := randomTS(rng)
		end := start + int64(rng.IntN(100))*60000
		var scanned []string
		if err := db.ScanSeries(prefix, q.Tags, start, end, func(series *Ref, _ []Point) error {
			scanned = append(scanned, series.Key())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := refScanKeys(t, db, prefix, q.Tags, start, end); !reflect.DeepEqual(scanned, want) {
			t.Fatalf("%s: ScanSeries(%q, %v) yielded %v, reference %v", step, prefix, q.Tags, scanned, want)
		}
	}
	if got, want := db.Metrics(), refNames(db, "", 0, seriesMetric); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Metrics() = %v, reference %v", step, got, want)
	}
	for _, prefix := range []string{"", "a", "air.", "rollup.", "s", "node-", "zz"} {
		max := rng.IntN(3)
		for _, c := range []struct {
			name string
			got  []string
			of   func(*memSeries) []string
		}{
			{"SuggestMetrics", db.SuggestMetrics(prefix, max), seriesMetric},
			{"SuggestTagKeys", db.SuggestTagKeys(prefix, max), seriesTagKeys},
			{"SuggestTagValues", db.SuggestTagValues(prefix, max), seriesTagValues},
		} {
			if want := refNames(db, prefix, max, c.of); !reflect.DeepEqual(c.got, want) {
				t.Fatalf("%s: %s(%q, %d) = %v, reference %v", step, c.name, prefix, max, c.got, want)
			}
		}
	}
}

// TestPostingsParity: after every step of a seeded random history the
// postings index answers exactly what the full-shard scans answer.
func TestPostingsParity(t *testing.T) {
	seeds, steps := 8, 60
	if testing.Short() {
		seeds, steps = 3, 40
	}
	for seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(seed), 39))
			dir := t.TempDir()
			db := mustOpenDisk(t, dir)
			defer func() { db.Close() }()
			var refs []*Ref // handles kept across retention: some go stale
			write := func(db *DB, rng *rand.Rand, n int) []*Ref {
				var rps []RefPoint
				for range n {
					metric, tags := randomSeries(rng)
					ref, err := db.Intern(metric, tags)
					if err != nil {
						t.Error(err)
						return nil
					}
					rps = append(rps, RefPoint{Ref: ref, Point: Point{Timestamp: randomTS(rng), Value: float64(rng.IntN(100))}})
				}
				db.AppendRefs(rps)
				out := make([]*Ref, len(rps))
				for i, rp := range rps {
					out[i] = rp.Ref
				}
				return out
			}
			for step := range steps {
				var what string
				switch op := rng.IntN(10); {
				case op < 4:
					what = "write"
					refs = append(refs, write(db, rng, 1+rng.IntN(8))...)
				case op == 4:
					// Retention racing writers that intern new series and
					// resurrect dead ones through stale handles.
					what = "concurrent retention"
					var wg sync.WaitGroup
					var mu sync.Mutex
					stale := append([]*Ref(nil), refs...)
					for w := range 3 {
						wg.Add(1)
						wrng := rand.New(rand.NewPCG(uint64(seed), uint64(step*8+w)))
						go func() {
							defer wg.Done()
							fresh := write(db, wrng, 10)
							var rps []RefPoint
							for range 5 {
								if len(stale) > 0 {
									rps = append(rps, RefPoint{Ref: stale[wrng.IntN(len(stale))], Point: Point{Timestamp: randomTS(wrng), Value: 1}})
								}
							}
							db.AppendRefs(rps)
							mu.Lock()
							refs = append(refs, fresh...)
							mu.Unlock()
						}()
					}
					// A reader matching throughout: a series retention has
					// killed but not yet taken out of the postings must not
					// show beside the successor that resurrected it.
					done := make(chan struct{})
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							for _, m := range parityMetrics {
								for _, g := range db.matchGroups(Query{Metric: m}) {
									for j := 1; j < len(g.members); j++ {
										if prev, cur := g.members[j-1].s.ref.Key(), g.members[j].s.ref.Key(); prev >= cur {
											t.Errorf("matchGroups(%s) during retention: member %q after %q", m, cur, prev)
											return
										}
									}
								}
							}
							select {
							case <-done:
								return
							default:
							}
						}
					}()
					if _, err := db.DeleteBefore(randomTS(rng)); err != nil {
						t.Fatal(err)
					}
					close(done)
					wg.Wait()
				case op == 5:
					what = "retention"
					if _, err := db.DeleteBefore(randomTS(rng) + int64(rng.IntN(2))*100*60000); err != nil {
						t.Fatal(err)
					}
				case op == 6:
					what = "write through stale handles"
					var rps []RefPoint
					for range 4 {
						if len(refs) > 0 {
							rps = append(rps, RefPoint{Ref: refs[rng.IntN(len(refs))], Point: Point{Timestamp: randomTS(rng), Value: 2}})
						}
					}
					db.AppendRefs(rps)
				case op == 7:
					what = "flush"
					if _, err := db.FlushBlocks(); err != nil {
						t.Fatal(err)
					}
				case op == 8:
					what = "reopen"
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					db = mustOpenDisk(t, dir)
					refs = nil // handles of the closed store
				default:
					what = "retention by tier"
					if _, err := db.DeleteBeforeWhere(randomTS(rng), func(metric string) bool {
						return strings.HasPrefix(metric, "rollup.")
					}); err != nil {
						t.Fatal(err)
					}
				}
				checkPostingsParity(t, db, rng, fmt.Sprintf("step %d (%s)", step, what))
			}
		})
	}
}

// TestMatchSkipsDeadSeries: retention marks the series it drops dead
// under their shard locks and takes them out of the postings only at
// the end of its pass. In between, a successor interned under the same
// key shares the dead series' postings; a match must list the
// successor alone.
func TestMatchSkipsDeadSeries(t *testing.T) {
	db, _ := Open("")
	defer db.Close()
	tags := map[string]string{"sensor": "a"}
	old, err := db.Intern("air.co2", tags)
	if err != nil {
		t.Fatal(err)
	}
	// Retention's first half, as DeleteBeforeWhere does it.
	sh := &db.shards[old.shard]
	sh.mu.Lock()
	old.dead.Store(true)
	sh.series = slices.DeleteFunc(sh.series, (*memSeries).dead)
	sh.mu.Unlock()
	succ, err := db.Intern("air.co2", tags)
	if err != nil {
		t.Fatal(err)
	}
	if succ == old {
		t.Fatal("Intern returned the dead handle")
	}
	check := func(when string) {
		t.Helper()
		groups := db.matchGroups(Query{Metric: "air.co2", Tags: tags})
		if len(groups) != 1 || len(groups[0].members) != 1 || groups[0].members[0].s != succ.s {
			t.Fatalf("%s: matchGroups = %d groups, want the successor alone", when, len(groups))
		}
	}
	check("before removal")
	db.idx.remove([]*Ref{old})
	check("after removal")
	if n := len(db.idx.byMetric["air.co2"]); n != 1 {
		t.Fatalf("air.co2 posting holds %d series after removal, want 1", n)
	}
}
