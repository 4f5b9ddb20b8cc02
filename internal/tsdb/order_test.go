package tsdb

// Series order without key strings: the store keeps no
// metric{k=v,...} string, but every listing of series — a query's
// members, ScanSeries, the plan note, top-K ties — must keep the
// order those strings had, because member order fixes the bits of a
// cross-series sum. The strings compare "}", "=" and "," bytewise
// against name bytes, so the order differs from comparing tag by
// tag: value s10 sorts before s1 where it is the last tag, key k2
// before k, metric ord.sum.x before ord.sum.

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
)

// oldKey builds the metric{k1=v1,k2=v2} string series were once
// keyed and ordered by.
func oldKey(metric string, tags map[string]string) string {
	var b strings.Builder
	b.WriteString(metric + "{")
	for i, k := range sortedKeys(tags) {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k + "=" + tags[k])
	}
	return b.String() + "}"
}

type orderSeries struct {
	metric string
	tags   map[string]string
	value  float64
}

// orderSet: ord.sum's four members sum to 1 in old-key order and to 2
// in tag-by-tag order; ord.sum.x only takes part in scans; ord.tie's
// three series tie.
var orderSet = []orderSeries{
	{"ord.sum", map[string]string{"k": "s1"}, 1},
	{"ord.sum", map[string]string{"k": "s10"}, -1e16},
	{"ord.sum", map[string]string{"k2": "s1"}, 1e16},
	{"ord.sum", map[string]string{"k": "s1", "z": "q"}, 1},
	{"ord.sum.x", map[string]string{"k": "s1"}, 7},
	{"ord.tie", map[string]string{"k": "s1"}, 5},
	{"ord.tie", map[string]string{"k": "s10"}, 5},
	{"ord.tie", map[string]string{"k": "s2"}, 5},
}

// pairwiseLess is the naive order: metric, then tag by tag.
func pairwiseLess(a, b orderSeries) bool {
	if a.metric != b.metric {
		return a.metric < b.metric
	}
	ka, kb := sortedKeys(a.tags), sortedKeys(b.tags)
	for i := 0; i < len(ka) && i < len(kb); i++ {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
		if va, vb := a.tags[ka[i]], b.tags[kb[i]]; va != vb {
			return va < vb
		}
	}
	return len(ka) < len(kb)
}

func sortedKeys(tags map[string]string) []string {
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedBy returns the series match accepts in the order less gives.
func sortedBy(match func(orderSeries) bool, less func(a, b orderSeries) bool) []orderSeries {
	var out []orderSeries
	for _, s := range orderSet {
		if match(s) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func byOldKey(a, b orderSeries) bool { return oldKey(a.metric, a.tags) < oldKey(b.metric, b.tags) }

func TestSeriesOrderMatchesKeyStrings(t *testing.T) {
	db, _ := Open("")
	defer db.Close()
	for _, s := range orderSet {
		if err := put(db, DataPoint{Metric: s.metric, Tags: s.tags, Point: Point{Timestamp: baseTS, Value: s.value}}); err != nil {
			t.Fatal(err)
		}
	}
	isSum := func(s orderSeries) bool { return s.metric == "ord.sum" }

	// Execute: the members' values are added in old-key order.
	sum := func(members []orderSeries) float64 {
		v := 0.0
		for _, m := range members {
			v += m.value
		}
		return v
	}
	want := sum(sortedBy(isSum, byOldKey))
	if naive := sum(sortedBy(isSum, pairwiseLess)); math.Float64bits(naive) == math.Float64bits(want) {
		t.Fatalf("fixture does not tell the orders apart: both sum to %v", want)
	}
	q := Query{Metric: "ord.sum", Start: baseTS, End: baseTS, Aggregator: AggSum}
	res, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 1 || math.Float64bits(res[0].Points[0].Value) != math.Float64bits(want) {
		t.Fatalf("Execute = %+v, want one point of %v (the old-key order's sum)", res, want)
	}

	// The plan note lists the members in the same order.
	p, err := db.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	var notes []string
	for _, s := range sortedBy(isSum, byOldKey) {
		notes = append(notes, strings.TrimPrefix(oldKey(s.metric, s.tags), s.metric)+" raw est=1 (not downsampled)")
	}
	if got, want := p.String(), "ord.sum est=4 {"+strings.Join(notes, "; ")+"}"; got != want {
		t.Fatalf("plan note\n got %s\nwant %s", got, want)
	}

	// ScanSeries yields in old-key order, across metrics too.
	var scanned, wantScan []string
	if err := db.ScanSeries("ord.sum", nil, 0, math.MaxInt64, func(series *Ref, _ []Point) error {
		scanned = append(scanned, series.Key())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, s := range sortedBy(func(s orderSeries) bool { return strings.HasPrefix(s.metric, "ord.sum") }, byOldKey) {
		wantScan = append(wantScan, oldKey(s.metric, s.tags))
	}
	if !slices.Equal(scanned, wantScan) {
		t.Fatalf("ScanSeries order %v, want %v", scanned, wantScan)
	}

	// Top-K among tied scores keeps, and yields first, the series whose
	// old key sorts first.
	ties := sortedBy(func(s orderSeries) bool { return s.metric == "ord.tie" }, byOldKey)
	res, err = db.Execute(Query{Metric: "ord.tie", Tags: map[string]string{"k": "*"}, Start: baseTS, End: baseTS,
		Aggregator: AggAvg, SeriesLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, rs := range res {
		kept = append(kept, oldKey(rs.Metric, rs.Tags))
	}
	if want := []string{oldKey("ord.tie", ties[0].tags), oldKey("ord.tie", ties[1].tags)}; !slices.Equal(kept, want) {
		t.Fatalf("topk(2) over ties kept %v, want %v", kept, want)
	}
}

// TestCompareSeriesMatchesDisplayForm: on random series over an
// alphabet that straddles every separator byte, compareSeries agrees
// with comparing the built display forms.
func TestCompareSeriesMatchesDisplayForm(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 1))
	const alphabet = "-./09AZ_az"
	name := func() string {
		b := make([]byte, 1+rng.IntN(3))
		for i := range b {
			b[i] = alphabet[rng.IntN(len(alphabet))]
		}
		return string(b)
	}
	series := func() *Ref {
		tags := map[string]string{}
		for n := 1 + rng.IntN(3); len(tags) < n; {
			tags[name()] = name()
		}
		r := &Ref{metric: name()}
		for _, k := range sortedKeys(tags) {
			r.pairs = append(r.pairs, Tag{k, tags[k]})
		}
		return r
	}
	for range 20000 {
		a, b := series(), series()
		if got, want := compareSeries(a, b), strings.Compare(a.Key(), b.Key()); got != want {
			t.Fatalf("compareSeries(%s, %s) = %d, display forms compare %d", a.Key(), b.Key(), got, want)
		}
	}
}
