package tsdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestInternStable: repeated interning of the same series — through
// the map path, the byte path, and across tag orderings — resolves to
// the one handle, and the two hash variants agree bit for bit.
func TestInternStable(t *testing.T) {
	db := mustOpen(t)
	tags := map[string]string{"sensor": "n01", "city": "trondheim"}
	a, err := db.Intern("air.co2", tags)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Intern("air.co2", map[string]string{"city": "trondheim", "sensor": "n01"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same series interned twice")
	}
	c, err := db.InternBytes([]byte("air.co2"), [][]byte{
		[]byte("city"), []byte("trondheim"), []byte("sensor"), []byte("n01"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatal("byte-path interning resolved a different handle")
	}
	if h1, h2 := seriesHash("air.co2", tags), seriesHashBytes([]byte("air.co2"),
		[][]byte{[]byte("sensor"), []byte("n01"), []byte("city"), []byte("trondheim")}); h1 != h2 {
		t.Fatalf("hash variants disagree: %x vs %x", h1, h2)
	}
	if h1, h2 := seriesHash("air.co2", tags), a.hash; h1 != h2 {
		t.Fatalf("interned hash %x != seriesHash %x", h2, h1)
	}
	if a.Key() != (Series{Metric: "air.co2", Tags: tags}).Key() {
		t.Fatalf("canonical key mismatch: %q", a.Key())
	}
	if a.ID() == 0 {
		t.Fatal("SeriesID must be nonzero")
	}
	// Distinct series must not collide on the handle even with
	// adversarial key/value splits.
	d, err := db.Intern("air.co2", map[string]string{"sensor": "n0", "city": "1trondheim"})
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("distinct series shared a handle")
	}
}

// TestInternDuplicateKeyAlias: wire input repeating a tag key hashes
// differently from the canonical series (each duplicate pair
// contributes), but must still resolve to the one interned handle —
// never register a second Ref that clobbers the series' storage slot.
func TestInternDuplicateKeyAlias(t *testing.T) {
	db := mustOpen(t)
	ref, err := db.Intern("dup.m", map[string]string{"a": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if res := db.AppendRefs([]RefPoint{{Ref: ref, Point: Point{Timestamp: 1000, Value: 7}}}); len(res.Errors) > 0 {
		t.Fatal(res.Errors[0].Err)
	}
	alias, err := db.InternBytes([]byte("dup.m"), [][]byte{
		[]byte("a"), []byte("1"), []byte("a"), []byte("1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if alias != ref {
		t.Fatal("duplicate-key alias interned a second handle for the same series")
	}
	if got := db.PointCount(); got != 1 {
		t.Fatalf("stored data lost through alias interning: %d points", got)
	}
	// Last-wins on conflicting duplicates, like a JSON/map decode.
	conflict, err := db.InternBytes([]byte("dup.m"), [][]byte{
		[]byte("a"), []byte("0"), []byte("a"), []byte("1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if conflict != ref {
		t.Fatal("conflicting duplicate keys must dedup last-wins to the canonical series")
	}
}

// TestInternValidation: the miss path checks the metric and tag names.
func TestInternValidation(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Intern("", map[string]string{"a": "b"}); err == nil {
		t.Fatal("empty metric interned")
	}
	if _, err := db.Intern("m", nil); err == nil {
		t.Fatal("tagless series interned")
	}
	if _, err := db.Intern("m", map[string]string{"bad key": "v"}); err == nil {
		t.Fatal("invalid tag interned")
	}
	if _, err := db.InternBytes([]byte("bad metric"), [][]byte{[]byte("a"), []byte("b")}); err == nil {
		t.Fatal("invalid metric interned via bytes")
	}
}

// TestInternedIngestParity: a store fed point by point (fresh tag maps
// every call, one-point batches) and a store fed through 64-point
// AppendRefs batches with a reused scratch tag map answer every query
// identically — batching must not change a single byte of query
// results.
func TestInternedIngestParity(t *testing.T) {
	plain := mustOpen(t)
	interned := mustOpen(t)

	const sensors = 7
	var batch []RefPoint
	scratch := map[string]string{}
	for i := 0; i < sensors*400; i++ {
		metric := "par.co2"
		sensor := fmt.Sprintf("n%02d", i%sensors)
		ts := baseTS + int64(i/sensors)*60000
		val := 400 + float64(i%97)*0.5
		if err := put(plain, DataPoint{
			Metric: metric,
			Tags:   map[string]string{"sensor": sensor, "city": "x"},
			Point:  Point{Timestamp: ts, Value: val},
		}); err != nil {
			t.Fatal(err)
		}
		clear(scratch)
		scratch["sensor"] = sensor
		scratch["city"] = "x"
		ref, err := interned.Intern(metric, scratch)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, RefPoint{Ref: ref, Point: Point{Timestamp: ts, Value: val}})
		if len(batch) == 64 {
			if res := interned.AppendRefs(batch); len(res.Errors) > 0 || res.Stored != 64 {
				t.Fatalf("AppendRefs: %+v", res)
			}
			batch = batch[:0]
		}
	}
	if res := interned.AppendRefs(batch); len(res.Errors) > 0 {
		t.Fatalf("AppendRefs tail: %+v", res)
	}

	for _, q := range []Query{
		{Metric: "par.co2", Start: baseTS, End: baseTS + 400*60000, Aggregator: AggAvg},
		{Metric: "par.co2", Tags: map[string]string{"sensor": "*"}, Start: baseTS, End: baseTS + 400*60000, Aggregator: AggP95, Downsample: time.Hour},
		{Metric: "par.co2", Tags: map[string]string{"sensor": "*"}, Start: baseTS, End: baseTS + 400*60000, Aggregator: AggAvg, Downsample: 30 * time.Minute, SeriesLimit: 3},
		{Metric: "par.co2", Start: baseTS, End: baseTS + 400*60000, Aggregator: AggSum, Rate: true},
	} {
		want, err := plain.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := interned.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v diverged between one-point and batched writes", q)
		}
	}
	if got, want := interned.PointCount(), plain.PointCount(); got != want {
		t.Fatalf("point counts diverged: %d vs %d", got, want)
	}
}

// TestRetentionInvalidatesRefs: deleting a series' last point kills
// its handle; writing through the stale handle transparently
// re-interns, and the new data is queryable.
func TestRetentionInvalidatesRefs(t *testing.T) {
	db := mustOpen(t)
	ref, err := db.Intern("ret.m", map[string]string{"s": "a"})
	if err != nil {
		t.Fatal(err)
	}
	if res := db.AppendRefs([]RefPoint{{Ref: ref, Point: Point{Timestamp: 1000, Value: 1}}}); len(res.Errors) > 0 {
		t.Fatal(res.Errors[0].Err)
	}
	if n, err := db.DeleteBefore(2000); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if !ref.dead.Load() {
		t.Fatal("handle survived retention removal")
	}
	// Stale-handle write must land on a fresh series.
	if res := db.AppendRefs([]RefPoint{{Ref: ref, Point: Point{Timestamp: 5000, Value: 2}}}); len(res.Errors) > 0 {
		t.Fatal(res.Errors[0].Err)
	}
	pts, err := db.SeriesWindowExact("ret.m", map[string]string{"s": "a"}, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Value != 2 {
		t.Fatalf("stale-handle write lost: %+v", pts)
	}
	// And interning again must give a live handle distinct from the
	// dead one.
	again, err := db.Intern("ret.m", map[string]string{"s": "a"})
	if err != nil {
		t.Fatal(err)
	}
	if again == ref || again.dead.Load() {
		t.Fatal("re-intern returned the dead handle")
	}
}

// TestBatchDeadRefFallback: a batch holding a ref that retention
// killed beside a live ref in the same shard stores both points — the
// dead one through insertRefBatch's re-interning fallback — and after
// a reopen each replays exactly once.
func TestBatchDeadRefFallback(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	deadTags := map[string]string{"s": "dead"}
	dead, err := db.Intern("ret.m", deadTags)
	if err != nil {
		t.Fatal(err)
	}
	if res := db.AppendRefs([]RefPoint{{Ref: dead, Point: Point{Timestamp: 1000, Value: 1}}}); len(res.Errors) > 0 {
		t.Fatal(res.Errors[0].Err)
	}
	// A retention pass: delete, then rewrite the log from live state.
	if n, err := db.DeleteBefore(2000); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if err := db.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	if !dead.dead.Load() {
		t.Fatal("handle survived retention removal")
	}
	var live *Ref
	var liveTags map[string]string
	for i := 0; live == nil; i++ {
		tags := map[string]string{"s": fmt.Sprintf("live%d", i)}
		ref, err := db.Intern("ret.m", tags)
		if err != nil {
			t.Fatal(err)
		}
		if ref.shard == dead.shard {
			live, liveTags = ref, tags
		}
	}
	res := db.AppendRefs([]RefPoint{
		{Ref: dead, Point: Point{Timestamp: 5000, Value: 2}},
		{Ref: live, Point: Point{Timestamp: 5000, Value: 3}},
	})
	if len(res.Errors) > 0 || res.Stored != 2 {
		t.Fatalf("AppendRefs: %+v", res)
	}
	check := func(db *DB, when string) {
		t.Helper()
		for _, c := range []struct {
			tags map[string]string
			want float64
		}{{deadTags, 2}, {liveTags, 3}} {
			got := allPoints(t, db, "ret.m", c.tags)
			if len(got) != 1 || got[0] != (Point{Timestamp: 5000, Value: c.want}) {
				t.Fatalf("%s: series %v holds %+v, want one point of value %v", when, c.tags, got, c.want)
			}
		}
		if n := db.PointCount(); n != 2 {
			t.Fatalf("%s: PointCount = %d, want 2", when, n)
		}
	}
	check(db, "before reopen")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpenDisk(t, dir)
	defer db2.Close()
	check(db2, "after reopen")
}

// TestConcurrentIngestStress hammers the registry and the write path
// from many goroutines — new and existing series, one-point and
// 16-point batches, parallel reads, retention deletes and WAL
// compaction — and checks nothing is lost. Run under -race this is
// the registry's data-race certificate.
func TestConcurrentIngestStress(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		writers   = 8
		perWriter = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			scratch := map[string]string{}
			var batch []RefPoint
			for i := 0; i < perWriter; i++ {
				// Mix of a shared hot series set and writer-private
				// cold series, so interning races on creation.
				sensor := fmt.Sprintf("hot%02d", rng.Intn(6))
				if i%5 == 0 {
					sensor = fmt.Sprintf("w%d-%d", w, i)
				}
				clear(scratch)
				scratch["sensor"] = sensor
				ref, err := db.Intern("stress.m", scratch)
				if err != nil {
					t.Error(err)
					return
				}
				p := Point{Timestamp: baseTS + int64(i)*1000, Value: float64(i)}
				if i%3 == 0 {
					if res := db.AppendRefs([]RefPoint{{Ref: ref, Point: p}}); len(res.Errors) > 0 {
						t.Error(res.Errors[0].Err)
						return
					}
				} else {
					batch = append(batch, RefPoint{Ref: ref, Point: p})
					if len(batch) >= 16 {
						if res := db.AppendRefs(batch); len(res.Errors) > 0 {
							t.Errorf("AppendRefs: %+v", res.Errors[0])
							return
						}
						batch = batch[:0]
					}
				}
			}
			if len(batch) > 0 {
				if res := db.AppendRefs(batch); len(res.Errors) > 0 {
					t.Errorf("AppendRefs tail: %+v", res.Errors[0])
				}
			}
		}(w)
	}
	// Concurrent readers and maintenance.
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = db.ExecuteStream(Query{
				Metric: "stress.m", Tags: map[string]string{"sensor": "*"},
				Start: baseTS, End: baseTS + perWriter*1000, Aggregator: AggAvg,
			}, func(ResultSeries) error { return nil })
			_, _ = db.DeleteBeforeWhere(baseTS-1, nil) // removes nothing, walks everything
			_ = db.CompactWAL()
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()

	want := writers * perWriter
	if got := db.PointCount(); got != want {
		t.Fatalf("stored %d points, want %d", got, want)
	}
	// Everything must replay after a clean close.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.PointCount(); got != want {
		t.Fatalf("replayed %d points, want %d", got, want)
	}
}
