package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var baseTS = time.Date(2017, time.January, 1, 0, 0, 0, 0, time.UTC).UnixMilli()

func mustOpen(t *testing.T) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func pt(metric, sensor string, offsetMin int, v float64) DataPoint {
	return DataPoint{
		Metric: metric,
		Tags:   map[string]string{"sensor": sensor, "city": "trondheim"},
		Point:  Point{Timestamp: baseTS + int64(offsetMin)*60000, Value: v},
	}
}

// put stores one point the way every writer does: Intern the series,
// then append a one-element batch.
func put(db *DB, dp DataPoint) error {
	ref, err := db.Intern(dp.Metric, dp.Tags)
	if err != nil {
		return err
	}
	if res := db.AppendRefs([]RefPoint{{Ref: ref, Point: dp.Point}}); len(res.Errors) > 0 {
		return res.Errors[0].Err
	}
	return nil
}

// TestValidate: a point is stored only with a valid series, which
// Intern checks once per new series, and a timestamp ValidTimestamp
// accepts.
func TestValidate(t *testing.T) {
	db := mustOpen(t)
	valid := func(dp DataPoint) error {
		if _, err := db.Intern(dp.Metric, dp.Tags); err != nil {
			return err
		}
		if !ValidTimestamp(dp.Timestamp) {
			return fmt.Errorf("%w: %d", ErrBadTimestamp, dp.Timestamp)
		}
		return nil
	}
	if err := valid(pt("air.co2", "node1", 0, 412.5)); err != nil {
		t.Fatal(err)
	}
	cases := []DataPoint{
		{Metric: "", Tags: map[string]string{"a": "b"}, Point: Point{Timestamp: baseTS}},
		{Metric: "bad metric", Tags: map[string]string{"a": "b"}, Point: Point{Timestamp: baseTS}},
		{Metric: "m", Tags: nil, Point: Point{Timestamp: baseTS}},
		{Metric: "m", Tags: map[string]string{"a b": "c"}, Point: Point{Timestamp: baseTS}},
		{Metric: "m", Tags: map[string]string{"a": "b c"}, Point: Point{Timestamp: baseTS}},
		{Metric: "m", Tags: map[string]string{"a": "b"}, Point: Point{Timestamp: -5}},
		{Metric: "m", Tags: map[string]string{"a": "b"}, Point: Point{Timestamp: maxTS + 1}},
	}
	for i, dp := range cases {
		if err := valid(dp); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestSeriesKeyCanonical(t *testing.T) {
	db, _ := Open("")
	defer db.Close()
	ref, err := db.InternBytes([]byte("m"), [][]byte{[]byte("b"), []byte("2"), []byte("a"), []byte("1")})
	if err != nil {
		t.Fatal(err)
	}
	if k := ref.Key(); k != "m{a=1,b=2}" {
		t.Fatalf("series key not canonical: %q", k)
	}
}

func TestGorillaRoundTripRegularSeries(t *testing.T) {
	var want []Point
	for i := 0; i < 300; i++ {
		want = append(want, Point{Timestamp: baseTS + int64(i)*300000, Value: 410 + math.Sin(float64(i)/10)*5})
	}
	data, _ := encodeBlock(want)
	n := len(want)
	got, err := decodeBlock(data, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Regular cadence + smooth values must compress well below 16
	// bytes/point raw size.
	if perPoint := float64(len(data)) / float64(n); perPoint > 8 {
		t.Fatalf("compression too weak: %.1f bytes/point", perPoint)
	}
}

func TestGorillaRoundTripProperty(t *testing.T) {
	f := func(deltas []uint16, vals []float64) bool {
		n := len(deltas)
		if len(vals) < n {
			n = len(vals)
		}
		if n == 0 {
			return true
		}
		ts := baseTS
		var want []Point
		for i := 0; i < n; i++ {
			ts += int64(deltas[i]) // non-decreasing, irregular
			v := vals[i]
			if math.IsNaN(v) {
				v = 0 // NaN != NaN would break comparison; value space still exercised
			}
			want = append(want, Point{Timestamp: ts, Value: v})
		}
		data, _ := encodeBlock(want)
		got, err := decodeBlock(data, len(want))
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGorillaLargeJumps(t *testing.T) {
	// Exercise the 64-bit DoD escape path and big value changes.
	pts := []Point{
		{Timestamp: baseTS, Value: 1},
		{Timestamp: baseTS + 1, Value: -1e300},
		{Timestamp: baseTS + 100000000, Value: 1e-300},
		{Timestamp: baseTS + 100000001, Value: 0},
		{Timestamp: baseTS + 100000001, Value: 42}, // zero delta
	}
	data, _ := encodeBlock(pts)
	got, err := decodeBlock(data, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("point %d: got %+v want %+v", i, got[i], pts[i])
		}
	}
}

func TestPutAndQueryBasic(t *testing.T) {
	db := mustOpen(t)
	for i := 0; i < 10; i++ {
		if err := put(db, pt("air.co2", "n1", i*5, 400+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Execute(Query{
		Metric:     "air.co2",
		Tags:       map[string]string{"sensor": "n1"},
		Start:      baseTS,
		End:        baseTS + 3600_000,
		Aggregator: AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 10 {
		t.Fatalf("got %d series, %d points", len(res), len(res[0].Points))
	}
	if res[0].Points[0].Value != 400 || res[0].Points[9].Value != 409 {
		t.Fatalf("wrong values: %+v", res[0].Points)
	}
}

func TestQueryTimeRange(t *testing.T) {
	db := mustOpen(t)
	for i := 0; i < 100; i++ {
		put(db, pt("m.x", "n1", i, float64(i)))
	}
	res, err := db.Execute(Query{
		Metric:     "m.x",
		Tags:       map[string]string{"sensor": "n1"},
		Start:      baseTS + 10*60000,
		End:        baseTS + 19*60000,
		Aggregator: AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Points) != 10 {
		t.Fatalf("range query returned %d points, want 10", len(res[0].Points))
	}
	if _, err := db.Execute(Query{Metric: "m.x", Start: 10, End: 5, Aggregator: AggAvg}); err != ErrBadRange {
		t.Fatalf("inverted range: %v", err)
	}
}

func TestQueryAggregateAcrossSeries(t *testing.T) {
	db := mustOpen(t)
	// Two sensors at identical timestamps.
	for i := 0; i < 5; i++ {
		put(db, pt("m.y", "a", i, 10))
		put(db, pt("m.y", "b", i, 20))
	}
	res, err := db.Execute(Query{
		Metric:     "m.y",
		Start:      baseTS,
		End:        baseTS + 3600_000,
		Aggregator: AggSum,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("expected 1 merged series, got %d", len(res))
	}
	for _, p := range res[0].Points {
		if p.Value != 30 {
			t.Fatalf("sum = %v, want 30", p.Value)
		}
	}
	// Common tag must be preserved, differing tag dropped.
	if res[0].Tags["city"] != "trondheim" {
		t.Fatalf("common tag lost: %v", res[0].Tags)
	}
	if _, ok := res[0].Tags["sensor"]; ok {
		t.Fatalf("differing tag should be dropped: %v", res[0].Tags)
	}
}

func TestQueryGroupBy(t *testing.T) {
	db := mustOpen(t)
	for i := 0; i < 5; i++ {
		put(db, pt("m.z", "a", i, 1))
		put(db, pt("m.z", "b", i, 2))
	}
	res, err := db.Execute(Query{
		Metric:     "m.z",
		Tags:       map[string]string{"sensor": "*"},
		Start:      baseTS,
		End:        baseTS + 3600_000,
		Aggregator: AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("group-by should give 2 series, got %d", len(res))
	}
	seen := map[string]float64{}
	for _, r := range res {
		seen[r.Tags["sensor"]] = r.Points[0].Value
	}
	if seen["a"] != 1 || seen["b"] != 2 {
		t.Fatalf("group values wrong: %v", seen)
	}
}

func TestQueryInterpolation(t *testing.T) {
	db := mustOpen(t)
	// Series a has points at 0 and 10 min; series b at 5 min.
	put(db, pt("m.i", "a", 0, 0))
	put(db, pt("m.i", "a", 10, 100))
	put(db, pt("m.i", "b", 5, 7))
	res, err := db.Execute(Query{
		Metric:     "m.i",
		Start:      baseTS,
		End:        baseTS + 3600_000,
		Aggregator: AggSum,
	})
	if err != nil {
		t.Fatal(err)
	}
	// At t=5min: a interpolates to 50, b contributes 7 → 57.
	var at5 float64
	for _, p := range res[0].Points {
		if p.Timestamp == baseTS+5*60000 {
			at5 = p.Value
		}
	}
	if math.Abs(at5-57) > 1e-9 {
		t.Fatalf("interpolated sum at 5min = %v, want 57", at5)
	}
}

func TestQueryDownsample(t *testing.T) {
	db := mustOpen(t)
	// One point per minute for an hour, value = minute index.
	for i := 0; i < 60; i++ {
		put(db, pt("m.d", "n1", i, float64(i)))
	}
	res, err := db.Execute(Query{
		Metric:       "m.d",
		Tags:         map[string]string{"sensor": "n1"},
		Start:        baseTS,
		End:          baseTS + 3600_000,
		Aggregator:   AggAvg,
		Downsample:   10 * time.Minute,
		DownsampleFn: AggMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Points) != 6 {
		t.Fatalf("downsample returned %d buckets, want 6", len(res[0].Points))
	}
	if res[0].Points[0].Value != 9 || res[0].Points[5].Value != 59 {
		t.Fatalf("bucket maxima wrong: %+v", res[0].Points)
	}
}

func TestQueryRate(t *testing.T) {
	db := mustOpen(t)
	// Counter rising 60 per minute → rate 1/s.
	for i := 0; i < 10; i++ {
		put(db, pt("m.r", "n1", i, float64(i*60)))
	}
	res, err := db.Execute(Query{
		Metric:     "m.r",
		Tags:       map[string]string{"sensor": "n1"},
		Start:      baseTS,
		End:        baseTS + 3600_000,
		Aggregator: AggAvg,
		Rate:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Points) != 9 {
		t.Fatalf("rate returned %d points, want 9", len(res[0].Points))
	}
	for _, p := range res[0].Points {
		if math.Abs(p.Value-1) > 1e-9 {
			t.Fatalf("rate = %v, want 1", p.Value)
		}
	}
}

func TestAggregators(t *testing.T) {
	vals := []float64{4, 1, 3, 2, 5}
	cases := map[Aggregator]float64{
		AggSum:   15,
		AggAvg:   3,
		AggMin:   1,
		AggMax:   5,
		AggCount: 5,
		AggP50:   3,
	}
	for agg, want := range cases {
		if got := agg.apply(vals); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", agg, got, want)
		}
	}
	if d := AggDev.apply([]float64{2, 2, 2}); d != 0 {
		t.Errorf("dev of constants = %v", d)
	}
	if p := AggP99.apply([]float64{1}); p != 1 {
		t.Errorf("p99 single = %v", p)
	}
	if !AggAvg.Valid() || Aggregator("bogus").Valid() {
		t.Error("validity check wrong")
	}
	if _, err := mustOpen(t).Execute(Query{Metric: "m", Aggregator: "bogus", End: 1}); err == nil {
		t.Error("bogus aggregator should error")
	}
}

func TestOutOfOrderInsert(t *testing.T) {
	db := mustOpen(t)
	order := []int{5, 1, 9, 0, 3, 7, 2, 8, 4, 6}
	for _, i := range order {
		put(db, pt("m.o", "n1", i, float64(i)))
	}
	res, err := db.Execute(Query{
		Metric: "m.o", Tags: map[string]string{"sensor": "n1"},
		Start: baseTS, End: baseTS + 3600_000, Aggregator: AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res[0].Points {
		if p.Value != float64(i) {
			t.Fatalf("out-of-order points not sorted: %+v", res[0].Points)
		}
	}
}

func TestSealingAndLargeSeries(t *testing.T) {
	db := mustOpen(t)
	const n = 1000 // > 3 sealed blocks
	for i := 0; i < n; i++ {
		if err := put(db, pt("m.big", "n1", i*5, 400+rand.New(rand.NewSource(int64(i))).Float64())); err != nil {
			t.Fatal(err)
		}
	}
	if db.PointCount() != n {
		t.Fatalf("PointCount = %d, want %d", db.PointCount(), n)
	}
	if db.CompressedBytes() == 0 {
		t.Fatal("expected sealed compressed blocks")
	}
	res, err := db.Execute(Query{
		Metric: "m.big", Tags: map[string]string{"sensor": "n1"},
		Start: baseTS, End: baseTS + int64(n)*5*60000, Aggregator: AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Points) != n {
		t.Fatalf("read back %d points, want %d", len(res[0].Points), n)
	}
}

func TestMetrics(t *testing.T) {
	db := mustOpen(t)
	put(db, pt("a.one", "n1", 0, 1))
	put(db, pt("a.two", "n1", 0, 1))
	put(db, pt("a.two", "n2", 0, 1))
	ms := db.Metrics()
	if len(ms) != 2 || ms[0] != "a.one" || ms[1] != "a.two" {
		t.Fatalf("Metrics = %v", ms)
	}
	if db.SeriesCount() != 3 {
		t.Fatalf("SeriesCount = %d", db.SeriesCount())
	}
}

func TestConcurrentWritesAndReads(t *testing.T) {
	db := mustOpen(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sensor := string(rune('a' + w))
			for i := 0; i < 500; i++ {
				put(db, pt("m.c", sensor, i, float64(i)))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				db.Execute(Query{
					Metric: "m.c", Start: baseTS, End: baseTS + 1e9, Aggregator: AggAvg,
				})
			}
		}()
	}
	wg.Wait()
	if db.PointCount() != 2000 {
		t.Fatalf("PointCount = %d, want 2000", db.PointCount())
	}
}

func TestWALPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := put(db, pt("m.w", "n1", i, float64(i)*1.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.PointCount() != 50 {
		t.Fatalf("recovered %d points, want 50", db2.PointCount())
	}
	res, err := db2.Execute(Query{
		Metric: "m.w", Tags: map[string]string{"sensor": "n1"},
		Start: baseTS, End: baseTS + 1e9, Aggregator: AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Points[49].Value != 49*1.5 {
		t.Fatalf("recovered wrong value: %v", res[0].Points[49].Value)
	}
}

func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		put(db, pt("m.t", "n1", i, float64(i)))
	}
	db.Close()

	// Simulate a crash mid-write: append garbage half-record.
	path := filepath.Join(dir, WALFileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var header [8]byte
	binary.LittleEndian.PutUint32(header[0:4], crc32.ChecksumIEEE([]byte("x")))
	binary.LittleEndian.PutUint32(header[4:8], 100) // claims 100 bytes
	f.Write(header[:])
	f.Write([]byte("only-a-few")) // torn payload
	f.Close()

	db2, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if db2.PointCount() != 10 {
		t.Fatalf("torn recovery: %d points, want 10", db2.PointCount())
	}
	// Writes after recovery must work and persist.
	if err := put(db2, pt("m.t", "n1", 10, 10)); err != nil {
		t.Fatal(err)
	}
	db2.Close()
	db3, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.PointCount() != 11 {
		t.Fatalf("post-recovery write lost: %d points, want 11", db3.PointCount())
	}
}

func TestWALCorruptMiddleStopsCleanly(t *testing.T) {
	dir := t.TempDir()
	db, _ := OpenOptions(diskOpts(dir))
	for i := 0; i < 5; i++ {
		put(db, pt("m.cm", "n1", i, float64(i)))
	}
	db.Close()
	// Flip a byte in the middle of the file.
	path := filepath.Join(dir, WALFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	db2, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	n := db2.PointCount()
	if n >= 5 || n < 1 {
		t.Fatalf("corrupt-middle recovery kept %d points; want a clean prefix (1-4)", n)
	}
}

func TestPutRejectsInvalid(t *testing.T) {
	db := mustOpen(t)
	if err := put(db, DataPoint{Metric: "", Tags: map[string]string{"a": "b"}}); !errors.Is(err, ErrEmptyMetric) {
		t.Fatalf("empty metric: %v", err)
	}
	if db.PointCount() != 0 || db.SeriesCount() != 0 {
		t.Fatalf("rejected point stored: %d points, %d series", db.PointCount(), db.SeriesCount())
	}
}

// TestValidTimestampBounds: the range every network edge checks
// before it interns a point.
func TestValidTimestampBounds(t *testing.T) {
	for _, c := range []struct {
		ts   int64
		want bool
	}{
		{minTS - 1, false},
		{minTS, true},
		{maxTS, true},
		{maxTS + 1, false},
	} {
		if got := ValidTimestamp(c.ts); got != c.want {
			t.Errorf("ValidTimestamp(%d) = %v, want %v", c.ts, got, c.want)
		}
	}
}

func TestEmptyQueryResult(t *testing.T) {
	db := mustOpen(t)
	res, err := db.Execute(Query{Metric: "none", Start: 0, End: 1, Aggregator: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("expected empty result, got %d series", len(res))
	}
}

func TestDeleteBefore(t *testing.T) {
	db := mustOpen(t)
	const n = 600 // spans two sealed blocks + head
	for i := 0; i < n; i++ {
		put(db, pt("m.ret", "n1", i*5, float64(i)))
	}
	cutoff := baseTS + int64(300)*5*60000 // halfway
	removed, err := db.DeleteBefore(cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 300 {
		t.Fatalf("removed %d, want 300", removed)
	}
	if db.PointCount() != 300 {
		t.Fatalf("remaining %d, want 300", db.PointCount())
	}
	res, err := db.Execute(Query{
		Metric: "m.ret", Tags: map[string]string{"sensor": "n1"},
		Start: baseTS, End: baseTS + 1e10, Aggregator: AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Points) != 300 {
		t.Fatalf("queried %d points", len(res[0].Points))
	}
	if res[0].Points[0].Timestamp < cutoff {
		t.Fatalf("stale point survived: %d < %d", res[0].Points[0].Timestamp, cutoff)
	}
	if res[0].Points[0].Value != 300 {
		t.Fatalf("first surviving value %v, want 300", res[0].Points[0].Value)
	}
}

func TestDeleteBeforeRemovesEmptySeries(t *testing.T) {
	db := mustOpen(t)
	put(db, pt("m.gone", "n1", 0, 1))
	if _, err := db.DeleteBefore(baseTS + 1e9); err != nil {
		t.Fatal(err)
	}
	if db.SeriesCount() != 0 {
		t.Fatalf("series count %d, want 0", db.SeriesCount())
	}
}

func TestDeleteBeforeNoop(t *testing.T) {
	db := mustOpen(t)
	put(db, pt("m.keep", "n1", 100, 1))
	removed, err := db.DeleteBefore(baseTS)
	if err != nil || removed != 0 {
		t.Fatalf("removed=%d err=%v", removed, err)
	}
	if db.PointCount() != 1 {
		t.Fatal("point lost")
	}
}
