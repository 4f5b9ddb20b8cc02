package tsdb

import (
	"errors"
	"reflect"
	"testing"
)

func dp(metric, sensor string, ts int64, v float64) DataPoint {
	return DataPoint{
		Metric: metric,
		Tags:   map[string]string{"sensor": sensor, "city": "trondheim"},
		Point:  Point{Timestamp: ts, Value: v},
	}
}

func TestSuggestIndexes(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i, m := range []string{"air.co2", "air.no2", "env.temperature"} {
		if err := put(db, dp(m, "node-01", int64(1000+i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := put(db, dp("air.co2", "node-02", 2000, 2)); err != nil {
		t.Fatal(err)
	}

	if got, want := db.SuggestMetrics("air.", 0), []string{"air.co2", "air.no2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("SuggestMetrics(air.) = %v, want %v", got, want)
	}
	if got := db.SuggestMetrics("", 2); len(got) != 2 {
		t.Errorf("SuggestMetrics max=2 returned %v", got)
	}
	if got, want := db.SuggestTagKeys("s", 0), []string{"sensor"}; !reflect.DeepEqual(got, want) {
		t.Errorf("SuggestTagKeys(s) = %v, want %v", got, want)
	}
	if got, want := db.SuggestTagValues("node-", 0), []string{"node-01", "node-02"}; !reflect.DeepEqual(got, want) {
		t.Errorf("SuggestTagValues(node-) = %v, want %v", got, want)
	}

	// Aging out every series of a metric must drop it from the index.
	if _, err := db.DeleteBefore(3000); err != nil {
		t.Fatal(err)
	}
	if got := db.SuggestMetrics("", 0); len(got) != 0 {
		t.Errorf("after DeleteBefore, SuggestMetrics = %v, want empty", got)
	}
	if got := db.SuggestTagValues("node-", 0); len(got) != 0 {
		t.Errorf("after DeleteBefore, SuggestTagValues = %v, want empty", got)
	}
}

// TestInternRejectsInvalidSeries: a batch is built by interning each
// point's series, so one bad series costs its own points and nothing
// else — no ref, no registered series, its neighbours stored.
func TestInternRejectsInvalidSeries(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	batch := []DataPoint{
		dp("air.co2", "node-01", 1000, 400),
		{Metric: "", Tags: map[string]string{"a": "b"}, Point: Point{Timestamp: 1001}}, // invalid
		dp("air.co2", "node-01", 2000, 410),
		{Metric: "bad metric!", Tags: map[string]string{"a": "b"}, Point: Point{Timestamp: 1002}},
	}
	wantErr := []error{nil, ErrEmptyMetric, nil, ErrBadMetricChar}
	var rps []RefPoint
	for i, p := range batch {
		ref, err := db.Intern(p.Metric, p.Tags)
		if !errors.Is(err, wantErr[i]) {
			t.Errorf("point %d: Intern error %v, want %v", i, err, wantErr[i])
		}
		if err == nil {
			rps = append(rps, RefPoint{Ref: ref, Point: p.Point})
		}
	}
	if res := db.AppendRefs(rps); res.Stored != 2 || len(res.Errors) != 0 {
		t.Errorf("AppendRefs = %+v, want 2 stored", res)
	}
	if got, series := db.PointCount(), db.SeriesCount(); got != 2 || series != 1 {
		t.Errorf("PointCount = %d, SeriesCount = %d, want 2 and 1", got, series)
	}
}

func TestObserverSeesAllWritePaths(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var seen []RefPoint
	remove := db.AddBatchObserver(func(rps []RefPoint) { seen = append(seen, rps...) })
	if err := put(db, dp("air.co2", "node-01", 1000, 400)); err != nil {
		t.Fatal(err)
	}
	ref, err := db.Intern("air.co2", dp("air.co2", "node-01", 0, 0).Tags)
	if err != nil {
		t.Fatal(err)
	}
	db.AppendRefs([]RefPoint{{Ref: ref, Point: Point{Timestamp: 2000, Value: 410}}})
	if len(seen) != 2 {
		t.Fatalf("observer saw %d points, want 2", len(seen))
	}
	remove()
	if err := put(db, dp("air.co2", "node-01", 3000, 420)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Errorf("observer called after removal")
	}
}
