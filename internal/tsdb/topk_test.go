package tsdb

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"
)

// fillSeries stores n points at 1s cadence for one sensor, with
// values around base so every sensor gets a distinct mean.
func fillSeries(t testing.TB, db *DB, sensor string, base float64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := put(db, DataPoint{
			Metric: "air.co2",
			Tags:   map[string]string{"sensor": sensor, "city": "t"},
			Point:  Point{Timestamp: 1488326400000 + int64(i)*1000, Value: base + float64(i%3)},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTopKParity: SeriesLimit selection must return exactly K series
// and agree with a brute-force reference — run the same query without
// a limit, rank every series by SeriesScore, keep the K best.
func TestTopKParity(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const sensors = 20
	for i := 0; i < sensors; i++ {
		// Bases deliberately non-monotonic in sensor id.
		fillSeries(t, db, fmt.Sprintf("s%02d", i), float64((i*7)%sensors)*10, 50)
	}

	base := Query{
		Metric:     "air.co2",
		Tags:       map[string]string{"sensor": "*"},
		Start:      0,
		End:        2000000000000,
		Aggregator: AggAvg,
		Downsample: 10 * time.Second,
	}

	full, err := db.Execute(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != sensors {
		t.Fatalf("unlimited query returned %d series, want %d", len(full), sensors)
	}

	for _, tc := range []struct {
		k      int
		lowest bool
	}{{1, false}, {3, false}, {5, true}, {sensors, false}, {sensors + 5, true}} {
		q := base
		q.SeriesLimit = tc.k
		q.LimitLowest = tc.lowest
		got, err := db.Execute(q)
		if err != nil {
			t.Fatal(err)
		}

		// Brute-force reference over the unlimited result.
		ref := append([]ResultSeries(nil), full...)
		sort.Slice(ref, func(i, j int) bool {
			si, sj := SeriesScore(ref[i].Points), SeriesScore(ref[j].Points)
			if si != sj {
				if tc.lowest {
					return si < sj
				}
				return si > sj
			}
			return ref[i].Tags["sensor"] < ref[j].Tags["sensor"]
		})
		wantN := tc.k
		if wantN > len(ref) {
			wantN = len(ref)
		}
		ref = ref[:wantN]

		if len(got) != wantN {
			t.Fatalf("k=%d lowest=%v: got %d series, want %d", tc.k, tc.lowest, len(got), wantN)
		}
		for i := range ref {
			if got[i].Tags["sensor"] != ref[i].Tags["sensor"] {
				t.Errorf("k=%d lowest=%v rank %d: got sensor %s, want %s",
					tc.k, tc.lowest, i, got[i].Tags["sensor"], ref[i].Tags["sensor"])
			}
			if len(got[i].Points) != len(ref[i].Points) {
				t.Errorf("k=%d rank %d: %d points, want %d", tc.k, i, len(got[i].Points), len(ref[i].Points))
			}
		}
	}
}

// TestTopKValidation: a negative limit is rejected up front.
func TestTopKValidation(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = db.Execute(Query{Metric: "m", Aggregator: AggAvg, End: 1, SeriesLimit: -1})
	if err == nil {
		t.Fatal("negative SeriesLimit accepted")
	}
}

// TestExecuteStreamYieldsLazily: the iterator must deliver series one
// at a time and honour an abort error from yield.
func TestExecuteStreamYieldsLazily(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5; i++ {
		fillSeries(t, db, fmt.Sprintf("s%d", i), float64(i), 10)
	}
	q := Query{
		Metric: "air.co2", Tags: map[string]string{"sensor": "*"},
		Start: 0, End: 2000000000000, Aggregator: AggAvg,
	}
	var seen int
	abort := fmt.Errorf("stop here")
	err = db.ExecuteStream(q, func(rs ResultSeries) error {
		seen++
		if seen == 2 {
			return abort
		}
		return nil
	})
	if err != abort {
		t.Fatalf("yield error not propagated: %v", err)
	}
	if seen != 2 {
		t.Fatalf("scan continued after abort: %d series seen", seen)
	}

	// Execute (the materializing wrapper) must agree with a full
	// stream, in the same order.
	var streamed []ResultSeries
	if err := db.ExecuteStream(q, func(rs ResultSeries) error {
		streamed = append(streamed, rs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	direct, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(streamed) || len(direct) != 5 {
		t.Fatalf("stream/materialized mismatch: %d vs %d", len(streamed), len(direct))
	}
	for i := range direct {
		if direct[i].Tags["sensor"] != streamed[i].Tags["sensor"] {
			t.Errorf("order mismatch at %d: %v vs %v", i, direct[i].Tags, streamed[i].Tags)
		}
	}
}

// TestSeriesScore pins the ranking function.
func TestSeriesScore(t *testing.T) {
	if s := SeriesScore([]Point{{Value: 1}, {Value: 2}, {Value: 6}}); s != 3 {
		t.Fatalf("score = %v, want 3", s)
	}
	if s := SeriesScore(nil); !math.IsNaN(s) {
		t.Fatalf("empty score = %v, want NaN", s)
	}
}

// TestScanSeries: the backfill scan streams matching series in key
// order, windowed, and honours prefix + tag filters.
func TestScanSeries(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillSeries(t, db, "a1", 1, 10)
	fillSeries(t, db, "a2", 2, 10)
	if err := put(db, DataPoint{
		Metric: "env.temp",
		Tags:   map[string]string{"sensor": "a1"},
		Point:  Point{Timestamp: 1488326400000, Value: 20},
	}); err != nil {
		t.Fatal(err)
	}

	var metrics []string
	var total int
	err = db.ScanSeries("air.", map[string]string{"sensor": "*"}, 1488326400000, 1488326404000,
		func(metric string, tags map[string]string, pts []Point) error {
			metrics = append(metrics, metric+"/"+tags["sensor"])
			total += len(pts)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(metrics) != "[air.co2/a1 air.co2/a2]" {
		t.Fatalf("scanned %v, want the two air.co2 series in key order", metrics)
	}
	if total != 10 { // 5 points each within the window
		t.Fatalf("scanned %d points, want 10", total)
	}

	// Tag filter narrows; abort error propagates.
	n := 0
	if err := db.ScanSeries("", map[string]string{"sensor": "a1"}, 0, math.MaxInt64,
		func(string, map[string]string, []Point) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 { // air.co2/a1 and env.temp/a1
		t.Fatalf("filtered scan saw %d series, want 2", n)
	}
	wantErr := fmt.Errorf("abort")
	if err := db.ScanSeries("", nil, 0, math.MaxInt64,
		func(string, map[string]string, []Point) error { return wantErr }); err != wantErr {
		t.Fatalf("abort error not propagated: %v", err)
	}
}
