package rollup

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// TestOpenBucketWhileSealing reads the open hour of live series while
// their writer seals a minute of each every sixty batches: every answer
// must count at least the readings stored before the read began, so no
// read meets a horizon ahead of the windows stored behind it. Meant for
// -race too.
func TestOpenBucketWhileSealing(t *testing.T) {
	series, seconds := 50, int64(2*3600)
	if testing.Short() {
		seconds = 1200
	}
	db, eng := openEngine(t, Config{Tiers: []Tier{{Resolution: time.Minute}, {Resolution: time.Hour}}})
	refs := make([]*tsdb.Ref, series)
	for i := range refs {
		var err error
		if refs[i], err = db.Intern("air.co2", map[string]string{"sensor": fmt.Sprintf("w%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	var written atomic.Int64 // seconds every series holds, from t0
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := make([]tsdb.RefPoint, series)
		for s := int64(0); s < seconds && !stop.Load(); s++ {
			for i, ref := range refs {
				batch[i] = tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: t0.Add(time.Duration(s) * time.Second).UnixMilli(), Value: 1}}
			}
			if res := db.AppendRefs(batch); len(res.Errors) > 0 {
				t.Error(res.Errors[0])
				return
			}
			written.Store(s + 1)
		}
	}()
	fatalf := func(format string, args ...any) {
		t.Helper()
		stop.Store(true)
		<-done
		t.Fatalf(format, args...)
	}
	for reads := 0; ; reads++ {
		select {
		case <-done:
			if st := eng.Stats(); st.TailServed == 0 {
				t.Fatalf("%d reads, none took its open bucket from the 1m tier", reads)
			}
			return
		default:
		}
		before := written.Load()
		if before == 0 {
			continue
		}
		hour := (before - 1) / 3600 * 3600 // seconds from t0
		var count float64
		buckets := 0
		ok, err := eng.ServeDownsample(refs[reads%series], t0.Add(time.Duration(hour)*time.Second).UnixMilli(),
			t0.Add(time.Duration(hour+3600)*time.Second).UnixMilli()-1, time.Hour, tsdb.AggCount, func(p tsdb.Point) error {
				count += p.Value
				buckets++
				return nil
			})
		if err != nil {
			fatalf("%v", err)
		}
		// At most one batch is stored and not yet counted in written.
		lo, hi := before-hour, min(written.Load()+1, hour+3600)-hour
		if ok && (buckets != 1 || count < float64(lo) || count > float64(hi)) {
			fatalf("count over the hour at %ds: %v in %d buckets, want [%d, %d] in one", hour, count, buckets, lo, hi)
		}
	}
}

// BenchmarkServeOpenBucket is one live dashboard series read through
// the planner: 50 series with a week of five-minute history sealed into
// the 1h tier, then forty minutes at 1 Hz past its horizon, the 1m tier
// sealed by watermark to a minute behind the newest point (ctt-server's
// tiers and grace). Each op is one series' 1h-avg over the week and the
// open hour: the week from the 1h tier, the open hour from the 1m
// tier's windows plus the last minute raw.
func BenchmarkServeOpenBucket(b *testing.B) {
	const series = 50
	horizon := t0.Add(7 * 24 * time.Hour)
	live := horizon.Add(40 * time.Minute)
	db, eng := openEngine(b, Config{Grace: time.Minute, Now: func() time.Time { return live }})
	refs := make([]*tsdb.Ref, series)
	for i := range refs {
		var err error
		if refs[i], err = db.Intern("air.co2", map[string]string{"sensor": fmt.Sprintf("b%02d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	appendAll := func(rps []tsdb.RefPoint) {
		if res := db.AppendRefs(rps); len(res.Errors) > 0 {
			b.Fatal(res.Errors[0])
		}
	}
	value := func(i int, ts time.Time) float64 { return float64(400000+(i*7919+int(ts.Unix())*104729)%80000) / 1000 }
	for i, ref := range refs {
		var hist []tsdb.RefPoint
		for ts := t0; ts.Before(horizon); ts = ts.Add(5 * time.Minute) {
			hist = append(hist, tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: ts.UnixMilli(), Value: value(i, ts)}})
		}
		appendAll(hist)
	}
	batch := make([]tsdb.RefPoint, series)
	for ts := horizon; ts.Before(live); ts = ts.Add(time.Second) {
		for i, ref := range refs {
			batch[i] = tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: ts.UnixMilli(), Value: value(i, ts)}}
		}
		appendAll(batch)
	}

	start, end := t0.UnixMilli(), horizon.Add(2*time.Hour).UnixMilli()
	buckets := 0
	yield := func(tsdb.Point) error { buckets++; return nil }
	before := eng.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := eng.ServeDownsample(refs[i%series], start, end, time.Hour, tsdb.AggAvg, yield); !ok || err != nil {
			b.Fatalf("not served (%v)", err)
		}
	}
	b.StopTimer()
	if st := eng.Stats(); st.TailServed-before.TailServed != uint64(b.N) || buckets != b.N*(7*24+1) {
		b.Fatalf("%d of %d reads took their open bucket from the 1m tier, %d buckets; want all, %d each",
			st.TailServed-before.TailServed, b.N, buckets, 7*24+1)
	}
}
