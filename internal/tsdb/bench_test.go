package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/sensors"
)

// Benchmarks for the storage engine, including one ablation of the
// chunk codec: decimal against XOR value coding on every sensor class
// (BenchmarkGorillaEncode, BenchmarkGorillaDecode).

func benchPoints(n int) []DataPoint {
	out := make([]DataPoint, n)
	for i := 0; i < n; i++ {
		out[i] = DataPoint{
			Metric: "air.co2",
			Tags:   map[string]string{"sensor": fmt.Sprintf("n%02d", i%12), "city": "trondheim"},
			Point: Point{
				Timestamp: baseTS + int64(i)*300000,
				Value:     410 + 10*math.Sin(float64(i)/50),
			},
		}
	}
	return out
}

// BenchmarkPut and BenchmarkPutWithWAL time one single-point write
// the way every writer makes it: Intern, then a one-element AppendRefs
// batch. The batch array is the caller's and lives outside the loop,
// so the op stays at 0 allocs.
func BenchmarkPut(b *testing.B) {
	db, _ := Open("")
	defer db.Close()
	benchPut(b, db)
}

func BenchmarkPutWithWAL(b *testing.B) {
	db, err := OpenOptions(diskOpts(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	benchPut(b, db)
}

func benchPut(b *testing.B, db *DB) {
	pts := benchPoints(b.N)
	var one [1]RefPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := db.Intern(pts[i].Metric, pts[i].Tags)
		if err != nil {
			b.Fatal(err)
		}
		one[0] = RefPoint{Ref: ref, Point: pts[i].Point}
		if res := db.AppendRefs(one[:]); len(res.Errors) > 0 {
			b.Fatal(res.Errors[0].Err)
		}
	}
}

func BenchmarkQueryAggregate(b *testing.B) {
	db, _ := Open("")
	defer db.Close()
	for _, p := range benchPoints(12 * 288 * 7) { // 12 sensors, a week at 5 min
		put(db, p)
	}
	q := Query{
		Metric:     "air.co2",
		Start:      baseTS,
		End:        baseTS + 7*24*3600*1000,
		Aggregator: AggAvg,
		Downsample: time.Hour,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Execute(q)
		if err != nil || len(res) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchOneSeries times a one-series query (avg over one
// exact sensor of a metric every tenth series shares) with 1k, 10k and
// 100k other series stored, each holding one point. Matching reads the
// postings, so the op should stay flat as the store grows. heapB/series
// is the heap those other series hold, per series: a point, its
// registry entry, shard entry and postings.
func BenchmarkMatchOneSeries(b *testing.B) {
	for _, others := range []int{1_000, 10_000, 100_000} {
		db, _ := Open("")
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rps := make([]RefPoint, 0, others)
		for i := range others {
			ref, err := db.Intern(fmt.Sprintf("air.m%d", i%10), map[string]string{
				"sensor": fmt.Sprintf("s%06d", i), "city": "trondheim",
			})
			if err != nil {
				b.Fatal(err)
			}
			rps = append(rps, RefPoint{Ref: ref, Point: Point{Timestamp: baseTS, Value: 1}})
		}
		db.AppendRefs(rps)
		rps = nil
		runtime.GC()
		runtime.ReadMemStats(&after)
		perSeries := float64(after.HeapAlloc-before.HeapAlloc) / float64(others)
		for i := range 12 {
			put(db, DataPoint{Metric: "air.m0", Tags: map[string]string{"sensor": "needle", "city": "trondheim"},
				Point: Point{Timestamp: baseTS + int64(i)*300000, Value: float64(i)}})
		}
		q := Query{
			Metric:     "air.m0",
			Tags:       map[string]string{"sensor": "needle"},
			Start:      baseTS,
			End:        baseTS + 3600*1000,
			Aggregator: AggAvg,
		}
		b.Run(fmt.Sprintf("others=%d", others), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := db.Execute(q)
				if err != nil || len(res) != 1 || len(res[0].Points) != 12 {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
			b.ReportMetric(perSeries, "heapB/series")
		})
		db.Close()
	}
}

func BenchmarkQueryGroupBy(b *testing.B) {
	db, _ := Open("")
	defer db.Close()
	for _, p := range benchPoints(12 * 288) {
		put(db, p)
	}
	q := Query{
		Metric:     "air.co2",
		Tags:       map[string]string{"sensor": "*"},
		Start:      baseTS,
		End:        baseTS + 24*3600*1000,
		Aggregator: AggAvg,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Execute(q)
		if err != nil || len(res) != 12 {
			b.Fatalf("res=%d err=%v", len(res), err)
		}
	}
}

// sensorClasses are the codec benches' inputs: readings shaped like
// the ones this system stores. Every channel of the uplink payload is
// a scaled int16 (internal/sensors/codec.go), so each class is a
// smooth signal plus noise pushed through that codec; rssi is the
// gateway's own float and never a decimal.
var sensorClasses = []struct {
	name  string
	value func(i int, noise float64) float64
}{
	{"co2", func(i int, noise float64) float64 {
		return quantised(sensors.Measurement{CO2: 410 + 10*math.Sin(float64(i)/50) + 2*noise}).CO2
	}},
	{"no2", func(i int, noise float64) float64 {
		return quantised(sensors.Measurement{NO2: 25 + 8*math.Sin(float64(i)/40) + 1.5*noise}).NO2
	}},
	{"temperature", func(i int, noise float64) float64 {
		return quantised(sensors.Measurement{TemperatureC: 4 + 6*math.Sin(float64(i)/288*2*math.Pi) + 0.3*noise}).TemperatureC
	}},
	{"battery", func(i int, noise float64) float64 {
		return quantised(sensors.Measurement{BatteryPct: 90 - float64(i)/100 + 0.05*noise}).BatteryPct
	}},
	{"rssi", func(i int, noise float64) float64 { return -105 + 4*noise }},
}

func quantised(m sensors.Measurement) sensors.Measurement {
	out, err := sensors.DecodeMeasurement(sensors.EncodeMeasurement(m))
	if err != nil {
		panic(err)
	}
	return out
}

// sensorChunks returns n full chunks of one class at the 5-minute
// cadence, one uplink in sixteen arriving up to 2 s late.
func sensorChunks(value func(i int, noise float64) float64, n int) [][]Point {
	rng := rand.New(rand.NewSource(1))
	chunks := make([][]Point, n)
	for c := range chunks {
		chunks[c] = make([]Point, headSealSize)
		for j := range chunks[c] {
			i := c*headSealSize + j
			ts := baseTS + int64(i)*300000
			if rng.Intn(16) == 0 {
				ts += rng.Int63n(2000)
			}
			chunks[c][j] = Point{Timestamp: ts, Value: value(i, rng.NormFloat64())}
		}
	}
	return chunks
}

// encodeXORForBench is the payload encodeBlock falls back to, forced:
// the same points under the encoding the data did not choose.
func encodeXORForBench(pts []Point) []byte {
	w := bitWriter{buf: append(make([]byte, 0, 4096), tagXOR)}
	w.writeXORPoints(pts)
	return w.bytes()
}

// BenchmarkGorillaEncode/Decode measure the chunk codec on every
// sensor class under both value encodings: <class>/decimal is what
// encodeBlock chooses for the class (absent for rssi, which has no
// decimal form), <class>/xor the Gorilla fallback on the same points.
// bytes/point is the payload alone; ns/point makes the two encodings
// comparable across classes.
func BenchmarkGorillaEncode(b *testing.B) {
	benchCodec(b, func(b *testing.B, chunks [][]Point, encode func([]Point) []byte) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range chunks {
				benchSink = encode(c)
			}
		}
	})
}

func BenchmarkGorillaDecode(b *testing.B) {
	benchCodec(b, func(b *testing.B, chunks [][]Point, encode func([]Point) []byte) {
		payloads := make([][]byte, len(chunks))
		for i, c := range chunks {
			payloads[i] = encode(c)
		}
		var cur blockCursor
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, data := range payloads {
				cur.reset(data, headSealSize)
				n := 0
				for {
					_, ok, err := cur.next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					n++
				}
				if n != headSealSize {
					b.Fatalf("decoded %d points", n)
				}
			}
		}
	})
}

var benchSink []byte

// benchCodec runs body once per sensor class and value encoding and
// reports the payload size and per-point time beside ns/op.
func benchCodec(b *testing.B, body func(b *testing.B, chunks [][]Point, encode func([]Point) []byte)) {
	const nChunks = 4
	for _, class := range sensorClasses {
		chunks := sensorChunks(class.value, nChunks)
		_, chosen := encodeBlock(chunks[0])
		encoders := []struct {
			name   string
			encode func([]Point) []byte
		}{
			{"xor", encodeXORForBench},
			{"decimal", func(pts []Point) []byte { data, _ := encodeBlock(pts); return data }},
		}
		if chosen != encDecimal {
			encoders = encoders[:1]
		}
		for _, e := range encoders {
			b.Run(class.name+"/"+e.name, func(b *testing.B) {
				size := 0
				for _, c := range chunks {
					size += len(e.encode(c))
				}
				b.ResetTimer()
				body(b, chunks, e.encode)
				points := float64(nChunks * headSealSize)
				b.ReportMetric(float64(size)/points, "bytes/point")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/points, "ns/point")
			})
		}
	}
}

// BenchmarkColdGroupQuery is the read-path headline: a cold (fully
// sealed, no cache) downsampled group-by query over a week of
// 12-sensor data, decoding through the fused cursor pipeline. The
// p95 variant exercises the percentile sort scratch. Run with
// -benchmem: allocs/op here is gated by ci/benchcmp.
func BenchmarkColdGroupQuery(b *testing.B) {
	db, _ := Open("")
	defer db.Close()
	for _, p := range benchPoints(12 * 288 * 7) {
		put(db, p)
	}
	for _, fn := range []Aggregator{AggAvg, AggP95} {
		b.Run(string(fn), func(b *testing.B) {
			q := Query{
				Metric:       "air.co2",
				Tags:         map[string]string{"sensor": "*"},
				Start:        baseTS,
				End:          baseTS + 7*24*3600*1000,
				Aggregator:   AggAvg,
				Downsample:   time.Hour,
				DownsampleFn: fn,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				err := db.ExecuteStream(q, func(rs ResultSeries) error { n++; return nil })
				if err != nil || n != 12 {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}

// benchPlanner serves downsamples from pre-aggregated buckets, the
// shape the rollup engine provides — so BenchmarkTopKRollup measures
// selection that never touches member points.
type benchPlanner struct {
	buckets map[string]*bucketRead
}

func (p *benchPlanner) PlanDownsample(series *Ref, start, end int64, interval time.Duration, fn Aggregator) (TierRead, string) {
	sensor, _ := series.Tag("sensor")
	rd, ok := p.buckets[sensor]
	if !ok {
		return nil, "no buckets"
	}
	return rd, ""
}

// bucketRead serves one series' precomputed buckets.
type bucketRead struct{ pts []Point }

func (r *bucketRead) Points() int    { return len(r.pts) }
func (r *bucketRead) String() string { return "buckets" }

func (r *bucketRead) Serve(yield func(Point) error) error {
	for _, pt := range r.pts {
		if err := yield(pt); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkTopKRollup ranks a 48-way group-by with SeriesLimit=3:
// RawScan scores every candidate through the fused decode path,
// RollupTier through planner-served buckets (no member decode at all).
func BenchmarkTopKRollup(b *testing.B) {
	db, _ := Open("")
	defer db.Close()
	for i := 0; i < 48*288*2; i++ {
		put(db, DataPoint{
			Metric: "air.co2",
			Tags:   map[string]string{"sensor": fmt.Sprintf("n%02d", i%48), "city": "trondheim"},
			Point: Point{
				Timestamp: baseTS + int64(i/48)*300000,
				Value:     410 + 10*math.Sin(float64(i)/50),
			},
		})
	}
	q := Query{
		Metric:      "air.co2",
		Tags:        map[string]string{"sensor": "*"},
		Start:       baseTS,
		End:         baseTS + 2*24*3600*1000,
		Aggregator:  AggAvg,
		Downsample:  time.Hour,
		SeriesLimit: 3,
	}
	run := func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			err := db.ExecuteStream(q, func(rs ResultSeries) error { n++; return nil })
			if err != nil || n != 3 {
				b.Fatalf("n=%d err=%v", n, err)
			}
		}
	}
	b.Run("RawScan", run)
	b.Run("RollupTier", func(b *testing.B) {
		// Precompute the per-sensor hourly buckets a rollup tier would
		// hold (setup cost, not measured).
		planner := &benchPlanner{buckets: map[string]*bucketRead{}}
		err := db.ScanSeries("air.co2", nil, q.Start, q.End, func(series *Ref, pts []Point) error {
			sensor, _ := series.Tag("sensor")
			planner.buckets[sensor] = &bucketRead{downsample(pts, time.Hour, AggAvg)}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		db.SetRollupPlanner(planner)
		defer db.SetRollupPlanner(nil)
		run(b)
	})
}

func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	db, err := OpenOptions(diskOpts(dir))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range benchPoints(10000) {
		put(db, p)
	}
	db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db2, err := OpenOptions(diskOpts(dir))
		if err != nil {
			b.Fatal(err)
		}
		if db2.PointCount() != 10000 {
			b.Fatal("replay incomplete")
		}
		db2.Close()
	}
}

// BenchmarkFlush measures one full flush pass: extract cold blocks
// from every shard, write + fsync the block file, append the WAL
// marker, publish, and truncate the WAL. 10k points over 12 series.
func BenchmarkFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := OpenOptions(Options{
			Dir: b.TempDir(), FlushInterval: -1, CompactInterval: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range benchPoints(10000) {
			put(db, p)
		}
		b.StartTimer()
		stats, err := db.flushBefore(maxTS, true)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Points != 10000 {
			b.Fatalf("flushed %d points, want 10000", stats.Points)
		}
		b.StopTimer()
		db.Close()
	}
}

// BenchmarkDiskScan measures a cold group query served entirely from
// on-disk chunks: pread + CRC verify + Gorilla decode through the
// streaming cursor path, 10k points over 12 series.
func BenchmarkDiskScan(b *testing.B) {
	db, err := OpenOptions(Options{
		Dir: b.TempDir(), FlushInterval: -1, CompactInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for _, p := range benchPoints(10000) {
		put(db, p)
	}
	if _, err := db.flushBefore(maxTS, true); err != nil {
		b.Fatal(err)
	}
	if n := db.PointCount(); n != 10000 {
		b.Fatalf("PointCount = %d", n)
	}
	q := Query{
		Metric: "air.co2", Tags: map[string]string{"city": "trondheim"},
		Start: baseTS, End: baseTS + int64(10000)*300000, Aggregator: AggAvg,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 || len(res[0].Points) == 0 {
			b.Fatal("empty result")
		}
	}
}
