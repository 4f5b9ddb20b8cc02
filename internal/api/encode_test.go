package api

// The encoder's bytes and its cost: a series' points against
// encoding/json, and the per-series encode against an allocation
// budget of zero. The float printer itself is fuzzed against strconv
// and encoding/json in internal/jsonenc; FuzzAppendJSONFloat here
// holds a series carrying the fuzzed reading to the reflective
// marshaler.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/tsdb"
)

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1e-3, -1e-3, 999999999999.999, -999999999999.999,
		1e15 / 1000, math.Nextafter(1e12, 0), math.Nextafter(1e12, 2e12),
		0.1 + 0.2, 1e21, math.Nextafter(1e21, 0), 1e-6, math.Nextafter(1e-6, 0), 1e-7,
		5e-324, 2.2250738585072009e-308, // subnormals
		412.5, -17.25, 400, 435.875, 17.3, 0.0005, 0.0015, 0.001 + 1e-19,
		8.41e21, 123456789012.345, 1234567890123.456, 4503599627370.496, 4503599627370.497,
		math.MaxFloat64, math.NaN(), math.Inf(1),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		// A decimal reading near the fuzzed value, as in the printer's
		// own fuzz target (internal/jsonenc), through a whole series.
		for _, v := range []float64{math.Float64frombits(bits), math.Round(math.Float64frombits(bits)*1000) / 1000} {
			qr := queryResult{Metric: "air.co2", Points: []tsdb.Point{{Timestamp: 1488326400000, Value: v}}}
			got, err := qr.appendJSON(nil)
			want, jerr := json.Marshal(struct {
				Metric string             `json:"metric"`
				Tags   map[string]string  `json:"tags"`
				DPS    map[string]float64 `json:"dps"`
			}{qr.Metric, map[string]string{}, map[string]float64{"1488326400000": v}})
			if (err != nil) != (jerr != nil) {
				t.Fatalf("%v (%#x): error %v, encoding/json %v", v, math.Float64bits(v), err, jerr)
			}
			if err == nil && string(got) != string(want) {
				t.Fatalf("%v (%#x): %s, encoding/json renders %s", v, math.Float64bits(v), got, want)
			}
		}
	})
}

// TestAppendJSONMatchesEncodingJSON: a whole series, names that need
// escaping and duplicate timestamps included, against the reflective
// marshaler over the equivalent value.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, qr := range []queryResult{
		{Metric: "air.co2", Tags: map[string]string{"sensor": "n1", "city": "trondheim"},
			Points: []tsdb.Point{{Timestamp: 1000, Value: 412.5}, {Timestamp: 2000, Value: 1}, {Timestamp: 2000, Value: 0.1 + 0.2}, {Timestamp: 3000, Value: -1e-7}}},
		{Metric: "empty"},
		{Metric: `we"ird<&>\` + "\x01é ", Tags: map[string]string{`k"`: "v\n", "a": ""}, Points: []tsdb.Point{{Timestamp: -5, Value: 1e21}}},
		{Metric: "wide", Tags: map[string]string{"a": "1", "b": "2", "c": "3", "d": "4", "e": "5", "f": "6", "g": "7", "h": "8", "i": "9", "j": "10"}},
	} {
		dps := map[string]float64{}
		for _, p := range qr.Points {
			dps[strconv.FormatInt(p.Timestamp, 10)] = p.Value
		}
		tags := qr.Tags
		if tags == nil {
			tags = map[string]string{}
		}
		want, err := json.Marshal(struct {
			Metric string             `json:"metric"`
			Tags   map[string]string  `json:"tags"`
			DPS    map[string]float64 `json:"dps"`
		}{qr.Metric, tags, dps})
		if err != nil {
			t.Fatal(err)
		}
		got, err := qr.appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		// (encoding/json sorts dps keys as strings, the encoder keeps
		// timestamp order: the same thing for keys of one width.)
		if string(got) != string(want) {
			t.Errorf("appendJSON:\n %s\nencoding/json:\n %s", got, want)
		}
		if viaMarshal, _ := json.Marshal(qr); string(viaMarshal) != string(got) {
			t.Errorf("MarshalJSON wrapper renders %s", viaMarshal)
		}
	}
}

// encodeBenchSeries is one sensor's series of n points at the pilots'
// five-minute cadence, readings of one to three decimals.
func encodeBenchSeries(n int) queryResult {
	qr := queryResult{Metric: "air.co2", Tags: map[string]string{"sensor": "ctt-node-07", "city": "trondheim"}}
	for i := 0; i < n; i++ {
		qr.Points = append(qr.Points, tsdb.Point{Timestamp: 1488326400000 + int64(i)*300000, Value: float64(400000+(i*7919)%90000) / 1000})
	}
	return qr
}

// BenchmarkEncodeSeries is the encoder's cost per result series — a
// week of hourly buckets and a week of raw five-minute readings —
// appended to a warm pooled buffer and pushed on the encoder's own
// policy, identity and gzip. Zero allocations per series is asserted,
// not just reported.
func BenchmarkEncodeSeries(b *testing.B) {
	for _, points := range []int{168, 2016} {
		qr := encodeBenchSeries(points)
		for _, gz := range []bool{false, true} {
			name := fmt.Sprintf("points=%d/identity", points)
			if gz {
				name = fmt.Sprintf("points=%d/gzip", points)
			}
			b.Run(name, func(b *testing.B) {
				enc := newStreamEncoder(discardResponse{http.Header{}}, nil, "miss", false, gz, false)
				defer enc.release()
				now := time.Now()
				encode := func() {
					if err := enc.series(qr, now); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < 64; i++ { // grow the buffer, warm the deflater
					encode()
				}
				if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
					b.Fatalf("%.1f allocations per encoded series, want 0", allocs)
				}
				b.ReportAllocs()
				body, _ := qr.appendJSON(nil)
				b.SetBytes(int64(len(body)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					encode()
				}
			})
		}
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so the
// benchmark measures the encoder and not a recorder's growing buffer.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header       { return d.h }
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) WriteHeader(int)             {}
