package api

// The encoder's bytes and its cost: a series' points against
// encoding/json, and the per-series encode against an allocation
// budget of zero. The float printer itself is fuzzed against strconv
// and encoding/json in internal/jsonenc; FuzzAppendJSONFloat here
// holds a series carrying the fuzzed reading to the reflective
// marshaler, and FuzzAppendJSONKeys holds the dps key writer to
// strconv.

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/jsonenc"
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

// FuzzAppendJSONKeys: count points from start, step apart — every
// dup'th point (dup > 0) repeating the timestamp before it — with
// values cycled from the 8-byte words of vals, every other one rounded
// to a reading of three decimals. appendJSON must write strconv's keys,
// each followed by jsonenc.AppendFloat's value, in order and with a
// run of equal timestamps kept as its last point; where the keys have
// one width and ascend, it must also be what encoding/json renders for
// the equivalent map.
func FuzzAppendJSONKeys(f *testing.F) {
	seed := []byte{0, 0, 0, 0, 0, 0x40, 0x79, 0x40, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xf1, 0xbf} // 404, -1.1
	for _, s := range []struct {
		start, step int64
		count       uint16
		dup         uint8
	}{
		{1488326400000, 300000, 2016, 0}, // a week of the pilot's readings
		{1499999990000, 1000, 40, 0},     // across the ts/1e8 boundary at 1.5e12
		{1e12 - 4000, 1000, 8, 0},        // from 12 digits to 13
		{1e13 - 4000, 1000, 8, 0},        // from 13 digits to 14
		{3000, -1000, 8, 0},              // down through zero to negative
		{-1e12 - 2, -1, 8, 0},            // negative: 13 digits after the sign
		{1488326400000, 300000, 12, 3},   // every third timestamp repeated
		{1488326400000, 0, 4, 0},         // one timestamp throughout
		{math.MaxInt64 - 2, 1, 4, 0},     // wraps to the most negative
	} {
		f.Add(s.start, s.step, s.count, s.dup, seed)
	}
	f.Fuzz(func(t *testing.T, start, step int64, count uint16, dup uint8, vals []byte) {
		qr := queryResult{Metric: "air.co2", Points: make([]tsdb.Point, int(count)%2100)}
		ts := start
		for i := range qr.Points {
			if i > 0 && (dup == 0 || i%int(dup) != 0) {
				ts += step
			}
			v := float64(400000+(i*7919)%90000) / 1000
			if words := len(vals) / 8; words > 0 {
				v = math.Float64frombits(binary.LittleEndian.Uint64(vals[i%words*8:]))
				if i%2 == 1 {
					v = math.Round(v*1000) / 1000
				}
			}
			qr.Points[i] = tsdb.Point{Timestamp: ts, Value: v}
		}
		got, err := qr.appendJSON(nil)

		want := []byte(`{"metric":"air.co2","tags":{},"dps":{`)
		var keys []string
		var werr error
		for i, p := range qr.Points {
			if i+1 < len(qr.Points) && qr.Points[i+1].Timestamp == p.Timestamp {
				continue
			}
			if len(keys) > 0 {
				want = append(want, ',')
			}
			keys = append(keys, strconv.FormatInt(p.Timestamp, 10))
			want = append(strconv.AppendQuote(want, keys[len(keys)-1]), ':')
			if want, werr = jsonenc.AppendFloat(want, p.Value); werr != nil {
				break
			}
		}
		want = append(want, '}', '}')
		if (err != nil) != (werr != nil) {
			t.Fatalf("error %v, the reference %v", err, werr)
		}
		if err != nil {
			return
		}
		if string(got) != string(want) {
			t.Fatalf("appendJSON:\n %s\nstrconv keys:\n %s", got, want)
		}

		for i := 1; i < len(keys); i++ {
			if len(keys[i]) != len(keys[0]) || keys[i] <= keys[i-1] {
				return // encoding/json would sort or merge these keys
			}
		}
		dps := map[string]float64{}
		for _, p := range qr.Points {
			dps[strconv.FormatInt(p.Timestamp, 10)] = p.Value
		}
		viaJSON, _ := json.Marshal(struct {
			Metric string             `json:"metric"`
			Tags   map[string]string  `json:"tags"`
			DPS    map[string]float64 `json:"dps"`
		}{qr.Metric, map[string]string{}, dps})
		if string(got) != string(viaJSON) {
			t.Fatalf("appendJSON:\n %s\nencoding/json:\n %s", got, viaJSON)
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

// encodeBenchMix is a week of raw readings in the pilots' value
// shapes, in turn: one, two and three decimals (temperature, NO2,
// CO2), negative integers (net.rssi), non-decimal values
// (traffic.jamfactor) and hourly means of three-decimal readings (as
// node.battery in testdata/cold_battery.json).
func encodeBenchMix(n int) queryResult {
	qr := queryResult{Metric: "mix", Tags: map[string]string{"sensor": "ctt-node-07", "city": "trondheim"}}
	for i := 0; i < n; i++ {
		var v float64
		switch k := i * 7919; i % 6 {
		case 0:
			v = float64(k%400) / 10
		case 1:
			v = float64(k%9000) / 100
		case 2:
			v = float64(400000+k%90000) / 1000
		case 3:
			v = -float64(60 + k%60)
		case 4:
			v = float64(k%1000) / 997
		case 5:
			var sum float64
			for j := 0; j < 12; j++ {
				sum += float64(70000+(k+j*31)%9000) / 1000
			}
			v = sum / 12
		}
		qr.Points = append(qr.Points, tsdb.Point{Timestamp: 1488326400000 + int64(i)*300000, Value: v})
	}
	return qr
}

// BenchmarkEncodeSeries is the encoder's cost per result series — a
// week of hourly buckets, a week of raw five-minute readings and a
// week of the pilots' mixed value shapes — appended to a warm pooled
// buffer and pushed on the encoder's own policy, identity and gzip.
// Zero allocations per series is asserted, not just reported.
func BenchmarkEncodeSeries(b *testing.B) {
	for _, c := range []struct {
		name string
		qr   queryResult
	}{
		{"points=168", encodeBenchSeries(168)},
		{"points=2016", encodeBenchSeries(2016)},
		{"mix=2016", encodeBenchMix(2016)},
	} {
		qr := c.qr
		for _, gz := range []bool{false, true} {
			name := c.name + "/identity"
			if gz {
				name = c.name + "/gzip"
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
