package tsdb

// Fuzzing for the XOR layout against the bit-at-a-time reference
// codec: the reference encoder produces the bytes, and both the
// production cursor and the reference decoder must return the
// original points bit for bit. Run with
//
//	go test -fuzz FuzzGorillaCodec ./internal/tsdb
//
// to search for divergence; the seed corpus runs in every plain
// `go test`, covering the DoD buckets, the 64-bit escape paths, and
// NaN/Inf value bit patterns. FuzzChunkCodec (chunk_codec_test.go)
// covers both layouts as the writer emits them.

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzPoints derives an in-order point stream from raw fuzz bytes:
// 16 bytes per point — 8 for a non-negative timestamp delta (mixing
// small and huge jumps so every DoD bucket is hit), 8 for the raw
// value bits (hitting NaN payloads, infinities and denormals).
func fuzzPoints(data []byte) []Point {
	n := len(data) / 16
	if n == 0 {
		return nil
	}
	if n > 512 {
		n = 512
	}
	pts := make([]Point, 0, n)
	ts := int64(0)
	for i := 0; i < n; i++ {
		d := binary.LittleEndian.Uint64(data[i*16:])
		v := binary.LittleEndian.Uint64(data[i*16+8:])
		// Bias deltas: even selectors stay in the small DoD buckets,
		// odd ones take multi-day jumps through the 64-bit escape path.
		if d%2 == 0 {
			ts += int64(d % 100000)
		} else {
			ts += int64(d % (1 << 40))
		}
		pts = append(pts, Point{Timestamp: ts, Value: math.Float64frombits(v)})
	}
	return pts
}

func FuzzGorillaCodec(f *testing.F) {
	// Seeds: regular cadence, repeated values, every DoD bucket edge,
	// value sign flips and special floats.
	seed := func(pairs ...uint64) []byte {
		var b []byte
		for _, p := range pairs {
			b = binary.LittleEndian.AppendUint64(b, p)
		}
		return b
	}
	f.Add(seed(0, math.Float64bits(412.5), 300000*2, math.Float64bits(412.5), 300000*2, math.Float64bits(413.0)))
	f.Add(seed(2, math.Float64bits(1), 8192*2, math.Float64bits(-1), 65536*2, math.Float64bits(1e300)))
	f.Add(seed(524288*2, math.Float64bits(1e-300), 1, math.Float64bits(0), 3, math.Float64bits(math.Inf(1))))
	f.Add(seed(99999*2, math.Float64bits(math.NaN())|1, 0, 0, 0, math.Float64bits(42)))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzPoints(data)
		if len(pts) == 0 {
			return
		}

		ref := newRefBlockEncoder()
		for _, p := range pts {
			ref.add(p.Timestamp, p.Value)
		}
		legacy, n := ref.finish()
		fromNew, err := decodeBlock(legacy, n)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		fromRef, err := refDecodeBlock(legacy, n)
		if err != nil {
			t.Fatalf("refDecode: %v", err)
		}
		samePoints(t, "decode", fromNew, pts)
		samePoints(t, "refDecode", fromRef, pts)
	})
}

// TestGorillaRefParity pins the production cursor to the reference
// layout on a deterministic mixed workload (regular cadence,
// duplicate timestamps, value plateaus, big jumps) without needing
// the fuzzer.
func TestGorillaRefParity(t *testing.T) {
	var pts []Point
	ts := baseTS
	vals := []float64{412.5, 412.5, 413.25, -7, 0, 0, 1e300, 1e-300, math.Inf(-1), 42}
	for i := 0; i < 400; i++ {
		switch i % 5 {
		case 0:
			ts += 300000
		case 1:
			ts += 0 // duplicate timestamp
		case 2:
			ts += 61000
		case 3:
			ts += 24 * 3600 * 1000 // escape-bucket jump
		default:
			ts += 1
		}
		pts = append(pts, Point{Timestamp: ts, Value: vals[i%len(vals)]})
	}
	ref := newRefBlockEncoder()
	for _, p := range pts {
		ref.add(p.Timestamp, p.Value)
	}
	legacy, n := ref.finish()
	dec, err := decodeBlock(legacy, n)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "decode", dec, pts)
}
