package tsdb

// Tests for the tagged chunk payloads (gorilla.go, docs/FORMAT.md
// §2.7): the fuzz target, golden bytes for both value encodings, the
// wide-first-delta regression, and a data directory written by the
// build before the tag existed.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func samePoints(t *testing.T, what string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Timestamp != want[i].Timestamp || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("%s: point %d = (%d, %#x), want (%d, %#x)", what, i,
				got[i].Timestamp, math.Float64bits(got[i].Value), want[i].Timestamp, math.Float64bits(want[i].Value))
		}
	}
}

// chunkFuzzPoints derives an in-order point run from fuzz bytes, 16
// per point. The low bits of the first word pick how the second is
// read, so mutation keeps landing on exact decimals (the encoding
// under test) as well as on arbitrary bit patterns:
//
//	bits 0-1  value: 0 raw float bits · 1 int16/10 (a sensor reading) ·
//	          2 int32/10^s · 3 a 54-bit integer (around the 2^53 limit)
//	bits 2-3  timestamp step: 0 none (duplicate) · 1 the 5-minute
//	          cadence · 2 under 100 s · 3 anything up to 2^40 ms
//	bits 8-   the step for kinds 2 and 3
func chunkFuzzPoints(data []byte) []Point {
	n := min(len(data)/16, 600)
	pts := make([]Point, 0, n)
	ts := int64(0)
	for i := 0; i < n; i++ {
		d := binary.LittleEndian.Uint64(data[i*16:])
		v := binary.LittleEndian.Uint64(data[i*16+8:])
		switch d >> 2 & 3 {
		case 1:
			ts += 300000
		case 2:
			ts += int64(d >> 8 % 100000)
		case 3:
			ts += int64(d >> 8 % (1 << 40))
		}
		var val float64
		switch d & 3 {
		case 0:
			val = math.Float64frombits(v)
		case 1:
			val = float64(int16(v)) / 10
		case 2:
			val = float64(int32(v)) / pow10[v>>32%(maxDecimalScale+1)]
		case 3:
			val = float64(int64(v) >> 10)
		}
		pts = append(pts, Point{Timestamp: ts, Value: val})
	}
	return pts
}

// chunkFuzzSeed renders exact points in chunkFuzzPoints' input form
// (raw value bits, arbitrary step).
func chunkFuzzSeed(pts ...Point) []byte {
	var b []byte
	prev := int64(0)
	for _, p := range pts {
		b = binary.LittleEndian.AppendUint64(b, uint64(p.Timestamp-prev)<<8|3<<2)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Value))
		prev = p.Timestamp
	}
	return b
}

// FuzzChunkCodec holds the writer and the reader to two properties:
// any point run round-trips bit for bit through whichever encoding
// its values select, and any byte string read as a payload yields an
// error or exactly the announced count of points — never a panic.
func FuzzChunkCodec(f *testing.F) {
	run := func(vals ...float64) []byte {
		pts := make([]Point, len(vals))
		for i, v := range vals {
			pts[i] = Point{Timestamp: int64(i) * 300000, Value: v}
		}
		return chunkFuzzSeed(pts...)
	}
	negZero := math.Copysign(0, -1)
	floatSum := 0.1
	floatSum += 0.2 // at run time: 0.30000000000000004, not the constant 0.3
	f.Add(run(0, negZero, 0), uint16(3))
	f.Add(run(math.Float64frombits(0x7ff8000000000001), math.NaN(), 1), uint16(3))
	f.Add(run(math.Inf(1), 41.3, math.Inf(-1)), uint16(2))
	f.Add(run(5e-324, 2.2250738585072014e-308, 0), uint16(1))
	f.Add(run(1<<53-1, 1<<53, 1<<53+2, -(1<<53-1)), uint16(4))
	f.Add(run(floatSum, 0.3), uint16(2))
	f.Add(run(412, 413, 41.3, 41.25, 0.000001, 0.0000001), uint16(6)) // scale bumps mid-chunk, then past the last scale
	f.Add(run(41.3), uint16(1))
	f.Add(chunkFuzzSeed(Point{1000, 20.1}, Point{1000, 20.2}, Point{1000, 20.2}, Point{1000 + 1<<32, 20.3}), uint16(4))
	f.Add([]byte{tagDecimal | 7, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(1)) // scale past the table
	f.Add([]byte{0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		if pts := chunkFuzzPoints(data); len(pts) > 0 {
			payload, enc := encodeBlock(pts)
			if want := byte(tagXOR); enc == encXOR && payload[0] != want {
				t.Fatalf("xor chunk tagged %#x", payload[0])
			}
			if enc == encDecimal && payload[0]&^0x0F != tagDecimal {
				t.Fatalf("decimal chunk tagged %#x", payload[0])
			}
			got, err := decodeBlock(payload, len(pts))
			if err != nil {
				t.Fatalf("decode of own payload (%#x): %v", payload[0], err)
			}
			samePoints(t, "round trip", got, pts)
		}

		var c blockCursor
		c.reset(data, int(count))
		yielded := 0
		for {
			_, ok, err := c.next()
			if err != nil {
				return
			}
			if !ok {
				break
			}
			yielded++
		}
		if yielded != int(count) {
			t.Fatalf("cursor yielded %d points without error, announced %d", yielded, count)
		}
	})
}

// TestChunkEncodingChoice: the data alone picks the encoding, at the
// smallest scale that holds every value.
func TestChunkEncodingChoice(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floatSum := 0.1
	floatSum += 0.2 // at run time: 0.30000000000000004, not the constant 0.3
	for _, tc := range []struct {
		name string
		vals []float64
		tag  byte
	}{
		{"integers", []float64{412, 413, 411}, tagDecimal},
		{"one decimal", []float64{41.3, 41.0, -2.5}, tagDecimal | 1},
		{"scale bump mid-chunk", []float64{41, 41.3, 41.25}, tagDecimal | 2},
		{"micro", []float64{0.000001}, tagDecimal | 6},
		{"largest integer", []float64{1<<53 - 1, -(1<<53 - 1)}, tagDecimal},
		{"2^53", []float64{1 << 53}, tagXOR},
		{"tenth of a micro", []float64{0.0000001}, tagXOR},
		{"float sum", []float64{floatSum}, tagXOR},
		{"negative zero", []float64{1, negZero}, tagXOR},
		{"NaN", []float64{1, math.NaN()}, tagXOR},
		{"Inf", []float64{math.Inf(1)}, tagXOR},
		{"a mean", []float64{41.3, (41.3 + 41.4 + 41.4) / 3}, tagXOR},
	} {
		pts := make([]Point, len(tc.vals))
		for i, v := range tc.vals {
			pts[i] = Point{Timestamp: baseTS + int64(i)*300000, Value: v}
		}
		payload, _ := encodeBlock(pts)
		if payload[0] != tc.tag {
			t.Errorf("%s: tag %#x, want %#x", tc.name, payload[0], tc.tag)
		}
		got, err := decodeBlock(payload, len(pts))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		samePoints(t, tc.name, got, pts)
	}
}

// TestChunkPayloadGolden builds one decimal and one XOR payload field
// by field, with the bit-at-a-time reference writer, from the layout
// docs/FORMAT.md §2.7 documents, and pins the encoder to those bytes.
func TestChunkPayloadGolden(t *testing.T) {
	const t0 = 1488326400000 // 2017-03-01T00:00:00Z

	// Decimal, scale 1: 41.3, 41.3, 41.5, -2.0.
	var w refBitWriter
	w.writeBits(tagDecimal|1, 8)
	w.writeBits(t0, 64)
	w.writeBits(0b110, 3) // k₀ = 413 → zig-zag 826, 12-bit bucket
	w.writeBits(826, 12)
	w.writeBits(0b1110, 4) // first delta 300000 − 0, 20-bit DoD bucket
	w.writeBits(300000+524287, 20)
	w.writeBits(0, 1)    // k unchanged
	w.writeBits(0, 1)    // DoD 0
	w.writeBits(0b10, 2) // k +2 → zig-zag 4, 7-bit bucket
	w.writeBits(4, 7)
	w.writeBits(0b10, 2) // DoD +123, 14-bit bucket
	w.writeBits(123+8191, 14)
	w.writeBits(0b110, 3) // k −435 → zig-zag 869
	w.writeBits(869, 12)
	pts := []Point{{t0, 41.3}, {t0 + 300000, 41.3}, {t0 + 600000, 41.5}, {t0 + 900123, -2}}
	got, enc := encodeBlock(pts)
	if enc != encDecimal || !bytes.Equal(got, w.buf) {
		t.Fatalf("decimal payload drifted from the documented layout:\ngot  %x\nwant %x", got, w.buf)
	}
	if want := "110000015a872a9800c675d927be41281eb1b280"; hex.EncodeToString(got) != want {
		t.Fatalf("decimal payload bytes:\ngot  %x\nwant %s", got, want)
	}

	// XOR: 1.5, 1.5, -0.0 (no decimal has −0's bits), first gap 2^32 ms.
	negZero := math.Copysign(0, -1)
	w = refBitWriter{}
	w.writeBits(tagXOR, 8)
	w.writeBits(t0, 64)
	w.writeBits(math.Float64bits(1.5), 64)
	w.writeBits(0b1111, 4) // first delta 2^32: the 64-bit escape
	w.writeBits(1<<32, 64)
	w.writeBits(0, 1)      // value unchanged
	w.writeBits(0b1111, 4) // DoD 300000 − 2^32
	dod := int64(300000) - 1<<32
	w.writeBits(uint64(dod), 64)
	xor := math.Float64bits(1.5) ^ math.Float64bits(negZero) // 0xbff8…: 0 leading, 51 trailing zeros
	w.writeBits(0b11, 2)                                     // value changed, new window
	w.writeBits(0, 5)                                        // leading zeros
	w.writeBits(13-1, 6)                                     // significant bits − 1
	w.writeBits(xor>>51, 13)
	pts = []Point{{t0, 1.5}, {t0 + 1<<32, 1.5}, {t0 + 1<<32 + 300000, negZero}}
	got, enc = encodeBlock(pts)
	if enc != encXOR || !bytes.Equal(got, w.buf) {
		t.Fatalf("xor payload drifted from the documented layout:\ngot  %x\nwant %x", got, w.buf)
	}
	dec, err := decodeBlock(got, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "xor golden", dec, pts)
}

// TestFirstDeltaFullWidth: a series that goes dark for 50 days or more
// and comes back used to seal with its first delta cut to 33 bits and
// read back with negative timestamps; the tagged layout carries the
// first delta at full width.
func TestFirstDeltaFullWidth(t *testing.T) {
	for _, gap := range []int64{1 << 31, 1 << 32, 1 << 33, (60 * 24 * time.Hour).Milliseconds()} {
		pts := []Point{{1000, 1}, {1000 + gap, 2}, {1000 + gap + 300000, 3}}
		payload, _ := encodeBlock(pts)
		got, err := decodeBlock(payload, len(pts))
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, "codec", got, pts)

		// The same through a store's seal path: one early point, then a
		// head's worth after the gap.
		db := mustOpen(t)
		want := []Point{{baseTS, 0.5}}
		for i := 1; i < headSealSize; i++ {
			want = append(want, Point{baseTS + gap + int64(i)*300000, float64(i)})
		}
		tags := map[string]string{"sensor": "dark"}
		for _, p := range want {
			if err := put(db, DataPoint{Metric: "node.battery", Tags: tags, Point: p}); err != nil {
				t.Fatal(err)
			}
		}
		if db.CompressedBytes() == 0 {
			t.Fatal("head did not seal")
		}
		samePoints(t, "sealed block", allPoints(t, db, "node.battery", tags), want)
	}
}

// TestLegacyDataDirectory: testdata/legacy_v1 was written by the
// commit before the payload tag (e0b8211) — a CTTBLK1 block file and a
// CTTWAL2 log holding untagged block records (type 3). This build
// refuses to open it, naming the compatibility rules, and changes
// nothing in it: with the block file the open stops at it, and the log
// alone stops at its first untagged record. An untagged payload that
// reaches a cursor fails to decode.
func TestLegacyDataDirectory(t *testing.T) {
	const blk = "0000015957536400-00000001.blk"
	for _, files := range [][]string{
		{walFileName, filepath.Join("blocks", blk)},
		{walFileName},
	} {
		dir := t.TempDir()
		for _, name := range files {
			raw, err := os.ReadFile(filepath.Join("testdata", "legacy_v1", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := dirContents(t, dir)
		db, err := OpenOptions(diskOpts(dir))
		if err == nil {
			db.Close()
			t.Fatalf("%v: opened a pre-release directory", files)
		}
		if !strings.Contains(err.Error(), "FORMAT.md §4") {
			t.Fatalf("%v: refusal %q does not name FORMAT.md §4", files, err)
		}
		after := dirContents(t, dir)
		for name, raw := range before {
			if after[name] != raw {
				t.Fatalf("%v: refused open changed %s", files, name)
			}
		}
		for name := range after {
			if _, ok := before[name]; !ok && strings.HasSuffix(name, blockFileSuffix) {
				t.Fatalf("%v: refused open wrote %s", files, name)
			}
		}
		if len(files) == 2 && len(after) != len(before) {
			t.Fatalf("%v: refused open left %d entries, found %d", files, len(after), len(before))
		}
	}

	untagged := []byte{0, 0, 1, 0x5a, 0x75, 0x36, 0x40, 0, 0x40, 0x79, 0, 0, 0, 0, 0, 0, 0}
	if _, err := decodeBlock(untagged, 1); err == nil {
		t.Fatal("an untagged payload decoded")
	}
}

// dirContents maps every entry under dir to its bytes ("" for a
// directory).
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			out[rel] = ""
			return nil
		}
		raw, err := os.ReadFile(path)
		out[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
