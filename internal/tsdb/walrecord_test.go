package tsdb

// The WAL's one framer and record decoder against arbitrary record
// streams, fed as a replica's stream (FuzzRecDecoder) and as a log to
// replay (FuzzWALReplay). Run
//
//	go test -run '^$' -fuzz FuzzRecDecoder ./internal/tsdb
//	go test -run '^$' -fuzz FuzzWALReplay ./internal/tsdb
//
// to search beyond the seed corpus every plain `go test` runs.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// walRecord frames a record payload as the WAL stores it: the CRC-32
// of the payload, its length, the payload.
func walRecord(payload []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	return append(rec, payload...)
}

// seriesPayload is a series record: fid, metric, tags.
func seriesPayload(fid uint32, metric string, tags ...string) []byte {
	p := binary.LittleEndian.AppendUint32([]byte{walRecSeries}, fid)
	p = appendWALString(p, metric)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(tags)/2))
	for _, s := range tags {
		p = appendWALString(p, s)
	}
	return p
}

// pointsPayload is a points record of (fid, timestamp, value) triples.
func pointsPayload(pts ...[3]uint64) []byte {
	p := binary.LittleEndian.AppendUint16([]byte{walRecPoints}, uint16(len(pts)))
	for _, pt := range pts {
		p = binary.LittleEndian.AppendUint32(p, uint32(pt[0]))
		p = binary.LittleEndian.AppendUint64(p, pt[1])
		p = binary.LittleEndian.AppendUint64(p, pt[2])
	}
	return p
}

// recordPayloads reads fuzz input as length-prefixed record payloads:
// one length byte, then up to that many payload bytes.
func recordPayloads(input []byte) [][]byte {
	var out [][]byte
	for len(input) > 0 {
		n := min(max(int(input[0]), 1), len(input)-1)
		if n == 0 {
			break
		}
		out = append(out, input[1:1+n])
		input = input[1+n:]
	}
	return out
}

// recordStream frames each of recordPayloads(input) as a valid WAL
// record.
func recordStream(input []byte) []byte {
	var stream []byte
	for _, p := range recordPayloads(input) {
		stream = append(stream, walRecord(p)...)
	}
	return stream
}

// fuzzInput is the inverse of recordStream for seeds.
func fuzzInput(payloads ...[]byte) []byte {
	var in []byte
	for _, p := range payloads {
		in = append(append(in, byte(len(p))), p...)
	}
	return in
}

// corruptStream flips one byte of stream as the fuzz arguments say,
// returning its index, or -1 when corrupt is 0.
func corruptStream(stream []byte, corrupt uint16) int {
	if corrupt == 0 || len(stream) == 0 {
		return -1
	}
	i := int(corrupt) % len(stream)
	stream[i] ^= byte(corrupt>>8) | 1
	return i
}

// decodeOutcome is what a fresh decoder makes of stream fed in the
// given pieces: whether any feed failed and, if none did, the total
// bytes consumed, the series each fid names and the collected batch.
type decodeOutcome struct {
	failed   bool
	consumed int64
	series   map[uint32]string
	batch    []string
}

func decodeIn(t *testing.T, pieces ...[]byte) decodeOutcome {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dec := db.NewWALDecoder()
	var out decodeOutcome
	for _, p := range pieces {
		n, pts, err := dec.Feed(p)
		if err != nil {
			return decodeOutcome{failed: true}
		}
		out.consumed += n
		for _, rp := range pts {
			out.batch = append(out.batch, fmt.Sprintf("%s@%d=%#x", rp.Ref.Key(), rp.Point.Timestamp, math.Float64bits(rp.Point.Value)))
		}
	}
	out.series = make(map[uint32]string, len(dec.refs))
	for fid, ref := range dec.refs {
		out.series[fid] = ref.Key()
	}
	return out
}

// FuzzRecDecoder builds CRC-valid record streams from the input,
// optionally corrupting one byte, and feeds them to the decoder whole
// and split at a fuzzed offset. Neither may panic, and both must reach
// the same outcome: a record boundary is not the stream's to choose, a
// data frame may end anywhere.
func FuzzRecDecoder(f *testing.F) {
	series := seriesPayload(7, "air.co2", "sensor", "n1", "city", "trondheim")
	other := seriesPayload(9, "air.no2", "sensor", "n2")
	points := pointsPayload([3]uint64{7, 1488326400000, math.Float64bits(412.5)}, [3]uint64{9, 1488326460000, math.Float64bits(-1)})
	for _, seed := range []struct {
		in             []byte
		split, corrupt uint16
	}{
		{fuzzInput(series, points), 0, 0},
		{fuzzInput(series, other, points), 30, 0},
		{fuzzInput(series, other, points), 200, 0},
		{fuzzInput(series, []byte{4}, other, []byte{5, 0, 0}, points), 57, 0},
		{fuzzInput(series, other, points), 45, 12},
		{fuzzInput(series, pointsPayload([3]uint64{8, 1, 1})), 10, 0},                    // unannounced fid
		{fuzzInput(seriesPayload(1, "bad name"), points), 5, 0},                          // intern refuses
		{fuzzInput(series, []byte{3}), 40, 0},                                            // block record
		{fuzzInput(series, []byte{2, 1, 0, 7}), 40, 0},                                   // short points record
		{append(fuzzInput(series), 0xff, 2), 3, 0},                                       // truncated tail
		{fuzzInput(seriesPayload(7, "air.co2", "sensor"), points), 0, 0},                 // odd tag string
		{fuzzInput(series, seriesPayload(7, "air.pm10", "sensor", "n1"), points), 60, 0}, // fid reuse
	} {
		f.Add(seed.in, seed.split, seed.corrupt)
	}
	f.Fuzz(func(t *testing.T, in []byte, split, corrupt uint16) {
		stream := recordStream(in)
		corruptStream(stream, corrupt)
		k := int(split) % (len(stream) + 1)
		whole := decodeIn(t, stream)
		parts := decodeIn(t, stream[:k], stream[k:])
		if whole.failed != parts.failed {
			t.Fatalf("split at %d of %d: failed %v, whole %v", k, len(stream), parts.failed, whole.failed)
		}
		if whole.failed {
			return
		}
		if whole.consumed != parts.consumed {
			t.Fatalf("split at %d of %d: consumed %d, whole %d", k, len(stream), parts.consumed, whole.consumed)
		}
		if fmt.Sprint(whole.series) != fmt.Sprint(parts.series) {
			t.Fatalf("split at %d of %d: series %v, whole %v", k, len(stream), parts.series, whole.series)
		}
		if !slices.Equal(whole.batch, parts.batch) {
			t.Fatalf("split at %d of %d: batch %v, whole %v", k, len(stream), parts.batch, whole.batch)
		}
	})
}

// storeContents renders every series db holds and its stored points,
// sealed blocks then head, as they sit in memory.
func storeContents(t *testing.T, db *DB) map[string]string {
	out := make(map[string]string)
	for _, ref := range db.Refs() {
		sh := &db.shards[ref.shard]
		sh.mu.RLock()
		var b strings.Builder
		for _, blk := range ref.s.blocks {
			pts, err := decodeBlock(blk.data, blk.n)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%v|", pts)
		}
		fmt.Fprintf(&b, "%v", ref.s.head)
		sh.mu.RUnlock()
		out[ref.Key()] = b.String()
	}
	return out
}

// streamedContents feeds pieces to a decoder on a fresh store, up to
// the first error, and stores every point it yields as replay does.
func streamedContents(t *testing.T, pieces ...[]byte) map[string]string {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dec := db.NewWALDecoder()
	for _, p := range pieces {
		_, pts, err := dec.Feed(p)
		db.insertRefBatch(pts)
		if err != nil {
			break
		}
	}
	return storeContents(t, db)
}

// FuzzWALReplay writes CRC-valid record streams built from the input,
// optionally with one byte corrupted, as a log after the magic and
// opens it. Open must not panic, and may fail only by refusing a
// type-3 record. For streams of series and points records alone,
// replay must store what the stream decoder yields over the same bytes,
// fed whole and split, and — no phantom points — what it yields over
// the records before the corrupted one.
func FuzzWALReplay(f *testing.F) {
	series := seriesPayload(7, "air.co2", "sensor", "n1", "city", "trondheim")
	other := seriesPayload(9, "air.no2", "sensor", "n2")
	points := pointsPayload([3]uint64{7, 1488326400000, math.Float64bits(412.5)}, [3]uint64{9, 1488326460000, math.Float64bits(-1)})
	for _, seed := range []struct {
		in             []byte
		split, corrupt uint16
	}{
		{fuzzInput(series, other, points), 30, 0},
		{fuzzInput(series, other, points, points), 45, 0},
		{fuzzInput(series, other, points, points), 60, 0x0170}, // a timestamp in the second points record
		{fuzzInput(series, other, points), 45, 12},
		{fuzzInput(series, pointsPayload([3]uint64{8, 1, 1}), other, points), 10, 0}, // unannounced fid
		{fuzzInput(seriesPayload(1, "bad name"), points), 5, 0},                      // intern refuses
		{fuzzInput(series, []byte{3}), 40, 0},                                        // type 3: refused
		{fuzzInput(series, []byte{9}, other, points), 40, 0},                         // unknown type
		{fuzzInput(series, []byte{2, 1, 0, 7}, points), 40, 0},                       // short points record
		{append(fuzzInput(series, points), 0xff, 2), 3, 0},                           // truncated tail
		{fuzzInput(series, []byte{4}, other, []byte{5, 0, 0}, []byte{6}, points), 57, 0},
		{fuzzInput(series, []byte{7, 7, 0, 0, 0}, points), 20, 0}, // short block2 record
	} {
		f.Add(seed.in, seed.split, seed.corrupt)
	}
	f.Fuzz(func(t *testing.T, in []byte, split, corrupt uint16) {
		payloads := recordPayloads(in)
		stream := recordStream(in)
		clean := slices.Clone(stream)
		bad := corruptStream(stream, corrupt)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, WALFileName), append([]byte(walMagic), stream...), 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenOptions(diskOpts(dir))
		if err != nil {
			if !strings.Contains(err.Error(), "(type 3)") {
				t.Fatalf("open failed other than by refusing a type-3 record: %v", err)
			}
			return
		}
		defer db.Close()
		for _, p := range payloads {
			switch p[0] {
			case walRecFlush, walRecReplPos, walRecGen, walRecBlock2:
				return // replay's own bookkeeping: the stream passes over it
			}
		}
		replayed := storeContents(t, db)
		k := int(split) % (len(stream) + 1)
		if got := streamedContents(t, stream); !maps.Equal(replayed, got) {
			t.Fatalf("replay stored %v, the stream decoder %v", replayed, got)
		}
		if got := streamedContents(t, stream[:k], stream[k:]); !maps.Equal(replayed, got) {
			t.Fatalf("split at %d of %d: replay stored %v, the stream decoder %v", k, len(stream), replayed, got)
		}
		if bad < 0 {
			return
		}
		start := 0
		for _, p := range payloads {
			if start+walHeaderLen+len(p) > bad {
				break
			}
			start += walHeaderLen + len(p)
		}
		if got := streamedContents(t, clean[:start]); !maps.Equal(replayed, got) {
			t.Fatalf("byte %d corrupted: replay stored %v, the records before it hold %v", bad, replayed, got)
		}
	})
}
