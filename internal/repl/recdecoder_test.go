package repl

// The follower's live-stream decoder against arbitrary record streams.
// Run
//
//	go test -run '^$' -fuzz FuzzRecDecoder ./internal/repl
//
// to search beyond the seed corpus every plain `go test` runs.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"repro/internal/tsdb"
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
	p := binary.LittleEndian.AppendUint32([]byte{1}, fid)
	p = appendStr(p, metric)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(tags)/2))
	for _, s := range tags {
		p = appendStr(p, s)
	}
	return p
}

// pointsPayload is a points record of (fid, timestamp, value) triples.
func pointsPayload(pts ...[3]uint64) []byte {
	p := binary.LittleEndian.AppendUint16([]byte{2}, uint16(len(pts)))
	for _, pt := range pts {
		p = binary.LittleEndian.AppendUint32(p, uint32(pt[0]))
		p = binary.LittleEndian.AppendUint64(p, pt[1])
		p = binary.LittleEndian.AppendUint64(p, pt[2])
	}
	return p
}

// recordStream reads fuzz input as length-prefixed record payloads —
// one length byte, then up to that many payload bytes — and frames each
// as a valid WAL record.
func recordStream(input []byte) []byte {
	var stream []byte
	for len(input) > 0 {
		n := min(max(int(input[0]), 1), len(input)-1)
		if n == 0 {
			break
		}
		stream = append(stream, walRecord(input[1:1+n])...)
		input = input[1+n:]
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
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dec := newRecDecoder(db)
	var out decodeOutcome
	for _, p := range pieces {
		n, err := dec.feed(p)
		if err != nil {
			return decodeOutcome{failed: true}
		}
		out.consumed += n
	}
	out.series = make(map[uint32]string, len(dec.fids))
	for fid, ref := range dec.fids {
		out.series[fid] = ref.Key()
	}
	for _, rp := range dec.batch {
		out.batch = append(out.batch, fmt.Sprintf("%s@%d=%#x", rp.Ref.Key(), rp.Point.Timestamp, math.Float64bits(rp.Point.Value)))
	}
	return out
}

// FuzzRecDecoder builds CRC-valid record streams from the input,
// optionally corrupting one byte, and feeds them to the decoder whole
// and split at a fuzzed offset. Neither may panic, and both must reach
// the same outcome: a record boundary is not the stream's to choose, a
// fData frame may end anywhere.
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
		if corrupt != 0 && len(stream) > 0 {
			stream[int(corrupt)%len(stream)] ^= byte(corrupt>>8) | 1
		}
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
