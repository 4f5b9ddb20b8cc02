package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// oldPerPointWAL renders the layout written before the magic header:
// one crc|len|metric+tags+ts+value record per point.
func oldPerPointWAL() []byte {
	var buf []byte
	for i := 0; i < 3; i++ {
		payload := appendWALString(nil, "wal.compat")
		payload = binary.LittleEndian.AppendUint16(payload, 0)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(baseTS+int64(i)*1000))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(float64(i)))
		rec, off := beginWALRecord(buf)
		buf = finishWALRecord(append(rec, payload...), off)
	}
	return buf
}

func allPoints(t *testing.T, db *DB, metric string, tags map[string]string) []Point {
	t.Helper()
	pts, err := db.SeriesWindowExact(metric, tags, 0, maxTS)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestWALOpenRule: a log that does not start with the magic is either
// a stamp torn by a crash on first open (a strict prefix of the
// magic), which reopens empty and is restamped, or a file this build
// does not read, which fails Open naming the path and is left exactly
// as it was.
func TestWALOpenRule(t *testing.T) {
	type tc struct {
		name    string
		content []byte
		refused bool
	}
	var cases []tc
	for n := 1; n < len(walMagic); n++ {
		cases = append(cases, tc{fmt.Sprintf("torn-stamp-%d", n), []byte(walMagic[:n]), false})
	}
	random := make([]byte, 256)
	rand.New(rand.NewSource(7)).Read(random)
	cases = append(cases,
		tc{"old-per-point-layout", oldPerPointWAL(), true},
		tc{"random-bytes", random, true},
		tc{"short-non-prefix", []byte("CTX"), true},
		tc{"other-magic", []byte("CTTWAL1\n"), true},
	)
	tags := map[string]string{"sensor": "s1"}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, walFileName)
			if err := os.WriteFile(path, c.content, 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := OpenOptions(diskOpts(dir))
			if c.refused {
				if err == nil {
					db.Close()
					t.Fatal("Open accepted a file without the magic")
				}
				if !strings.Contains(err.Error(), path) {
					t.Fatalf("error %q does not name %s", err, path)
				}
				if got, _ := os.ReadFile(path); !bytes.Equal(got, c.content) {
					t.Fatalf("refused file changed on disk: %d bytes, want %d", len(got), len(c.content))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := db.PointCount(); n != 0 || db.WALBytes() != int64(len(walMagic)) {
				t.Fatalf("torn stamp reopened with %d points, %d WAL bytes", n, db.WALBytes())
			}
			if err := put(db, DataPoint{Metric: "wal.open", Tags: tags, Point: Point{Timestamp: baseTS, Value: 1}}); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := OpenOptions(diskOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if got := allPoints(t, db2, "wal.open", tags); len(got) != 1 || got[0].Value != 1 {
				t.Fatalf("write after restamp not replayed: %v", got)
			}
		})
	}
}

// TestWALDictRoundTrip: group-committed batches — dictionary records
// plus packed point records — replay byte-identically, through both a
// clean reopen and a post-compaction reopen.
func TestWALDictRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	tagsA := map[string]string{"sensor": "a"}
	tagsB := map[string]string{"sensor": "b"}
	refA, err := db.Intern("wal.dict", tagsA)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := db.Intern("wal.dict", tagsB)
	if err != nil {
		t.Fatal(err)
	}
	var batch []RefPoint
	for i := 0; i < 600; i++ { // crosses a seal boundary on each series
		ref := refA
		if i%2 == 1 {
			ref = refB
		}
		batch = append(batch, RefPoint{Ref: ref, Point: Point{Timestamp: baseTS + int64(i)*500, Value: float64(i)}})
	}
	if res := db.AppendRefs(batch); res.Stored != len(batch) {
		t.Fatalf("stored %d, want %d", res.Stored, len(batch))
	}
	wantA := allPoints(t, db, "wal.dict", tagsA)
	wantB := allPoints(t, db, "wal.dict", tagsB)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := allPoints(t, db2, "wal.dict", tagsA); !reflect.DeepEqual(got, wantA) {
		t.Fatalf("series a diverged after replay: %d vs %d points", len(got), len(wantA))
	}
	if got := allPoints(t, db2, "wal.dict", tagsB); !reflect.DeepEqual(got, wantB) {
		t.Fatalf("series b diverged after replay: %d vs %d points", len(got), len(wantB))
	}

	// Compaction rewrites sealed blocks as block records and heads as
	// points records; a third open must see the same data again.
	if err := db2.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := allPoints(t, db3, "wal.dict", tagsA); !reflect.DeepEqual(got, wantA) {
		t.Fatal("series a diverged after compaction replay")
	}
	if got := allPoints(t, db3, "wal.dict", tagsB); !reflect.DeepEqual(got, wantB) {
		t.Fatal("series b diverged after compaction replay")
	}
}

// TestWALTornDictRecord: a dictionary record cut mid-write must stop
// replay cleanly at the intact prefix — and so must a points record
// referencing a series whose dictionary record never made it.
func TestWALTornDictRecord(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := put(db, DataPoint{Metric: "wal.torn", Tags: map[string]string{"s": "1"}, Point: Point{Timestamp: baseTS, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFileName)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Fabricate a full dictionary record for a second series, then cut
	// it mid-payload.
	other := &Ref{metric: "wal.torn2", pairs: []Tag{{"s", "2"}}}
	rec := encodeSeriesRecord(nil, 7, other)
	torn := append(append([]byte{}, intact...), rec[:len(rec)-3]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := allPoints(t, db2, "wal.torn", map[string]string{"s": "1"}); len(got) != 1 {
		t.Fatalf("intact prefix lost: %d points", len(got))
	}
	if db2.SeriesCount() != 1 {
		t.Fatalf("torn dictionary record materialized a series: %d series", db2.SeriesCount())
	}
	// Replay truncated the torn tail so appends restart at a clean
	// boundary.
	if int64(len(intact)) != db2.WALBytes() {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", db2.WALBytes(), len(intact))
	}
	db2.Close()

	// A points record whose series id has no dictionary record (the
	// dict record was torn away entirely) must also stop replay.
	orphan := encodeRawPointsRecord(nil, 42, []Point{{Timestamp: baseTS, Value: 9}})
	bad := append(append([]byte{}, intact...), orphan...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	db3, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := db3.PointCount(); got != 1 {
		t.Fatalf("orphan points record applied: %d points", got)
	}
}

// TestWALReplRecordGolden pins the on-disk layout of the replication
// bookkeeping records (types 5 and 6) to the bytes documented in
// docs/FORMAT.md §3.3. A drift here breaks follower resume across
// versions, so the encoding is asserted byte for byte against a
// hand-built golden record.
func TestWALReplRecordGolden(t *testing.T) {
	frame := func(payload []byte) []byte {
		rec := make([]byte, 8, 8+len(payload))
		binary.LittleEndian.PutUint32(rec[0:4], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(len(payload)))
		return append(rec, payload...)
	}

	pos := ReplPos{Gen: 0x1122334455667788, Off: 0x0102030405060708, Epoch: 3, Detached: true}
	payload := []byte{walRecReplPos}
	payload = binary.LittleEndian.AppendUint64(payload, pos.Gen)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(pos.Off))
	payload = binary.LittleEndian.AppendUint64(payload, pos.Epoch)
	payload = append(payload, 1) // flags: bit 0 = detached
	want := frame(payload)
	if got := encodeReplPosRecord(nil, pos); !reflect.DeepEqual(got, want) {
		t.Fatalf("replpos record drifted from documented layout:\ngot  %x\nwant %x", got, want)
	}
	if rt, ok := parseReplPosRecord(want[9:]); !ok || rt != pos {
		t.Fatalf("replpos round trip: %+v ok=%v", rt, ok)
	}

	payload = []byte{walRecGen}
	payload = binary.LittleEndian.AppendUint64(payload, 42)
	want = frame(payload)
	if got := encodeGenRecord(nil, 42); !reflect.DeepEqual(got, want) {
		t.Fatalf("gen record drifted from documented layout:\ngot  %x\nwant %x", got, want)
	}
	if g, ok := parseGenRecord(want[9:]); !ok || g != 42 {
		t.Fatalf("gen round trip: %d ok=%v", g, ok)
	}
}

// TestWALCompactedByRetention: after retention deletes points, the
// compacted log shrinks and a reopen sees exactly the surviving data
// — the file stops growing forever.
func TestWALCompactedByRetention(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	tags := map[string]string{"sensor": "r"}
	for i := 0; i < 1000; i++ {
		if err := put(db, DataPoint{Metric: "wal.ret", Tags: tags,
			Point: Point{Timestamp: baseTS + int64(i)*1000, Value: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	before := db.WALBytes()
	cutoff := baseTS + 900*1000
	if n, err := db.DeleteBefore(cutoff); err != nil || n != 900 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if err := db.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	after := db.WALBytes()
	if after >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before, after)
	}
	fi, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != after {
		t.Fatalf("WALBytes %d != file size %d", after, fi.Size())
	}
	// Writes after compaction append to the rewritten log.
	if err := put(db, DataPoint{Metric: "wal.ret", Tags: tags,
		Point: Point{Timestamp: baseTS + 2_000_000, Value: -1}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	pts := allPoints(t, db2, "wal.ret", tags)
	if len(pts) != 101 {
		t.Fatalf("replayed %d points, want 101 (100 survivors + 1 new)", len(pts))
	}
	for _, p := range pts[:100] {
		if p.Timestamp < cutoff {
			t.Fatalf("deleted point resurrected at %d", p.Timestamp)
		}
	}
}
