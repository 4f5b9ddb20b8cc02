package tsdb

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// diskOpts opens a DB rooted at dir with the
// background loop disabled, so tests drive flush/compaction manually.
func diskOpts(dir string) Options {
	return Options{Dir: dir, FlushInterval: -1, CompactInterval: -1}
}

func mustOpenDisk(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// queryAll drains one exact series across the whole window.
func queryAll(t *testing.T, db *DB, metric, sensor string) []Point {
	t.Helper()
	pts, err := db.SeriesWindowExact(metric,
		map[string]string{"sensor": sensor, "city": "trondheim"}, 0, maxTS)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func fillDiskSeries(t *testing.T, db *DB, metric, sensor string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := put(db, pt(metric, sensor, i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

func assertSeries(t *testing.T, pts []Point, n int) {
	t.Helper()
	if len(pts) != n {
		t.Fatalf("got %d points, want %d", len(pts), n)
	}
	for i, p := range pts {
		if p.Timestamp != baseTS+int64(i)*60000 || p.Value != float64(i) {
			t.Fatalf("point %d = %+v, want ts=%d v=%d", i, p, baseTS+int64(i)*60000, i)
		}
	}
}

func TestFlushAndReadParity(t *testing.T) {
	db := mustOpenDisk(t, t.TempDir())
	defer db.Close()
	// 600 points: two sealed blocks (256 each) + 88 head points.
	fillDiskSeries(t, db, "m.flush", "n1", 600)
	before := queryAll(t, db, "m.flush", "n1")
	assertSeries(t, before, 600)

	// Flush everything before minute 500: whole blocks, a straddling
	// block split, and part of the head.
	cutoff := baseTS + 500*60000
	stats, err := db.flushBefore(cutoff, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != 500 {
		t.Fatalf("flushed %d points, want 500", stats.Points)
	}
	if stats.Files == 0 || stats.Chunks == 0 {
		t.Fatalf("stats = %+v, want files and chunks", stats)
	}
	assertSeries(t, queryAll(t, db, "m.flush", "n1"), 600)
	if db.PointCount() != 600 {
		t.Fatalf("PointCount = %d, want 600", db.PointCount())
	}
	st := db.DiskStats()
	if !st.Enabled || st.Files != stats.Files || st.Bytes == 0 || st.LastFlush.IsZero() {
		t.Fatalf("DiskStats = %+v", st)
	}
	if st.WALTruncationPending {
		t.Fatal("truncation should have completed")
	}
}

func TestDiskRestartDurability(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	fillDiskSeries(t, db, "m.restart", "n1", 600)
	fillDiskSeries(t, db, "m.restart", "n2", 40) // head-only series
	want1 := queryAll(t, db, "m.restart", "n1")
	if _, err := db.flushBefore(baseTS+300*60000, true); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDisk(t, dir)
	defer db2.Close()
	got1 := queryAll(t, db2, "m.restart", "n1")
	assertSeries(t, got1, 600)
	for i := range want1 {
		if got1[i] != want1[i] {
			t.Fatalf("point %d changed across restart: %+v != %+v", i, got1[i], want1[i])
		}
	}
	assertSeries(t, queryAll(t, db2, "m.restart", "n2"), 40)
	if db2.PointCount() != 640 {
		t.Fatalf("PointCount = %d, want 640", db2.PointCount())
	}
}

func TestWALShrinksAfterFlush(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	defer db.Close()
	fillDiskSeries(t, db, "m.trunc", "n1", 600)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.flushBefore(baseTS+590*60000, true); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("WAL did not shrink: %d -> %d bytes", before.Size(), after.Size())
	}
	if db.WALBytes() != after.Size() {
		t.Fatalf("WALBytes = %d, file = %d", db.WALBytes(), after.Size())
	}
}

func TestCrashBetweenFlushAndTruncate(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	fillDiskSeries(t, db, "m.crash", "n1", 600)
	// Flush without the follow-up WAL truncation: equivalent to being
	// killed after the marker fsync + renames.
	if _, err := db.flushBefore(baseTS+300*60000, false); err != nil {
		t.Fatal(err)
	}
	if !db.DiskStats().WALTruncationPending {
		t.Fatal("expected pending truncation")
	}
	db.Close()

	// Replay must honor the marker: flushed points come from the block
	// file, the rest from the WAL — exactly once each.
	db2 := mustOpenDisk(t, dir)
	assertSeries(t, queryAll(t, db2, "m.crash", "n1"), 600)
	if db2.PointCount() != 600 {
		t.Fatalf("PointCount = %d, want 600 (duplicate or lost replay)", db2.PointCount())
	}
	if !db2.DiskStats().WALTruncationPending {
		t.Fatal("replay should re-mark the pending truncation")
	}
	// The compactor's first pass completes the truncation.
	if _, err := db2.CompactBlocks(); err != nil {
		t.Fatal(err)
	}
	if db2.DiskStats().WALTruncationPending {
		t.Fatal("truncation still pending after CompactBlocks")
	}
	db2.Close()

	db3 := mustOpenDisk(t, dir)
	defer db3.Close()
	assertSeries(t, queryAll(t, db3, "m.crash", "n1"), 600)
}

func TestFlushMarkerIgnoredWhenFileMissing(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	fillDiskSeries(t, db, "m.torn", "n1", 300)
	// A marker whose files never appeared (crash between the marker
	// fsync and the renames) must be inert at replay.
	if err := db.wal.appendFlushMarker(baseTS+250*60000, []string{blockFileName(0, 999)}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := mustOpenDisk(t, dir)
	defer db2.Close()
	assertSeries(t, queryAll(t, db2, "m.torn", "n1"), 300)
	if db2.PointCount() != 300 {
		t.Fatalf("PointCount = %d, want 300", db2.PointCount())
	}
}

// blockFilesIn lists live block file paths under dir/blocks.
func blockFilesIn(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "blocks"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), blockFileSuffix) {
			out = append(out, filepath.Join(dir, "blocks", e.Name()))
		}
	}
	sort.Strings(out)
	return out
}

func TestCorruptCRCQuarantined(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	fillDiskSeries(t, db, "m.crc", "n1", 600)
	// Crash-equivalent: flush landed, truncation didn't, so the WAL
	// still holds everything the file holds.
	if _, err := db.flushBefore(baseTS+300*60000, false); err != nil {
		t.Fatal(err)
	}
	db.Close()

	files := blockFilesIn(t, dir)
	if len(files) == 0 {
		t.Fatal("no block files written")
	}
	// Flip a byte in the middle of the first file (payload region).
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDisk(t, dir)
	defer db2.Close()
	st := db2.DiskStats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, "blocks", quarantineDir, filepath.Base(files[0]))); err != nil {
		t.Fatalf("corrupt file not moved to quarantine: %v", err)
	}
	// The marker that named the quarantined file is inert, so the WAL
	// restores every point: nothing lost, nothing doubled.
	assertSeries(t, queryAll(t, db2, "m.crc", "n1"), 600)
}

func TestTornFinalBlockQuarantined(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	fillDiskSeries(t, db, "m.tear", "n1", 600)
	if _, err := db.flushBefore(baseTS+300*60000, false); err != nil {
		t.Fatal(err)
	}
	db.Close()

	files := blockFilesIn(t, dir)
	st, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the tail (footer and part of the index).
	if err := os.Truncate(files[0], st.Size()/2); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDisk(t, dir)
	defer db2.Close()
	if got := db2.DiskStats().Quarantined; got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	assertSeries(t, queryAll(t, db2, "m.tear", "n1"), 600)
}

func TestCompactMergesFiles(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	defer db.Close()
	fillDiskSeries(t, db, "m.merge", "n1", 600)
	// Three incremental flushes → three small files in one partition
	// (600 minutes all fall inside one 24h partition).
	for _, m := range []int{200, 400, 580} {
		if _, err := db.flushBefore(baseTS+int64(m)*60000, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.DiskStats().Files; got != 3 {
		t.Fatalf("files before compaction = %d, want 3", got)
	}
	merged, err := db.CompactBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if merged != 3 {
		t.Fatalf("merged %d inputs, want 3", merged)
	}
	st := db.DiskStats()
	if st.Files != 1 || st.Compactions != 1 {
		t.Fatalf("DiskStats after compaction = %+v", st)
	}
	assertSeries(t, queryAll(t, db, "m.merge", "n1"), 600)
	if got := len(blockFilesIn(t, dir)); got != 1 {
		t.Fatalf("%d block files on disk, want 1", got)
	}
}

func TestLoadDedupsCompactionLeftover(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	fillDiskSeries(t, db, "m.dup", "n1", 600)
	if _, err := db.flushBefore(baseTS+580*60000, true); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Simulate a crash between a compaction's rename and its input
	// deletion: copy the file under an older sequence number so both
	// copies hold identical chunks.
	files := blockFilesIn(t, dir)
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	part, seq, ok := parseBlockFileName(filepath.Base(files[0]))
	if !ok || seq == 0 {
		t.Fatalf("unparseable block file name %q", files[0])
	}
	stale := filepath.Join(dir, "blocks", blockFileName(part, seq-1))
	if err := os.WriteFile(stale, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDisk(t, dir)
	defer db2.Close()
	assertSeries(t, queryAll(t, db2, "m.dup", "n1"), 600)
	if db2.PointCount() != 600 {
		t.Fatalf("PointCount = %d, want 600 (leftover not deduped)", db2.PointCount())
	}
	if got := db2.DiskStats().Files; got != 1 {
		t.Fatalf("files = %d, want 1 (stale copy should be dropped)", got)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale leftover still on disk: %v", err)
	}
}

func TestDiskRetention(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	defer db.Close()
	fillDiskSeries(t, db, "m.ret", "n1", 600)
	if _, err := db.flushBefore(baseTS+580*60000, true); err != nil {
		t.Fatal(err)
	}
	// Compact into one file so retention exercises the rewrite path.
	if _, err := db.CompactBlocks(); err != nil {
		t.Fatal(err)
	}
	// Cut between the two sealed chunks (256-point seals): the first
	// chunk [0,255] wholly expires at minute 256; the rest survive.
	removed, err := db.DeleteBefore(baseTS + 256*60000)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 256 {
		t.Fatalf("removed %d points, want 256", removed)
	}
	pts := queryAll(t, db, "m.ret", "n1")
	if len(pts) != 344 || pts[0].Timestamp != baseTS+256*60000 {
		t.Fatalf("after retention: %d points starting %d", len(pts), pts[0].Timestamp)
	}

	// Expiring everything deletes the file and the series.
	removed, err = db.DeleteBefore(baseTS + 600*60000)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 344 {
		t.Fatalf("removed %d, want 344", removed)
	}
	if got := db.DiskStats(); got.Files != 0 || got.Bytes != 0 {
		t.Fatalf("disk not empty after full expiry: %+v", got)
	}
	if db.SeriesCount() != 0 {
		t.Fatalf("series survived full expiry: %d", db.SeriesCount())
	}
}

func TestSeriesSurvivesWhileOnDiskOnly(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	defer db.Close()
	fillDiskSeries(t, db, "m.alive", "n1", 300)
	// Flush everything: memory goes empty, disk holds it all.
	if _, err := db.flushBefore(baseTS+300*60000, true); err != nil {
		t.Fatal(err)
	}
	// A memory-only retention sweep at cutoff 0 must not drop the
	// series entry while its chunks live on disk.
	if _, err := db.DeleteBefore(baseTS); err != nil {
		t.Fatal(err)
	}
	if db.SeriesCount() != 1 {
		t.Fatalf("SeriesCount = %d, want 1", db.SeriesCount())
	}
	assertSeries(t, queryAll(t, db, "m.alive", "n1"), 300)
}

func TestFlushOutOfOrderStraddle(t *testing.T) {
	db := mustOpenDisk(t, t.TempDir())
	defer db.Close()
	// Interleave two time ranges so sealed blocks overlap, then flush
	// with a cutoff inside the overlap.
	for i := 0; i < 300; i++ {
		if err := put(db, pt("m.ooo", "n1", i*2, float64(i*2))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if err := put(db, pt("m.ooo", "n1", i*2+1, float64(i*2+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.flushBefore(baseTS+301*60000, true); err != nil {
		t.Fatal(err)
	}
	assertSeries(t, queryAll(t, db, "m.ooo", "n1"), 600)
}

// TestBlockFileGoldenSpec hand-decodes a block file with nothing but
// encoding/binary at the offsets docs/FORMAT.md specifies, proving
// the writer emits exactly the documented bytes — every region of the
// file is accounted for.
func TestBlockFileGoldenSpec(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	fillDiskSeries(t, db, "m.golden", "n1", 300) // one sealed block + head
	if _, err := db.flushBefore(baseTS+300*60000, true); err != nil {
		t.Fatal(err)
	}
	db.Close()

	files := blockFilesIn(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d block files, want 1", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	castag := crc32.MakeTable(crc32.Castagnoli)

	// Header: bytes [0,8) magic, [8,16) reserved zero.
	if string(raw[0:8]) != "CTTBLK2\n" {
		t.Fatalf("header magic = %q", raw[0:8])
	}
	for i := 8; i < 16; i++ {
		if raw[i] != 0 {
			t.Fatalf("reserved header byte %d = %#x, want 0", i, raw[i])
		}
	}

	// Footer: last 48 bytes.
	foot := raw[len(raw)-48:]
	if string(foot[40:48]) != "CTTBLKE\n" {
		t.Fatalf("tail magic = %q", foot[40:48])
	}
	if crc32.Checksum(foot[0:36], castag) != le.Uint32(foot[36:40]) {
		t.Fatal("footer CRC mismatch")
	}
	indexOff := le.Uint64(foot[0:8])
	fileMin := int64(le.Uint64(foot[8:16]))
	fileMax := int64(le.Uint64(foot[16:24]))
	chunkCount := le.Uint32(foot[24:28])
	seriesCount := le.Uint32(foot[28:32])
	indexCRC := le.Uint32(foot[32:36])
	if fileMin != baseTS || fileMax != baseTS+299*60000 {
		t.Fatalf("footer time range [%d,%d]", fileMin, fileMax)
	}
	if seriesCount != 1 || chunkCount != 2 { // 256-point seal + 44 head
		t.Fatalf("seriesCount=%d chunkCount=%d, want 1/2", seriesCount, chunkCount)
	}

	// Index section: [indexOff, len-48), CRC32C-protected.
	index := raw[indexOff : len(raw)-48]
	if crc32.Checksum(index, castag) != indexCRC {
		t.Fatal("index CRC mismatch")
	}
	// Series table: u32 count, then metric(str16) nTags(u16) pairs.
	off := 0
	if le.Uint32(index[off:]) != seriesCount {
		t.Fatal("series table count != footer seriesCount")
	}
	off += 4
	readStr := func() string {
		n := int(le.Uint16(index[off:]))
		off += 2
		s := string(index[off : off+n])
		off += n
		return s
	}
	if got := readStr(); got != "m.golden" {
		t.Fatalf("series metric = %q", got)
	}
	nTags := int(le.Uint16(index[off:]))
	off += 2
	tags := map[string]string{}
	for i := 0; i < nTags; i++ {
		k := readStr()
		tags[k] = readStr()
	}
	if tags["sensor"] != "n1" || tags["city"] != "trondheim" {
		t.Fatalf("series tags = %v", tags)
	}
	// Chunk table: u32 count, then 40-byte rows.
	if le.Uint32(index[off:]) != chunkCount {
		t.Fatal("chunk table count != footer chunkCount")
	}
	off += 4
	type row struct {
		seriesIdx            uint32
		minTS, maxTS         int64
		count, dataLen, crcv uint32
		offset               uint64
	}
	rows := make([]row, chunkCount)
	for i := range rows {
		r := index[off+i*40:]
		rows[i] = row{
			seriesIdx: le.Uint32(r[0:4]),
			minTS:     int64(le.Uint64(r[4:12])),
			maxTS:     int64(le.Uint64(r[12:20])),
			count:     le.Uint32(r[20:24]),
			offset:    le.Uint64(r[24:32]),
			dataLen:   le.Uint32(r[32:36]),
			crcv:      le.Uint32(r[36:40]),
		}
	}
	off += int(chunkCount) * 40
	if off != len(index) {
		t.Fatalf("index has %d unaccounted bytes", len(index)-off)
	}

	// Chunk records: header(28) | data | crc32c(data)(4), contiguous
	// from byte 16 up to indexOff.
	want := uint64(16)
	var decoded []Point
	for i, r := range rows {
		if r.offset != want {
			t.Fatalf("chunk %d at offset %d, want %d (gap or overlap)", i, r.offset, want)
		}
		rec := raw[r.offset:]
		if got := le.Uint32(rec[0:4]); got != r.seriesIdx {
			t.Fatalf("chunk %d seriesIdx header/table mismatch: %d/%d", i, got, r.seriesIdx)
		}
		if int64(le.Uint64(rec[4:12])) != r.minTS || int64(le.Uint64(rec[12:20])) != r.maxTS {
			t.Fatalf("chunk %d time bounds header/table mismatch", i)
		}
		if le.Uint32(rec[20:24]) != r.count || le.Uint32(rec[24:28]) != r.dataLen {
			t.Fatalf("chunk %d count/dataLen header/table mismatch", i)
		}
		data := rec[28 : 28+r.dataLen]
		if crc32.Checksum(data, castag) != r.crcv {
			t.Fatalf("chunk %d payload CRC mismatch", i)
		}
		if le.Uint32(rec[28+r.dataLen:]) != r.crcv {
			t.Fatalf("chunk %d trailing CRC != table CRC", i)
		}
		pts, err := decodeBlock(data, int(r.count))
		if err != nil {
			t.Fatalf("chunk %d payload not Gorilla-decodable: %v", i, err)
		}
		decoded = append(decoded, pts...)
		want = r.offset + 28 + uint64(r.dataLen) + 4
	}
	if want != indexOff {
		t.Fatalf("chunk section ends at %d, index starts at %d: unaccounted bytes", want, indexOff)
	}
	// And the payloads round-trip the original points.
	assertSeries(t, decoded, 300)
}

func TestFlushWithSimulatedClock(t *testing.T) {
	// FlushBlocks computes its cutoff from Options.Now — a simulated
	// clock must flush relative to simulated time, not wall time.
	dir := t.TempDir()
	simNow := time.UnixMilli(baseTS + 600*60000)
	opts := diskOpts(dir)
	opts.FlushAge = 100 * time.Minute
	opts.Now = func() time.Time { return simNow }
	db, err := OpenOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillDiskSeries(t, db, "m.clock", "n1", 600)
	stats, err := db.FlushBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != 500 { // everything older than minute 500
		t.Fatalf("flushed %d points, want 500", stats.Points)
	}
	assertSeries(t, queryAll(t, db, "m.clock", "n1"), 600)
}

func TestNegativeCompactIntervalNoPanic(t *testing.T) {
	// -compact-interval documents "negative = disabled"; the background
	// loop must use a disabled timer, not hand the negative duration to
	// time.NewTicker (which panics and takes the process down).
	opts := diskOpts(t.TempDir())
	opts.FlushInterval = 5 * time.Millisecond
	opts.CompactInterval = -1
	db, err := OpenOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	fillDiskSeries(t, db, "m.negint", "n1", 10)
	time.Sleep(30 * time.Millisecond) // let flush ticks fire
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRetentionRetriesPendingTruncation(t *testing.T) {
	// Retention must not delete or rewrite files a pending flush
	// marker names: it first retries the WAL truncation (like
	// CompactBlocks) so the marker leaves the log before any of its
	// file references are invalidated.
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	fillDiskSeries(t, db, "m.retpend", "n1", 600)
	// Flush without truncation: marker pending, WAL still full.
	if _, err := db.flushBefore(baseTS+300*60000, false); err != nil {
		t.Fatal(err)
	}
	if !db.DiskStats().WALTruncationPending {
		t.Fatal("expected pending truncation")
	}
	// Cutoff inside the flushed range: drops whole chunks and rewrites
	// the partially expired file.
	cutoff := baseTS + 290*60000
	if _, err := db.DeleteBefore(cutoff); err != nil {
		t.Fatal(err)
	}
	if db.DiskStats().WALTruncationPending {
		t.Fatal("retention should have completed the pending truncation first")
	}
	db.Close()

	// Restart: no marker references a rewritten/deleted file, so the
	// retained range must come back exactly once. Disk retention is
	// chunk-granular: the flushed chunk [256..299] straddles the
	// cutoff and survives whole, so minute 256 is the retained floor —
	// anything before it would be resurrection via a refused marker.
	db2 := mustOpenDisk(t, dir)
	defer db2.Close()
	pts := queryAll(t, db2, "m.retpend", "n1")
	floor := baseTS + 256*60000
	for i, p := range pts {
		if p.Timestamp < floor {
			t.Fatalf("point %d resurrected from the retention-deleted chunk", p.Timestamp)
		}
		if i > 0 && p.Timestamp <= pts[i-1].Timestamp {
			t.Fatalf("duplicate point at %d", p.Timestamp)
		}
	}
	if len(pts) != 344 || db2.PointCount() != 344 {
		t.Fatalf("got %d points, PointCount %d, want 344 (duplicates or loss)", len(pts), db2.PointCount())
	}
}

func TestInertMarkerDropsPartialFiles(t *testing.T) {
	// A crash can leave only some of a flush pass's renames durable
	// (marker fsynced, directory fsync lost). The marker is then inert
	// and the full WAL replays — so the named files that did survive
	// must be dropped at open, or every point they hold would be
	// served twice.
	dir := t.TempDir()
	opts := diskOpts(dir)
	opts.Partition = time.Hour // minute-spaced points => multiple files per flush
	db, err := OpenOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	fillDiskSeries(t, db, "m.inert", "n1", 600)
	if _, err := db.flushBefore(baseTS+300*60000, false); err != nil {
		t.Fatal(err)
	}
	files := blockFilesIn(t, dir)
	if len(files) < 2 {
		t.Fatalf("want >=2 block files for a partial-survival crash, got %d", len(files))
	}
	db.Close()
	// Simulate one rename lost in the crash.
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDisk(t, dir)
	defer db2.Close()
	assertSeries(t, queryAll(t, db2, "m.inert", "n1"), 600)
	if db2.PointCount() != 600 {
		t.Fatalf("PointCount = %d, want 600 (inert marker's files duplicated)", db2.PointCount())
	}
	if got := blockFilesIn(t, dir); len(got) != 0 {
		t.Fatalf("inert marker's surviving files not dropped: %v", got)
	}
	// The marker's sequence numbers stay reserved, so a later flush can
	// never mint a name the stale marker still references.
	var maxSeq uint64
	for _, f := range files {
		if _, seq, ok := parseBlockFileName(filepath.Base(f)); ok && seq > maxSeq {
			maxSeq = seq
		}
	}
	if db2.disk.nextSeq <= maxSeq {
		t.Fatalf("nextSeq %d not reserved past marker's max seq %d", db2.disk.nextSeq, maxSeq)
	}
}

func TestConcurrentFlushRetentionCompactWAL(t *testing.T) {
	// Lock-order smoke test (run under -race): ingest, flush passes,
	// WAL compaction and retention all running concurrently must not
	// deadlock or tear the log. CompactWAL serializes against the
	// structural ops via opMu.
	db := mustOpenDisk(t, t.TempDir())
	defer db.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := put(db, pt("m.conc", "n1", i, float64(i))); err != nil {
				t.Error(err)
				return
			}
			i++
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := db.flushBefore(baseTS+int64(100+i*20)*60000, true); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactWAL(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.DeleteBefore(baseTS + int64(i)*60000); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}

// TestNewestTimestamp: the newest-timestamp read finds a series' last
// point in whichever layer holds it — sealed blocks, the head, disk
// chunks — and reports a series without points as empty; Refs lists
// every series either way.
func TestNewestTimestamp(t *testing.T) {
	db := mustOpenDisk(t, t.TempDir())
	defer db.Close()
	tags := map[string]string{"sensor": "a", "city": "trondheim"}
	newest := func(want int64) {
		t.Helper()
		ts, ok := db.NewestTimestamp(db.Lookup("m.newest", tags))
		if !ok || ts != want {
			t.Fatalf("NewestTimestamp = %d, %v; want %d", ts, ok, want)
		}
	}
	fillDiskSeries(t, db, "m.newest", "a", 2*headSealSize) // sealed blocks, empty head
	newest(pt("m.newest", "a", 2*headSealSize-1, 0).Timestamp)
	if err := put(db, pt("m.newest", "a", 2*headSealSize, 0)); err != nil {
		t.Fatal(err)
	}
	newest(pt("m.newest", "a", 2*headSealSize, 0).Timestamp)
	if _, err := db.flushBefore(math.MaxInt64, true); err != nil {
		t.Fatal(err)
	}
	newest(pt("m.newest", "a", 2*headSealSize, 0).Timestamp)

	empty, err := db.Intern("m.empty", tags)
	if err != nil {
		t.Fatal(err)
	}
	if ts, ok := db.NewestTimestamp(empty); ok {
		t.Fatalf("series without points: NewestTimestamp = %d, true", ts)
	}
	if refs := db.Refs(); len(refs) != 2 || !slices.Contains(refs, empty) || !slices.Contains(refs, db.Lookup("m.newest", tags)) {
		t.Fatalf("Refs = %v, want m.newest and m.empty", refs)
	}
}
