package tsdb

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// leaseAt registers a tailer at the WAL's current end — the state a
// just-snapshotted follower is in.
func leaseAt(t *testing.T, db *DB, maxLag int64) *WALReader {
	t.Helper()
	l := db.wal
	l.mu.Lock()
	if err := l.w.Flush(); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	gen, off := l.gen, l.size.Load()
	l.mu.Unlock()
	rd, err := db.WALTail(gen, off, maxLag)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// drain consumes events until the reader reports idle, returning the
// concatenated data bytes.
func drain(t *testing.T, rd *WALReader) []byte {
	t.Helper()
	var out []byte
	buf := make([]byte, 64<<10)
	stop := make(chan struct{})
	for {
		ev, err := rd.Next(buf, stop, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case WALData:
			out = append(out, ev.Data...)
		case WALIdle:
			return out
		case WALRemap:
			t.Fatalf("unexpected remap to gen %d", ev.Gen)
		}
	}
}

// walRecords splits raw WAL bytes into record payloads, verifying
// framing and CRCs.
func walRecords(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	var recs [][]byte
	end, err := scanWAL(bytes.NewReader(raw), 0, func(_ int64, rec []byte) bool {
		recs = append(recs, bytes.Clone(rec[walHeaderLen:]))
		return true
	})
	if err != nil {
		t.Fatalf("record at %d/%d: %v", end, len(raw), err)
	}
	return recs
}

func TestWALReaderStreamsAppends(t *testing.T) {
	db := mustOpenDisk(t, t.TempDir())
	defer db.Close()

	rd := leaseAt(t, db, 1<<20)
	defer rd.Close()

	fillDiskSeries(t, db, "m.lease", "n1", 10)
	raw := drain(t, rd)
	recs := walRecords(t, raw)
	var series, points int
	for _, p := range recs {
		switch p[0] {
		case walRecSeries:
			series++
		case walRecPoints:
			points++
		}
	}
	if series != 1 || points == 0 {
		t.Fatalf("streamed %d series / %d points records, want 1 / >0", series, points)
	}
}

func TestWALCompactDefersForLaggingLease(t *testing.T) {
	db := mustOpenDisk(t, t.TempDir())
	defer db.Close()
	fillDiskSeries(t, db, "m.defer", "n1", 5)

	rd := leaseAt(t, db, 1<<20)
	defer rd.Close()
	fillDiskSeries(t, db, "m.defer", "n1", 5) // bytes the lease has not read

	if err := db.CompactWAL(); !errors.Is(err, ErrTruncateDeferred) {
		t.Fatalf("CompactWAL with lagging lease = %v, want ErrTruncateDeferred", err)
	}

	// Drained, the rewrite proceeds and remaps the caught-up lease.
	drain(t, rd)
	if err := db.CompactWAL(); err != nil {
		t.Fatalf("CompactWAL after drain: %v", err)
	}
	buf := make([]byte, 4096)
	ev, err := rd.Next(buf, nil, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != WALRemap || ev.Gen != 2 {
		t.Fatalf("post-compact event = %+v, want remap to gen 2", ev)
	}
	// The remapped lease keeps streaming the new generation.
	fillDiskSeries(t, db, "m.defer", "n1", 3)
	if raw := drain(t, rd); len(walRecords(t, raw)) == 0 {
		t.Fatal("no records streamed after remap")
	}
}

func TestWALCompactRevokesLeasePastBudget(t *testing.T) {
	db := mustOpenDisk(t, t.TempDir())
	defer db.Close()

	rd := leaseAt(t, db, 64) // tiny byte budget
	defer rd.Close()
	fillDiskSeries(t, db, "m.revoke", "n1", 50)

	if err := db.CompactWAL(); err != nil {
		t.Fatalf("CompactWAL should revoke, not defer: %v", err)
	}
	buf := make([]byte, 4096)
	if _, err := rd.Next(buf, nil, time.Millisecond); !errors.Is(err, ErrWALResyncRequired) {
		t.Fatalf("revoked reader Next = %v, want ErrWALResyncRequired", err)
	}
}

func TestWALReaderDictPrefix(t *testing.T) {
	db := mustOpenDisk(t, t.TempDir())
	defer db.Close()
	fillDiskSeries(t, db, "m.dict.a", "n1", 3)
	fillDiskSeries(t, db, "m.dict.b", "n2", 3)

	rd := leaseAt(t, db, 1<<20)
	defer rd.Close()
	dict, err := rd.DictPrefix()
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords(t, dict)
	if len(recs) != 2 {
		t.Fatalf("dict holds %d records, want 2 series", len(recs))
	}
	for _, p := range recs {
		if p[0] != walRecSeries {
			t.Fatalf("dict record type %d, want series only", p[0])
		}
	}
}

func TestWALTailResumesAcrossGenerations(t *testing.T) {
	db := mustOpenDisk(t, t.TempDir())
	defer db.Close()
	fillDiskSeries(t, db, "m.chain", "n1", 5)

	rd := leaseAt(t, db, 1<<20)
	gen, off := rd.Pos()
	rd.Close()
	if gen != 1 {
		t.Fatalf("initial gen = %d, want 1", gen)
	}

	// Two rewrites with no lease attached: a caught-up position at the
	// old EOF must map forward through the remembered spans.
	if err := db.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	rd2, err := db.WALTail(gen, off, 1<<20)
	if err != nil {
		t.Fatalf("resume at old (gen,off): %v", err)
	}
	defer rd2.Close()
	if g, _ := rd2.Pos(); g != 3 {
		t.Fatalf("resumed gen = %d, want 3", g)
	}

	// A position not at a remembered EOF cannot chain.
	if _, err := db.WALTail(gen, off-1, 1<<20); !errors.Is(err, ErrWALResyncRequired) {
		t.Fatalf("stale mid-file resume = %v, want ErrWALResyncRequired", err)
	}
}

// refBatch builds a replication-style batch for one series.
func refBatch(t *testing.T, db *DB, metric string, n, from int) []RefPoint {
	t.Helper()
	ref, err := db.Intern(metric, map[string]string{"sensor": "n1", "city": "trondheim"})
	if err != nil {
		t.Fatal(err)
	}
	rps := make([]RefPoint, n)
	for i := range rps {
		rps[i] = RefPoint{Ref: ref, Point: Point{Timestamp: baseTS + int64(from+i)*60000, Value: float64(from + i)}}
	}
	return rps
}

func TestReplayDropsTailPastLastPosition(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	pos := ReplPos{Gen: 7, Off: 1000, Epoch: 3}
	if res := db.AppendRefsAt(refBatch(t, db, "m.pos", 10, 0), pos); res.Stored != 10 {
		t.Fatalf("AppendRefsAt stored %d/10: %+v", res.Stored, res.Errors)
	}
	// Records past the covered position: a torn stream write on a
	// replica. Replay must drop them — they will be re-fetched.
	if res := db.AppendRefs(refBatch(t, db, "m.pos", 5, 10)); res.Stored != 5 {
		t.Fatal("uncovered append failed")
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.wal.f.Close() // simulate crash: no clean Close rewriting state

	db2 := mustOpenDisk(t, dir)
	defer db2.Close()
	got, ok := db2.ReplPosition()
	if !ok || got != pos {
		t.Fatalf("replayed position = %+v ok=%v, want %+v", got, ok, pos)
	}
	pts, err := db2.SeriesWindowExact("m.pos", map[string]string{"sensor": "n1", "city": "trondheim"}, 0, maxTS)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("replayed %d points, want 10 (uncovered tail dropped)", len(pts))
	}
	if db2.ReplEpoch() != 3 {
		t.Fatalf("epoch = %d, want 3", db2.ReplEpoch())
	}
}

func TestReplayKeepsTailAfterDetach(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDisk(t, dir)
	if res := db.AppendRefsAt(refBatch(t, db, "m.det", 10, 0), ReplPos{Gen: 2, Off: 500, Epoch: 1}); res.Stored != 10 {
		t.Fatal("AppendRefsAt failed")
	}
	if _, err := db.DetachReplica(2); err != nil {
		t.Fatal(err)
	}
	// Writes after promotion are the node's own: replay keeps them.
	if res := db.AppendRefs(refBatch(t, db, "m.det", 5, 10)); res.Stored != 5 {
		t.Fatal("post-detach append failed")
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.wal.f.Close()

	db2 := mustOpenDisk(t, dir)
	defer db2.Close()
	pts, err := db2.SeriesWindowExact("m.det", map[string]string{"sensor": "n1", "city": "trondheim"}, 0, maxTS)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 15 {
		t.Fatalf("replayed %d points, want all 15 after detach", len(pts))
	}
	if db2.ReplEpoch() != 2 {
		t.Fatalf("epoch = %d, want fenced 2", db2.ReplEpoch())
	}
	if pos, _ := db2.ReplPosition(); !pos.Detached {
		t.Fatalf("position %+v should be detached", pos)
	}
}

func TestReadWALReplState(t *testing.T) {
	dir := t.TempDir()
	if _, ok := ReadWALReplState(dir, nil); ok {
		t.Fatal("empty dir should not be resumable")
	}

	db := mustOpenDisk(t, dir)
	pos := ReplPos{Gen: 4, Off: 2048, Epoch: 2}
	if res := db.AppendRefsAt(refBatch(t, db, "m.state", 4, 0), pos); res.Stored != 4 {
		t.Fatal("AppendRefsAt failed")
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	got, ok := ReadWALReplState(dir, nil)
	if !ok || got != pos {
		t.Fatalf("ReadWALReplState = %+v ok=%v, want %+v", got, ok, pos)
	}

	// Promotion detaches: the position survives but is not resumable.
	if _, err := db.DetachReplica(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := ReadWALReplState(dir, nil); ok {
		t.Fatal("detached state should not be resumable")
	}
	db.Close()

	// Local (non-replicated) stores are never resumable.
	dir2 := t.TempDir()
	db2 := mustOpenDisk(t, dir2)
	fillDiskSeries(t, db2, "m.local", "n1", 5)
	if err := db2.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ReadWALReplState(dir2, nil); ok {
		t.Fatal("a never-replicated WAL should not be resumable")
	}
	db2.Close()
}

func TestSnapshotPlusTailCoversEverything(t *testing.T) {
	db := mustOpenDisk(t, t.TempDir())
	defer db.Close()
	fillDiskSeries(t, db, "m.snap", "n1", 600)
	// Move the sealed prefix into block files so the snapshot ships
	// both kinds of state.
	if _, err := db.flushBefore(baseTS+500*60000, true); err != nil {
		t.Fatal(err)
	}

	var kinds = map[string]int{}
	rd, err := db.StreamSnapshot(1<<20, func(sf SnapshotFile) error {
		kinds[sf.Kind]++
		// Consume the reader fully, as the server would.
		buf := make([]byte, 32<<10)
		var got int64
		for got < sf.Size {
			n := int64(len(buf))
			if n > sf.Size-got {
				n = sf.Size - got
			}
			if _, err := sf.R.Read(buf[:n]); err != nil {
				return err
			}
			got += n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if kinds["wal"] != 1 || kinds["block"] == 0 || len(kinds) != 2 {
		t.Fatalf("snapshot kinds = %v, want 1 wal + blocks", kinds)
	}

	// Appends after the watermark stream through the lease with no gap.
	fillDiskSeries(t, db, "m.snap", "n1", 610)
	raw := drain(t, rd)
	if len(walRecords(t, raw)) == 0 {
		t.Fatal("no records streamed past the snapshot watermark")
	}
}
