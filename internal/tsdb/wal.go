package tsdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tsdb/fsio"
)

// wal is a single-file append-only write-ahead log in the layout
// docs/FORMAT.md §3 specifies: an 8-byte magic header, then records
//
//	crc32(4) | len(4) | payload
//
// where payload[0] is the record type:
//
//	series (1):  fileID(4) | metric(str) | nTags(2) | (key(str) value(str))*
//	points (2):  count(2) | count × ( fileID(4) | ts(8) | value(8) )
//	block2 (7):  fileID(4) | minTS(8) | maxTS(8) | n(4) | dataLen(4) | data
//	flush  (4):  cutoffMS(8) | nFiles(2) | fileName(str)*
//	replpos(5):  gen(8) | off(8) | epoch(8) | flags(1)
//	gen    (6):  gen(8)
//
// str is a 16-bit length prefix + bytes; data is a tagged chunk
// payload (gorilla.go). The records are built around group commit: a
// batch of points costs one lock acquisition and one buffered write,
// and series identity travels as a dictionary of fileIDs, local to one
// file session, instead of per point. CompactWAL rewrites the log from
// the store's state (sealed blocks as block2 records), so the file
// tracks the data instead of growing forever. flush records are the
// durable-block commit markers (§3.2); replpos and gen records hold a
// replica's resume position and the generation tailers fence offsets
// with (§3.3). walrecord.go reads the records back; replay
// (replayV2Locked) stops at the first one it cannot frame or apply and
// truncates the log there.
type wal struct {
	mu   sync.Mutex
	fs   fsio.FS
	f    fsio.File
	w    *bufio.Writer
	path string

	// fileIDs maps interned series to the dictionary id announced in
	// this file session; absent means the series record must be logged
	// before its first point. Guarded by mu.
	fileIDs    map[SeriesID]uint32
	nextFileID uint32

	// scratch is the group-commit build buffer, reused under mu.
	scratch []byte

	// broken is set when the log handle is no longer writing to the
	// on-disk file (compaction renamed the path but could not reopen
	// it): every subsequent append and sync fails with it, so writers
	// see the durability loss instead of filling an unlinked inode.
	broken error

	// size is the current logical file size in bytes (including any
	// not-yet-flushed buffered tail) — the ctt_wal_bytes gauge.
	size atomic.Int64

	// lastSync is the wall-clock UnixNano of the last successful fsync
	// (the open time before any) — /healthz reports its age.
	lastSync atomic.Int64

	// gen identifies the current file generation for external tailers
	// (replication sessions): compaction rewrites the file and bumps
	// it, persisting the new value in a leading gen record so offsets
	// from an older file body can never be mistaken for offsets into
	// the rewritten one across a restart. Guarded by mu.
	gen uint64

	// genHist remembers recently closed generations (their final size
	// and the successor's base) so a tailer that was exactly caught up
	// when the log was rewritten can resume without a snapshot.
	// In-memory only; a restart empties it. Guarded by mu.
	genHist []walGenSpan

	// leases are the live registered tailers. Truncation defers (or
	// revokes, past a byte budget) rather than rewriting bytes a lease
	// has not streamed. Guarded by mu.
	leases []*WALReader
}

// walGenSpan records one closed generation: the file size when
// compaction retired it and the compacted successor's base offset.
type walGenSpan struct {
	gen      uint64
	eof      int64
	nextBase int64
}

// WALFileName and BlockDirName name the log and the block file
// directory inside a data directory (docs/FORMAT.md §1).
const (
	WALFileName  = "tsdb.wal"
	BlockDirName = "blocks"
)

const (
	walMagic = "CTTWAL2\n"

	walRecSeries  = 1
	walRecPoints  = 2
	walRecFlush   = 4
	walRecReplPos = 5
	walRecGen     = 6
	// walRecBlock2 carries a sealed block. Type 3, the same record
	// with an untagged payload, is refused: see replayV2Locked.
	walRecBlock2 = 7

	// maxWALPointsPerRecord chunks huge batches so the 16-bit count
	// always fits with slack.
	maxWALPointsPerRecord = 8192

	// maxWALScratch bounds the retained build buffer.
	maxWALScratch = 1 << 20
)

// errWALFsync classifies a failed WAL fsync (as opposed to a failed
// buffered write). After a rejected fsync the kernel may drop the
// dirty pages while the process-side page cache still reads back
// clean, so no retry can be trusted — callers degrade immediately on
// errors.Is(err, errWALFsync).
var errWALFsync = errors.New("tsdb: wal fsync failed")

func openWAL(dir string, fs fsio.FS) (*wal, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: wal dir: %w", err)
	}
	path := filepath.Join(dir, WALFileName)
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tsdb: wal open: %w", err)
	}
	l := &wal{
		fs:         fs,
		f:          f,
		w:          bufio.NewWriterSize(f, 64<<10),
		path:       path,
		fileIDs:    make(map[SeriesID]uint32),
		nextFileID: 1,
		gen:        1,
	}
	// Fsync age counts from open until the first explicit sync.
	l.lastSync.Store(time.Now().UnixNano())
	return l, nil
}

// replayWAL streams every intact record of the log into the store
// (bypassing the WAL and observers), then positions the file for
// appends, truncating any torn tail. A file that does not open with
// the magic is refused and left untouched, unless it is empty or a
// prefix of the magic: a stamp torn by a crash on first open, which
// cannot precede any record, so it is restamped.
func (db *DB) replayWAL(l *wal) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var magic [8]byte
	n, err := io.ReadFull(l.f, magic[:])
	switch {
	case err == nil && string(magic[:]) == walMagic:
		return db.replayV2Locked(l)
	case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
		return fmt.Errorf("tsdb: wal read: %w", err)
	case n == len(walMagic) || string(magic[:n]) != walMagic[:n]:
		return fmt.Errorf("tsdb: %s is not a CTTWAL2 log: migrate it with an older build or move it aside", l.path)
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := l.f.Write([]byte(walMagic)); err != nil {
		return err
	}
	l.w.Reset(l.f)
	l.size.Store(int64(len(walMagic)))
	return nil
}

// replayV2Locked replays a current-format file in two passes. Pass 1
// (frameWAL) frames every intact record and finds the flush markers
// that will be honored (all named block files loaded). Pass 2 replays
// with a running suppression horizon: a record earlier in the log than
// an honored marker drops its points below that marker's cutoff —
// they're already in the block files — so "replay since last flush"
// falls out of full-file replay. Caller holds l.mu and has consumed
// the magic header.
func (db *DB) replayV2Locked(l *wal) error {
	fr, err := frameWAL(l.f, l.path, db.disk.hasFile)
	if err != nil {
		// Nothing has been changed yet: the log is left as it is.
		return err
	}
	// A replica's log is only trusted up to the end of its last
	// position record: trailing records are data the resume offset does
	// not acknowledge, so they are dropped here and re-fetched from the
	// primary (applying them AND resuming past-position would duplicate
	// them; resuming at-position would, too). A detached position
	// (promotion) means the node owns everything after it. Markers past
	// the cut are no longer part of the log: they are inert, so their
	// block files are cleaned up rather than suppressing points the
	// truncated log must now replay.
	if fr.lastPos != nil && !fr.lastPos.Detached && fr.lastPosEnd < fr.end {
		fr.end = fr.lastPosEnd
	}
	var markers []walMarker // honored markers only
	for _, m := range fr.markers {
		m.honored = m.honored && m.start < fr.end
		db.disk.noteReplayMarker(m.files, m.honored)
		if m.honored {
			markers = append(markers, m)
		}
	}
	// suffix[i] = max cutoff over markers[i:] — the horizon for a
	// record that precedes marker i.
	suffix := make([]int64, len(markers)+1)
	suffix[len(markers)] = math.MinInt64
	for i := len(markers) - 1; i >= 0; i-- {
		suffix[i] = max(markers[i].cutoff, suffix[i+1])
	}

	// Pass 2: replay, stopping at the first record that does not apply.
	d := db.NewWALDecoder()
	var replayedPos *ReplPos
	mi := 0
	body := io.NewSectionReader(l.f, int64(len(walMagic)), fr.end-int64(len(walMagic)))
	validEnd, err := scanWAL(body, int64(len(walMagic)), func(start int64, rec []byte) bool {
		for mi < len(markers) && markers[mi].start <= start {
			mi++
		}
		var err error
		switch p := rec[walHeaderLen+1:]; rec[walHeaderLen] {
		case walRecSeries:
			err = d.series(p)
		case walRecPoints:
			d.batch = d.batch[:0]
			if err = d.points(p, suffix[mi]); err == nil {
				db.insertRefBatch(d.batch)
			}
		case walRecBlock2:
			if !db.applyBlockRecord(p, d.refs, suffix[mi]) {
				err = ErrWALCorrupt
			}
		case walRecReplPos:
			// Only a position the replay actually covered counts as the
			// durable resume offset.
			if pos, ok := parseReplPosRecord(p); ok {
				replayedPos = &pos
			}
		}
		return err == nil
	})
	if err != nil {
		// Pass 1 framed these bytes: this is a read error, and nothing
		// may be truncated on the strength of it.
		return fmt.Errorf("tsdb: wal read: %w", err)
	}
	if err := l.f.Truncate(validEnd); err != nil {
		return err
	}
	if _, err := l.f.Seek(validEnd, io.SeekStart); err != nil {
		return err
	}
	l.w.Reset(l.f)
	l.size.Store(validEnd)
	l.gen = fr.gen
	if replayedPos != nil {
		db.replPos.Store(replayedPos)
	}
	// A fresh session re-announces every series it touches: fileIDs
	// starts empty and new ids start past everything replayed, so ids
	// never collide within one file.
	l.fileIDs = make(map[SeriesID]uint32)
	l.nextFileID = 1
	for fid := range d.refs {
		l.nextFileID = max(l.nextFileID, fid+1)
	}
	// Surviving honored markers mean flushes whose WAL truncation
	// never landed: the compactor retries truncation before touching
	// the files those markers reference.
	db.markersPending.Store(len(markers) > 0)
	return nil
}

// walMarker is a flush marker found while framing: where its record
// starts, its cutoff and block files, and whether every file loaded.
type walMarker struct {
	start, cutoff int64
	files         []string
	honored       bool
}

// walFraming is what framing a log finds: where its framed records
// end, its last replication position and where that record ends, its
// flush markers, and the file generation.
type walFraming struct {
	end, lastPosEnd int64
	markers         []walMarker
	lastPos         *ReplPos
	gen             uint64
}

// frameWAL frames the log body r holds (read past the magic), stopping
// cleanly at the first record that does not frame or parse or is of an
// unknown type. A type-3 record fails it: the log is from a pre-release
// build (docs/FORMAT.md §4); so does a read error. hasFile reports
// whether a marker's block file loaded.
func frameWAL(r io.Reader, path string, hasFile func(string) bool) (fr walFraming, err error) {
	fr.gen = 1
	var refused error
	fr.end, err = scanWAL(r, int64(len(walMagic)), func(start int64, rec []byte) bool {
		ok := true
		switch p := rec[walHeaderLen+1:]; rec[walHeaderLen] {
		case walRecSeries, walRecPoints, walRecBlock2:
		case 3:
			refused = fmt.Errorf("tsdb: %s holds an untagged block record (type 3) from a pre-release build, which this build does not read (docs/FORMAT.md §4)", path)
			ok = false
		case walRecFlush:
			var m walMarker
			if m.cutoff, m.files, ok = parseFlushMarker(p); ok {
				m.start, m.honored = start, len(m.files) > 0
				for _, name := range m.files {
					m.honored = m.honored && hasFile(name)
				}
				fr.markers = append(fr.markers, m)
			}
		case walRecReplPos:
			var pos ReplPos
			if pos, ok = parseReplPosRecord(p); ok {
				fr.lastPos, fr.lastPosEnd = &pos, start+int64(len(rec))
			}
		case walRecGen:
			var g uint64
			if g, ok = parseGenRecord(p); ok {
				fr.gen = g
			}
		default:
			ok = false
		}
		return ok
	})
	if refused != nil {
		return fr, refused
	}
	if err == io.ErrUnexpectedEOF || errors.Is(err, ErrWALCorrupt) {
		err = nil // a torn or corrupt record ends the log
	}
	return fr, err
}

// applyBlockRecord restores one sealed block (written by compaction):
// verbatim when wholly past the suppression horizon, trimmed when it
// straddles, skipped when wholly below; false means corrupt.
func (db *DB) applyBlockRecord(p []byte, refs map[uint32]*Ref, horizon int64) bool {
	if len(p) < 4+8+8+4+4 {
		return false
	}
	ref := refs[binary.LittleEndian.Uint32(p)]
	if ref == nil {
		return false
	}
	minTS := int64(binary.LittleEndian.Uint64(p[4:]))
	maxTS := int64(binary.LittleEndian.Uint64(p[12:]))
	n := int(binary.LittleEndian.Uint32(p[20:]))
	dataLen := int(binary.LittleEndian.Uint32(p[24:]))
	if n <= 0 || len(p) != 28+dataLen {
		return false
	}
	if maxTS < horizon {
		return true // wholly flushed: the block files hold it
	}
	if minTS < horizon {
		pts, err := decodeBlock(p[28:], n)
		if err != nil {
			return false
		}
		for _, pt := range pts {
			if pt.Timestamp >= horizon {
				db.insertRef(RefPoint{Ref: ref, Point: pt})
			}
		}
		return true
	}
	data := make([]byte, dataLen)
	copy(data, p[28:])
	sh := &db.shards[ref.shard]
	sh.mu.Lock()
	ref.s.blocks = append(ref.s.blocks, sealedBlock{minTS: minTS, maxTS: maxTS, n: n, data: data})
	sh.mu.Unlock()
	return true
}

// appendRefs group-commits a batch: dictionary records for any series
// this file has not announced yet, then packed points records, built
// in the reused scratch buffer and handed to the OS with a single
// buffered write under a single lock acquisition. A non-nil pos
// (replica apply path) rides in the same write as a replpos record,
// so the durable resume offset and the data it covers are one
// atomic-at-replay unit.
func (l *wal) appendRefs(pts []RefPoint, pos *ReplPos) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	buf := l.scratch[:0]
	for i := range pts {
		if _, ok := l.fileIDs[pts[i].Ref.id]; !ok {
			fid := l.nextFileID
			l.nextFileID++
			l.fileIDs[pts[i].Ref.id] = fid
			buf = encodeSeriesRecord(buf, fid, pts[i].Ref)
		}
	}
	for start := 0; start < len(pts); start += maxWALPointsPerRecord {
		end := start + maxWALPointsPerRecord
		if end > len(pts) {
			end = len(pts)
		}
		buf = l.encodePointsRecordLocked(buf, pts[start:end])
	}
	if pos != nil {
		buf = encodeReplPosRecord(buf, *pos)
	}
	err := l.writeLocked(buf)
	if err == nil {
		l.notifyLeasesLocked()
	}
	return err
}

// writeLocked hands records built in the scratch buffer to the file's
// writer, keeping the buffer for reuse unless it grew past
// maxWALScratch. Caller holds l.mu.
func (l *wal) writeLocked(buf []byte) error {
	_, err := l.w.Write(buf)
	l.size.Add(int64(len(buf)))
	if cap(buf) <= maxWALScratch {
		l.scratch = buf[:0]
	} else {
		l.scratch = nil
	}
	return err
}

// syncLocked flushes the buffered tail and fsyncs the file. Caller
// holds l.mu.
func (l *wal) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("%w: %v", errWALFsync, err)
	}
	l.lastSync.Store(time.Now().UnixNano())
	return nil
}

// beginWALRecord reserves the 8-byte header; finishWALRecord patches
// crc and length over whatever was appended since.
func beginWALRecord(buf []byte) ([]byte, int) {
	off := len(buf)
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0), off
}

func finishWALRecord(buf []byte, off int) []byte {
	payload := buf[off+8:]
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(buf[off+4:], uint32(len(payload)))
	return buf
}

func encodeSeriesRecord(buf []byte, fid uint32, ref *Ref) []byte {
	buf, off := beginWALRecord(buf)
	buf = append(buf, walRecSeries)
	buf = binary.LittleEndian.AppendUint32(buf, fid)
	buf = appendSeriesEntry(buf, ref)
	return finishWALRecord(buf, off)
}

// encodePointsRecordLocked packs ≤ maxWALPointsPerRecord points as one
// record. Caller holds l.mu (fileIDs access).
func (l *wal) encodePointsRecordLocked(buf []byte, pts []RefPoint) []byte {
	buf, off := beginWALRecord(buf)
	buf = append(buf, walRecPoints)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(pts)))
	for i := range pts {
		buf = binary.LittleEndian.AppendUint32(buf, l.fileIDs[pts[i].Ref.id])
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pts[i].Timestamp))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pts[i].Value))
	}
	return finishWALRecord(buf, off)
}

// appendFlushMarker durably logs a flush commit marker (see the
// format comment): written and fsynced before the named block files
// exist, under the closed WAL gate, so no point record below the
// cutoff can land ahead of the marker without being staged.
func (l *wal) appendFlushMarker(cutoffMS int64, files []string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	buf, off := beginWALRecord(l.scratch[:0])
	buf = append(buf, walRecFlush)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cutoffMS))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(files)))
	for _, name := range files {
		buf = appendWALString(buf, name)
	}
	if err := l.writeLocked(finishWALRecord(buf, off)); err != nil {
		return err
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	l.notifyLeasesLocked()
	return nil
}

// parseFlushMarker decodes a flush record payload (past the type
// byte); ok is false on any structural mismatch.
func parseFlushMarker(p []byte) (cutoffMS int64, files []string, ok bool) {
	if len(p) < 10 {
		return 0, nil, false
	}
	cutoffMS = int64(binary.LittleEndian.Uint64(p))
	n := int(binary.LittleEndian.Uint16(p[8:]))
	off := 10
	files = make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, noff, err := readWALBytes(p, off)
		if err != nil {
			return 0, nil, false
		}
		files = append(files, string(s))
		off = noff
	}
	if off != len(p) {
		return 0, nil, false
	}
	return cutoffMS, files, true
}

// encodeBlockRecord logs one sealed block verbatim.
func encodeBlockRecord(buf []byte, fid uint32, b sealedBlock) []byte {
	buf, off := beginWALRecord(buf)
	buf = append(buf, walRecBlock2)
	buf = binary.LittleEndian.AppendUint32(buf, fid)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.minTS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.maxTS))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(b.n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.data)))
	buf = append(buf, b.data...)
	return finishWALRecord(buf, off)
}

// CompactWAL rewrites the log from the store's current state — one
// dictionary record per live series, its sealed blocks verbatim, its
// head as points records — and atomically swaps it in. Retention
// passes call this so deleted points leave the file instead of
// accumulating. A no-op without a WAL.
//
// The rewrite serializes against flush/compaction/retention via opMu:
// a rewrite landing mid-flush would snapshot a state where extracted
// points are neither in memory nor published as block files, dropping
// them from the log while the pass could still abort or crash.
func (db *DB) CompactWAL() error {
	if db.wal == nil {
		return nil
	}
	db.disk.opMu.Lock()
	defer db.disk.opMu.Unlock()
	return db.compactWALLocked()
}

// compactWALLocked is CompactWAL's body. Callers must hold opMu
// (flush, compaction and retention already do; they call this directly
// to stay reentrant-safe).
func (db *DB) compactWALLocked() error {
	if db.wal == nil {
		return nil
	}
	// Writers hold the read side around append+insert, so the snapshot
	// below can never miss a logged-but-not-yet-inserted point.
	db.walGate.Lock()
	defer db.walGate.Unlock()
	if err := db.wal.compact(db); err != nil {
		if errors.Is(err, errWALFsync) {
			db.degrade(err)
		}
		return err
	}
	// The rewritten log holds no flush markers (flushed points are
	// simply absent), so any pending truncation is now complete.
	db.markersPending.Store(false)
	return nil
}

// walLeaseDrainWait bounds how long a rewrite waits for live tailers
// to stream the frozen tail before deferring. Writers are gated for
// the duration, so this is also an ingest-stall bound.
const walLeaseDrainWait = 500 * time.Millisecond

func (l *wal) compact(db *DB) error {
	// Truncation must never drop bytes a connected follower has not
	// streamed. The caller holds the write side of walGate, so no new
	// appends can land: wait briefly for live tailers to drain the
	// frozen tail (revoking any lease past its byte budget — that
	// follower falls back to a snapshot re-sync), and defer the rewrite
	// if one is still behind.
	deadline := time.Now().Add(walLeaseDrainWait)
	for {
		l.mu.Lock()
		behind := false
		size := l.size.Load()
		for _, r := range l.leases {
			if r.lost != nil {
				continue
			}
			lag := size - r.off
			if lag <= 0 {
				continue
			}
			if r.maxLag > 0 && lag > r.maxLag {
				r.revokeLocked()
				continue
			}
			behind = true
		}
		if !behind {
			break // l.mu stays held for the rewrite below
		}
		l.mu.Unlock()
		if time.Now().After(deadline) {
			return ErrTruncateDeferred
		}
		time.Sleep(2 * time.Millisecond)
	}
	defer l.mu.Unlock()
	return l.compactLocked(db)
}

// compactLocked is compact's body; caller holds l.mu with every live
// lease exactly at EOF.
func (l *wal) compactLocked(db *DB) error {
	if l.broken != nil {
		return l.broken
	}
	// Complete the old file first: if anything below fails, the
	// existing log remains a full record.
	if err := l.w.Flush(); err != nil {
		return err
	}
	oldEOF := l.size.Load()
	tmpPath := l.path + ".tmp"
	tf, err := l.fs.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("tsdb: wal compact: %w", err)
	}
	fail := func(err error) error {
		tf.Close()
		l.fs.Remove(tmpPath)
		return fmt.Errorf("tsdb: wal compact: %w", err)
	}
	w := bufio.NewWriterSize(tf, 1<<20)
	if _, err := w.WriteString(walMagic); err != nil {
		return fail(err)
	}
	size := int64(len(walMagic))
	var buf []byte
	// The rewritten file opens with its generation (the bumped counter)
	// and, on a replica, the current upstream position — both must
	// survive the rewrite and the next restart.
	buf = encodeGenRecord(buf[:0], l.gen+1)
	if rp := db.replPos.Load(); rp != nil {
		buf = encodeReplPosRecord(buf, *rp)
	}
	if _, err := w.Write(buf); err != nil {
		return fail(err)
	}
	size += int64(len(buf))
	fileIDs := make(map[SeriesID]uint32)
	next := uint32(1)
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			fid := next
			next++
			fileIDs[s.ref.id] = fid
			buf = encodeSeriesRecord(buf[:0], fid, s.ref)
			for _, b := range s.blocks {
				buf = encodeBlockRecord(buf, fid, b)
			}
			for start := 0; start < len(s.head); start += maxWALPointsPerRecord {
				end := start + maxWALPointsPerRecord
				if end > len(s.head) {
					end = len(s.head)
				}
				buf = encodeRawPointsRecord(buf, fid, s.head[start:end])
			}
			if _, err := w.Write(buf); err != nil {
				sh.mu.RUnlock()
				return fail(err)
			}
			size += int64(len(buf))
		}
		sh.mu.RUnlock()
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tf.Sync(); err != nil {
		return fail(err)
	}
	if err := tf.Close(); err != nil {
		return fail(err)
	}
	if err := l.fs.Rename(tmpPath, l.path); err != nil {
		l.fs.Remove(tmpPath)
		return fmt.Errorf("tsdb: wal compact: %w", err)
	}
	old := l.f
	f, err := l.fs.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		// The rename landed but the reopen failed: the compacted log
		// on disk is complete, but this handle now points at the
		// renamed-over inode — anything appended to it would silently
		// vanish. Poison the log so every later append fails loudly.
		l.broken = fmt.Errorf("tsdb: wal compact reopen: %w", err)
		l.revokeAllLeasesLocked()
		return l.broken
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		l.broken = fmt.Errorf("tsdb: wal compact seek: %w", err)
		l.revokeAllLeasesLocked()
		return l.broken
	}
	old.Close()
	l.f = f
	l.w.Reset(f)
	l.fileIDs = fileIDs
	l.nextFileID = next
	// Retire the old generation: remember its final shape so a
	// caught-up-but-disconnected tailer can still resume, and move
	// every live lease (all exactly at the old EOF — compact waited) to
	// the head of the new file. The session re-sends the dictionary
	// before any further data, since the rewritten file re-announced
	// every series under fresh fileIDs.
	l.genHist = append(l.genHist, walGenSpan{gen: l.gen, eof: oldEOF, nextBase: size})
	if len(l.genHist) > maxWALGenHist {
		l.genHist = l.genHist[len(l.genHist)-maxWALGenHist:]
	}
	l.gen++
	for _, r := range l.leases {
		if r.lost != nil {
			continue
		}
		r.remap = &walRemap{gen: l.gen, base: size}
		r.signal()
	}
	l.size.Store(size)
	// The rename survives a power loss only once the directory is
	// synced; until then the old log may come back, and every append
	// acked into the new one would vanish with it. Writers are still
	// gated here, so fail like a rejected WAL fsync: the caller
	// degrades before anything rests on the rename.
	if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
		return fmt.Errorf("%w: wal compact dir sync: %v", errWALFsync, err)
	}
	return nil
}

// encodeRawPointsRecord is encodePointsRecordLocked for a plain point
// slice with a known fileID (the compaction path).
func encodeRawPointsRecord(buf []byte, fid uint32, pts []Point) []byte {
	buf, off := beginWALRecord(buf)
	buf = append(buf, walRecPoints)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(pts)))
	for i := range pts {
		buf = binary.LittleEndian.AppendUint32(buf, fid)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pts[i].Timestamp))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pts[i].Value))
	}
	return finishWALRecord(buf, off)
}

// WALBytes reports the current WAL file size in bytes (0 without
// persistence) — the ctt_wal_bytes gauge, and the number retention
// compaction exists to keep bounded.
func (db *DB) WALBytes() int64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.size.Load()
}

// WALLastSync reports when the WAL last reached stable storage (the
// open time until the first explicit Sync). ok is false when
// persistence is disabled.
func (db *DB) WALLastSync() (time.Time, bool) {
	if db.wal == nil {
		return time.Time{}, false
	}
	return time.Unix(0, db.wal.lastSync.Load()), true
}

func (l *wal) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	return l.syncLocked()
}

func (l *wal) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

func appendWALString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// readWALBytes reads one str; the bytes alias buf.
func readWALBytes(buf []byte, off int) ([]byte, int, error) {
	if off+2 > len(buf) {
		return nil, off, ErrWALCorrupt
	}
	n := int(binary.LittleEndian.Uint16(buf[off:]))
	off += 2
	if off+n > len(buf) {
		return nil, off, ErrWALCorrupt
	}
	return buf[off : off+n], off + n, nil
}

// appendSeriesEntry appends a series' identity as WAL series records
// and block-file series tables store it: metric(str) | nTags(2) |
// (key(str) value(str))*, tags sorted by key.
func appendSeriesEntry(buf []byte, ref *Ref) []byte {
	buf = appendWALString(buf, ref.metric)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ref.pairs)))
	for _, t := range ref.pairs {
		buf = appendWALString(appendWALString(buf, t.Key), t.Value)
	}
	return buf
}

// readSeriesEntry decodes one appendSeriesEntry entry, tags in any
// order, into the arguments of InternBytes, aliasing buf. It returns
// the offset past the entry.
func readSeriesEntry(buf []byte, off int) (metric []byte, kvs [][]byte, end int, err error) {
	if metric, off, err = readWALBytes(buf, off); err != nil {
		return nil, nil, off, err
	}
	if off+2 > len(buf) {
		return nil, nil, off, ErrWALCorrupt
	}
	n := int(binary.LittleEndian.Uint16(buf[off:]))
	off += 2
	kvs = make([][]byte, 2*n)
	for i := range kvs {
		if kvs[i], off, err = readWALBytes(buf, off); err != nil {
			return nil, nil, off, err
		}
	}
	return metric, kvs, off, nil
}
