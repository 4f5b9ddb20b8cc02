package tsdb

// Replication support: durable replication positions (replpos WAL
// records), file-generation fencing (gen records), and the
// primary-side snapshot stream. The live tailer lease lives in
// walreader.go; the wire protocol and session logic live in
// internal/repl and only touch the store through the exported API
// here: StreamSnapshot / WALTail on the primary, AppendRefsAt /
// CommitReplPos / DetachReplica on the replica.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/tsdb/fsio"
)

// ReplPos is a durable replication position: the upstream WAL
// generation and byte offset a replica has applied through, plus the
// replication epoch used for fencing. Detached marks a promotion: the
// node stopped following and owns every record after this one, so
// replay must not truncate back to it.
type ReplPos struct {
	Gen      uint64
	Off      int64
	Epoch    uint64
	Detached bool
}

// ErrTruncateDeferred reports that a WAL rewrite was skipped because
// a live replication reader has not streamed the tail yet. It is
// benign: the flush/compaction pass that wanted the truncation
// already landed its real work, and truncation retries once the
// reader catches up.
var ErrTruncateDeferred = errors.New("tsdb: wal truncation deferred: live replication reader behind")

// ErrWALResyncRequired reports that a follower's position cannot be
// served from the current log (generation unknown, offset past EOF
// or inside a record, or the follower fell too far behind a
// truncation): it must
// re-bootstrap from a snapshot.
var ErrWALResyncRequired = errors.New("tsdb: wal position not resumable: snapshot resync required")

// maxWALGenHist bounds the remembered closed generations (see
// wal.genHist).
const maxWALGenHist = 8

func encodeReplPosRecord(buf []byte, pos ReplPos) []byte {
	buf, off := beginWALRecord(buf)
	buf = append(buf, walRecReplPos)
	buf = binary.LittleEndian.AppendUint64(buf, pos.Gen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pos.Off))
	buf = binary.LittleEndian.AppendUint64(buf, pos.Epoch)
	var flags byte
	if pos.Detached {
		flags |= 1
	}
	buf = append(buf, flags)
	return finishWALRecord(buf, off)
}

func parseReplPosRecord(p []byte) (ReplPos, bool) {
	if len(p) != 25 {
		return ReplPos{}, false
	}
	return ReplPos{
		Gen:      binary.LittleEndian.Uint64(p),
		Off:      int64(binary.LittleEndian.Uint64(p[8:])),
		Epoch:    binary.LittleEndian.Uint64(p[16:]),
		Detached: p[24]&1 != 0,
	}, true
}

func encodeGenRecord(buf []byte, gen uint64) []byte {
	buf, off := beginWALRecord(buf)
	buf = append(buf, walRecGen)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	return finishWALRecord(buf, off)
}

func parseGenRecord(p []byte) (uint64, bool) {
	if len(p) != 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p), true
}

// notifyLeasesLocked pokes every registered tailer after new bytes
// land. Caller holds l.mu; the send never blocks.
func (l *wal) notifyLeasesLocked() {
	for _, r := range l.leases {
		r.signal()
	}
}

func (l *wal) revokeAllLeasesLocked() {
	for _, r := range l.leases {
		r.revokeLocked()
	}
}

// appendPos logs a bare position record (no points). With sync it is
// flushed and fsynced — the bootstrap-commit and promotion path.
func (l *wal) appendPos(pos ReplPos, sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	buf := encodeReplPosRecord(l.scratch[:0], pos)
	_, err := l.w.Write(buf)
	l.size.Add(int64(len(buf)))
	if cap(buf) <= maxWALScratch {
		l.scratch = buf[:0]
	} else {
		l.scratch = nil
	}
	if err != nil {
		return err
	}
	if sync {
		if err := l.w.Flush(); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("%w: %v", errWALFsync, err)
		}
		l.lastSync.Store(time.Now().UnixNano())
	}
	l.notifyLeasesLocked()
	return nil
}

// AppendRefsAt is AppendRefs for the replication apply path: the
// batch and the upstream position it advances to are committed in the
// same buffered WAL write, so replay can never acknowledge a position
// without the data it covers (or vice versa). rps must be non-empty;
// position-only advances (upstream records a replica skips) ride with
// the next real batch.
func (db *DB) AppendRefsAt(rps []RefPoint, pos ReplPos) BatchResult {
	res := db.appendRefsPos(rps, &pos)
	if len(res.Errors) == 0 && res.Stored == len(rps) {
		p := pos
		db.replPos.Store(&p)
	}
	return res
}

// CommitReplPos durably records a replication position with no
// attached data: right after snapshot bootstrap (the shipped files
// already hold everything the position covers) and on promotion.
func (db *DB) CommitReplPos(pos ReplPos) error {
	if db.wal != nil {
		if err := db.wal.appendPos(pos, true); err != nil {
			return err
		}
	}
	p := pos
	db.replPos.Store(&p)
	return nil
}

// DetachReplica flips a replica into a standalone writable node: it
// durably records the current position with the detached flag and the
// fenced epoch, so replay keeps everything the node writes afterwards
// and a connection carrying this epoch is refused by any stale
// primary (and vice versa).
func (db *DB) DetachReplica(epoch uint64) (ReplPos, error) {
	cur, _ := db.ReplPosition()
	pos := ReplPos{Gen: cur.Gen, Off: cur.Off, Epoch: epoch, Detached: true}
	if err := db.CommitReplPos(pos); err != nil {
		return ReplPos{}, err
	}
	return pos, nil
}

// ReplPosition reports the last committed replication position; ok is
// false on a node that never applied a replicated record.
func (db *DB) ReplPosition() (ReplPos, bool) {
	if p := db.replPos.Load(); p != nil {
		return *p, true
	}
	return ReplPos{}, false
}

// ReplEpoch reports the node's replication epoch: the epoch of its
// last committed position, or 1 for a node that was never a replica
// (the base epoch every cluster starts at).
func (db *DB) ReplEpoch() uint64 {
	if p := db.replPos.Load(); p != nil {
		return p.Epoch
	}
	return 1
}

// ReadWALReplState scans a data directory's WAL — without opening a
// DB — for the durable replication position a restarting follower
// should resume from. resumable is false when the directory holds no
// WAL, a file without the magic, no position record, or a detached one
// (the node was promoted; its tail is its own and cannot be resumed
// against any stream).
func ReadWALReplState(dir string, fs fsio.FS) (pos ReplPos, resumable bool) {
	if fs == nil {
		fs = fsio.OS
	}
	f, err := fs.Open(filepath.Join(dir, walFileName))
	if err != nil {
		return ReplPos{}, false
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != walMagic {
		return ReplPos{}, false
	}
	r := bufio.NewReaderSize(f, 64<<10)
	var header [8]byte
	var last *ReplPos
scan:
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			break
		}
		crc := binary.LittleEndian.Uint32(header[0:4])
		n := binary.LittleEndian.Uint32(header[4:8])
		if n == 0 || n > 16<<20 {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		switch payload[0] {
		case walRecSeries, walRecPoints, walRecBlock2, walRecFlush, walRecGen:
		case walRecReplPos:
			p, ok := parseReplPosRecord(payload[1:])
			if !ok {
				break scan
			}
			last = &p
		default:
			break scan
		}
	}
	if last == nil || last.Detached {
		return ReplPos{}, false
	}
	return *last, true
}

// SnapshotFile is one file of a replication snapshot stream: the
// node's WAL ("wal", Dir/tsdb.wal) or a block file ("block",
// Dir/blocks/Name). R reads exactly Size bytes.
type SnapshotFile struct {
	Kind string
	Name string
	Size int64
	R    io.Reader
}

// StreamSnapshot sends a consistent full-state snapshot — every block
// file, then the WAL prefix up to a frozen watermark — and registers a
// live tailer lease at that watermark, so the caller can continue
// streaming appends with no gap. It holds opMu for the whole transfer:
// flush, compaction and retention wait (ingest does not), which is
// what freezes the block-file set and the WAL generation. The shipped
// files carry their own CRCs (per-record for the WAL, per-chunk plus
// tail index for blocks), so the receiver verifies them by simply
// opening the copied directory.
func (db *DB) StreamSnapshot(maxLag int64, send func(SnapshotFile) error) (*WALReader, error) {
	l := db.wal
	if l == nil {
		return nil, errors.New("tsdb: snapshot requires a WAL")
	}
	if ds := db.disk; ds != nil {
		ds.opMu.Lock()
		defer ds.opMu.Unlock()
	}
	l.mu.Lock()
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return nil, err
	}
	if err := l.w.Flush(); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	gen, eof := l.gen, l.size.Load()
	walF := l.f
	l.mu.Unlock()

	if ds := db.disk; ds != nil {
		ds.mu.RLock()
		files := make([]*blockFile, 0, len(ds.files))
		for _, bf := range ds.files {
			files = append(files, bf)
		}
		ds.mu.RUnlock()
		sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
		for _, bf := range files {
			err := send(SnapshotFile{Kind: "block", Name: bf.name, Size: bf.size, R: io.NewSectionReader(bf.f, 0, bf.size)})
			if err != nil {
				return nil, err
			}
		}
	}
	// The WAL goes last: pread within [0, eof) is safe against
	// concurrent appends, which only ever extend the file.
	if err := send(SnapshotFile{Kind: "wal", Name: walFileName, Size: eof, R: io.NewSectionReader(walF, 0, eof)}); err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != gen || l.broken != nil {
		// Cannot happen while we hold opMu; fail safe if it ever does.
		return nil, ErrWALResyncRequired
	}
	return l.addLeaseLocked(gen, eof, maxLag), nil
}

// WALTail registers a live tailer resuming at (gen, off) — a position
// previously handed out by this log's stream. A position from a
// closed generation maps forward through the remembered history when
// the tailer was exactly caught up at each rewrite; anything else
// (unknown generation, offset past EOF after a crash truncated the
// tail) fails with ErrWALResyncRequired and the follower
// re-bootstraps.
func (db *DB) WALTail(gen uint64, off int64, maxLag int64) (*WALReader, error) {
	l := db.wal
	if l == nil {
		return nil, errors.New("tsdb: wal tail requires a WAL")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return nil, l.broken
	}
	for gen != l.gen {
		span, ok := l.genSpanLocked(gen)
		if !ok || off != span.eof {
			return nil, ErrWALResyncRequired
		}
		gen, off = gen+1, span.nextBase
	}
	if off < int64(len(walMagic)) || off > l.size.Load() {
		return nil, ErrWALResyncRequired
	}
	return l.addLeaseLocked(gen, off, maxLag), nil
}

func (l *wal) genSpanLocked(gen uint64) (walGenSpan, bool) {
	for _, s := range l.genHist {
		if s.gen == gen {
			return s, true
		}
	}
	return walGenSpan{}, false
}

func (l *wal) addLeaseLocked(gen uint64, off, maxLag int64) *WALReader {
	r := &WALReader{l: l, gen: gen, off: off, maxLag: maxLag, notify: make(chan struct{}, 1)}
	l.leases = append(l.leases, r)
	return r
}
