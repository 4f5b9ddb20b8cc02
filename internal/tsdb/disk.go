package tsdb

// diskStore owns the durable block layer under <data-dir>/blocks: the
// set of immutable block files, and an in-memory chunk registry keyed
// by SeriesID so the read path can gather a series' on-disk chunks
// with one map probe. Files are written once (flush, compaction,
// retention rewrite) and never modified; all mutation is
// add-file/remove-file, serialized by opMu, with the chunk registry
// swapped copy-on-write under mu so concurrent readers holding chunk
// pointers are never invalidated.
//
// Lock order: storage shard mu → diskStore.mu. opMu (flush /
// compaction / retention serialization) is taken before either and
// never inside them.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tsdb/fsio"
)

const (
	blockFileSuffix = ".blk"
	quarantineDir   = "quarantine"

	// retiredFileGrace is how long a superseded block file's handle
	// stays open after the file is unlinked, so in-flight readers still
	// holding its chunks keep working. Handles past the grace are
	// force-closed by the next structural pass; a reader that somehow
	// outlives it gets a read error (counted), not corrupt data.
	retiredFileGrace = time.Minute
)

// blockFile is one live on-disk block file. The handle stays open for
// pread for the file's lifetime; when the file is superseded
// (compaction, retention rewrite) it is unlinked and the handle parks
// on the retired list until retiredFileGrace passes (see
// sweepRetired), so in-flight readers still holding its chunks keep
// working without fds accumulating unboundedly.
type blockFile struct {
	name         string
	path         string
	f            fsio.File
	size         int64
	minTS, maxTS int64
	part         int64 // partition start (ms)
	seq          uint64
}

// diskChunk is one chunk: either file-backed (file set, payload read
// by pread + CRC check) or pending (data set inline) while a flush is
// staging it. Immutable after publication; the registry replaces
// pointers instead of mutating.
type diskChunk struct {
	ref          *Ref
	file         *blockFile // nil while pending
	data         []byte     // inline payload while pending
	off          int64      // chunk record offset in file
	dlen         uint32
	crc          uint32 // crc32c of the payload
	minTS, maxTS int64
	n            int
}

// payload returns the chunk's Gorilla payload, reading and verifying
// it from disk for file-backed chunks. *bufp is grown and reused
// across calls so a scan over many chunks allocates once.
func (c *diskChunk) payload(bufp *[]byte) ([]byte, error) {
	if c.data != nil {
		return c.data, nil
	}
	need := int(c.dlen)
	buf := *bufp
	if cap(buf) < need {
		buf = make([]byte, need)
		*bufp = buf
	}
	buf = buf[:need]
	if _, err := c.file.f.ReadAt(buf, c.off+chunkHeaderSize); err != nil {
		return nil, fmt.Errorf("tsdb: block read %s: %w", c.file.name, err)
	}
	if crc32c(buf) != c.crc {
		return nil, fmt.Errorf("tsdb: block chunk crc mismatch in %s", c.file.name)
	}
	return buf, nil
}

type diskStore struct {
	dir string
	fs  fsio.FS

	// opMu serializes the structural operations — flush, compaction,
	// retention — against each other. Readers never take it.
	opMu sync.Mutex

	mu       sync.RWMutex
	files    map[string]*blockFile
	bySeries map[SeriesID][]*diskChunk
	bytes    int64
	nChunks  int

	// retired holds unlinked files whose handles stay open for
	// in-flight readers; sweepRetired closes them after the grace.
	// Guarded by mu.
	retired []retiredFile

	// nextSeq is the next file sequence number; guarded by opMu (only
	// structural operations mint names).
	nextSeq uint64

	// partMS / maxMergeBytes mirror Options.Partition and
	// Options.CompactMaxBytes; set once at open.
	partMS        int64
	maxMergeBytes int64

	quarantined atomic.Uint64
	readErrs    atomic.Uint64
	flushErrs   atomic.Uint64
	compactErrs atomic.Uint64
	flushes     atomic.Uint64
	compactions atomic.Uint64
	lastFlush   atomic.Int64 // wall UnixNano of last completed flush pass
}

// blockFileName renders "<partition start ms>-<seq>.blk"; both fields
// fixed-width hex so lexical order matches (partition, seq) order.
func blockFileName(part int64, seq uint64) string {
	return fmt.Sprintf("%016x-%08x%s", uint64(part), seq, blockFileSuffix)
}

func parseBlockFileName(name string) (part int64, seq uint64, ok bool) {
	base, found := strings.CutSuffix(name, blockFileSuffix)
	if !found || len(base) != 16+1+8 || base[16] != '-' {
		return 0, 0, false
	}
	var p, s uint64
	if _, err := fmt.Sscanf(base[:16], "%016x", &p); err != nil {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(base[17:], "%08x", &s); err != nil {
		return 0, 0, false
	}
	return int64(p), s, true
}

// partStart floors ts to its partition start.
func partStart(ts, part int64) int64 {
	r := ts % part
	if r < 0 {
		r += part
	}
	return ts - r
}

// chunkKey identifies a chunk's content independent of which file it
// lives in — how load dedups chunks that appear in both a compacted
// output and a not-yet-deleted input after a crash between the two.
type chunkKey struct {
	id           SeriesID
	minTS, maxTS int64
	n            int
	dlen         uint32
	crc          uint32
}

// openDiskStore loads every block file under dir, quarantining any
// that fail validation (bad magic, CRC mismatch, torn tail) instead
// of failing the open — the WAL still holds anything a quarantined
// file lost if truncation hadn't run. Files are loaded newest-first
// so crash leftovers dedup in favor of the compacted copy. A CTTBLK1
// file fails the open instead, before anything in dir is removed,
// moved or created.
func (db *DB) openDiskStore(dir string) (*diskStore, error) {
	fs := db.opts.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: block dir: %w", err)
	}
	ds := &diskStore{
		dir:      dir,
		fs:       fs,
		files:    make(map[string]*blockFile),
		bySeries: make(map[SeriesID][]*diskChunk),
		nextSeq:  1,
	}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: block dir: %w", err)
	}
	type loaded struct {
		bf *blockFile
		pb *parsedBlock
	}
	var all []loaded
	closeAll := func() {
		for _, ld := range all {
			ld.bf.f.Close()
		}
	}
	// Unfinished writes of a crashed flush or compaction (the WAL or the
	// inputs hold all they held), and files that failed validation.
	var tmps, bad []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			tmps = append(tmps, filepath.Join(dir, name))
			continue
		}
		part, seq, ok := parseBlockFileName(name)
		if !ok {
			continue // foreign file: leave it alone
		}
		path := filepath.Join(dir, name)
		f, err := fs.Open(path)
		if err != nil {
			return nil, fmt.Errorf("tsdb: block open %s: %w", name, err)
		}
		pb, perr := parseBlockFile(f)
		if perr == nil {
			perr = verifyChunkPayloads(f, pb)
		}
		if errors.Is(perr, errUntaggedBlockFile) {
			f.Close()
			closeAll()
			return nil, fmt.Errorf("tsdb: block file %s: %w", path, perr)
		}
		if perr != nil {
			f.Close()
			bad = append(bad, path)
			continue
		}
		if seq >= ds.nextSeq {
			ds.nextSeq = seq + 1
		}
		all = append(all, loaded{
			bf: &blockFile{name: name, path: path, f: f, size: pb.size,
				minTS: pb.minTS, maxTS: pb.maxTS, part: part, seq: seq},
			pb: pb,
		})
	}
	if err := fs.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		closeAll()
		return nil, fmt.Errorf("tsdb: block dir: %w", err)
	}
	for _, path := range tmps {
		fs.Remove(path)
	}
	for _, path := range bad {
		ds.quarantine(path)
	}
	// Newest first: after a crash between a compaction's rename and
	// its input deletion, the merged file wins and the stale inputs
	// dedup to empty (and are deleted below).
	sort.Slice(all, func(i, j int) bool { return all[i].bf.seq > all[j].bf.seq })
	seen := make(map[chunkKey]bool)
	for _, ld := range all {
		refs := make([]*Ref, len(ld.pb.series))
		for i, ps := range ld.pb.series {
			ref, err := db.InternBytes(ps.metric, ps.kvs)
			if err != nil {
				// A series that fails validation can only mean a file
				// from a foreign/corrupted writer: quarantine it.
				refs = nil
				break
			}
			refs[i] = ref
		}
		if refs == nil {
			ds.quarantine(ld.bf.path)
			ld.bf.f.Close()
			continue
		}
		added := 0
		for _, pc := range ld.pb.chunks {
			ref := refs[pc.seriesIdx]
			key := chunkKey{id: ref.id, minTS: pc.minTS, maxTS: pc.maxTS, n: pc.n, dlen: pc.dlen, crc: pc.crc}
			if seen[key] {
				continue
			}
			seen[key] = true
			ds.bySeries[ref.id] = append(ds.bySeries[ref.id], &diskChunk{
				ref: ref, file: ld.bf, off: pc.off, dlen: pc.dlen, crc: pc.crc,
				minTS: pc.minTS, maxTS: pc.maxTS, n: pc.n,
			})
			added++
		}
		if added == 0 && len(ld.pb.chunks) > 0 {
			// Every chunk was a duplicate of a newer file: this is a
			// compaction input whose deletion the crash interrupted.
			ld.bf.f.Close()
			fs.Remove(ld.bf.path)
			continue
		}
		ds.files[ld.bf.name] = ld.bf
		ds.bytes += ld.bf.size
		ds.nChunks += added
	}
	for id := range ds.bySeries {
		cs := ds.bySeries[id]
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].minTS != cs[j].minTS {
				return cs[i].minTS < cs[j].minTS
			}
			return cs[i].maxTS < cs[j].maxTS
		})
	}
	return ds, nil
}

// quarantine moves a failed file aside (never deletes it) and counts.
func (ds *diskStore) quarantine(path string) {
	dst := filepath.Join(ds.dir, quarantineDir, filepath.Base(path))
	if err := ds.fs.Rename(path, dst); err != nil {
		// Last resort: leave it in place; it will fail parse again next
		// open and stay counted.
		ds.quarantined.Add(1)
		return
	}
	ds.quarantined.Add(1)
}

// chunksFor returns the series' chunks overlapping [start, end]. The
// returned slice is private to the caller; the chunks are shared and
// immutable.
func (ds *diskStore) chunksFor(id SeriesID, start, end int64) []*diskChunk {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	var out []*diskChunk
	for _, c := range ds.bySeries[id] {
		if c.maxTS < start || c.minTS > end {
			continue
		}
		out = append(out, c)
	}
	return out
}

// pointsIn sums the point counts of the series' chunks overlapping
// [start, end].
func (ds *diskStore) pointsIn(id SeriesID, start, end int64) int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	n := 0
	for _, c := range ds.bySeries[id] {
		if c.maxTS >= start && c.minTS <= end {
			n += c.n
		}
	}
	return n
}

// hasChunks reports whether any disk chunk still references the
// series — retention must not drop a series' identity while its
// history lives on disk.
func (ds *diskStore) hasChunks(id SeriesID) bool {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return len(ds.bySeries[id]) > 0
}

// pointCount sums the point counts of every chunk on disk.
func (ds *diskStore) pointCount() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	n := 0
	for _, cs := range ds.bySeries {
		for _, c := range cs {
			n += c.n
		}
	}
	return n
}

// stage inserts pending (inline-data) chunks for one series, keeping
// the per-series slice time-sorted. Called with the owning storage
// shard's lock held, so a reader snapshotting that shard sees either
// the points in memory or the staged chunks — never neither.
func (ds *diskStore) stage(id SeriesID, chunks []*diskChunk) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	cs := append(append([]*diskChunk(nil), ds.bySeries[id]...), chunks...)
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].minTS != cs[j].minTS {
			return cs[i].minTS < cs[j].minTS
		}
		return cs[i].maxTS < cs[j].maxTS
	})
	ds.bySeries[id] = cs
	ds.nChunks += len(chunks)
}

// unstage removes previously staged chunks (flush failure path).
func (ds *diskStore) unstage(staged []*diskChunk) {
	drop := make(map[*diskChunk]bool, len(staged))
	for _, c := range staged {
		drop[c] = true
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for id := range ds.bySeries {
		ds.replaceChunksLocked(id, drop, nil)
	}
	ds.nChunks -= len(staged)
}

// replaceChunksLocked rebuilds one series' chunk slice copy-on-write,
// dropping chunks in drop and substituting via repl. Caller holds
// ds.mu.
func (ds *diskStore) replaceChunksLocked(id SeriesID, drop map[*diskChunk]bool, repl map[*diskChunk]*diskChunk) {
	old := ds.bySeries[id]
	touched := false
	for _, c := range old {
		if drop[c] || repl[c] != nil {
			touched = true
			break
		}
	}
	if !touched {
		return
	}
	ns := make([]*diskChunk, 0, len(old))
	for _, c := range old {
		switch {
		case drop[c]:
		case repl[c] != nil:
			ns = append(ns, repl[c])
		default:
			ns = append(ns, c)
		}
	}
	if len(ns) == 0 {
		delete(ds.bySeries, id)
	} else {
		ds.bySeries[id] = ns
	}
}

// addFileLocked registers a new block file. Caller holds ds.mu.
func (ds *diskStore) addFileLocked(bf *blockFile) {
	ds.files[bf.name] = bf
	ds.bytes += bf.size
}

// retiredFile is one unlinked block file awaiting handle close.
type retiredFile struct {
	bf *blockFile
	at time.Time
}

// removeFileLocked unlinks a superseded file and parks its handle on
// the retired list; sweepRetired closes it after the grace, bounding
// open fds under compaction/retention churn without yanking the file
// out from under an in-flight reader. Caller holds ds.mu.
func (ds *diskStore) removeFileLocked(bf *blockFile) {
	delete(ds.files, bf.name)
	ds.bytes -= bf.size
	ds.retired = append(ds.retired, retiredFile{bf: bf, at: time.Now()})
	ds.fs.Remove(bf.path)
}

// sweepRetired closes retired handles older than grace (all of them
// when grace is negative). Called by every structural pass and by
// close, so retired fds are bounded by churn within one grace window.
func (ds *diskStore) sweepRetired(grace time.Duration) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	keep := ds.retired[:0]
	for _, r := range ds.retired {
		if grace >= 0 && time.Since(r.at) < grace {
			keep = append(keep, r)
			continue
		}
		r.bf.f.Close()
	}
	// Zero the tail so dropped entries don't pin their blockFiles.
	for i := len(keep); i < len(ds.retired); i++ {
		ds.retired[i] = retiredFile{}
	}
	ds.retired = keep
}

// hasFile reports whether a named block file is loaded — WAL replay
// uses this to decide whether a flush marker's files all survived.
func (ds *diskStore) hasFile(name string) bool {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.files[name] != nil
}

// noteReplayMarker is called once per flush marker found during WAL
// replay, honored or not. It advances nextSeq past every named file
// so a later flush can never mint a name an old marker (left by an
// aborted or crashed pass) still references — a stale marker naming a
// future file would wrongly suppress replay after the next crash. For
// a marker that is NOT honored it also deletes any named file that
// does exist: the marker still being in the log means no truncation
// ran after it, so the WAL holds every point such a file does, and
// loading both (e.g. after a crash mid-rename left only some of the
// pass's files durable) would serve every flushed point twice.
func (ds *diskStore) noteReplayMarker(files []string, honored bool) {
	for _, name := range files {
		if _, seq, ok := parseBlockFileName(name); ok && seq >= ds.nextSeq {
			ds.nextSeq = seq + 1
		}
	}
	if honored {
		return
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for _, name := range files {
		bf := ds.files[name]
		if bf == nil {
			continue
		}
		drop := make(map[*diskChunk]bool)
		for _, cs := range ds.bySeries {
			for _, c := range cs {
				if c.file == bf {
					drop[c] = true
				}
			}
		}
		for id := range ds.bySeries {
			ds.replaceChunksLocked(id, drop, nil)
		}
		ds.nChunks -= len(drop)
		delete(ds.files, name)
		ds.bytes -= bf.size
		bf.f.Close()
		ds.fs.Remove(bf.path)
	}
}

// close closes every live and retired file handle.
func (ds *diskStore) close() {
	ds.sweepRetired(-1)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for _, bf := range ds.files {
		bf.f.Close()
	}
}

// diskDeleteBefore applies disk retention under opMu. Like
// CompactBlocks, it first retries a pending WAL truncation: deleting
// or rewriting a file a pending flush marker names would make the
// marker unhonorable at the next replay, which would re-insert every
// pre-cutoff WAL point that also survives in the rewritten files —
// duplicating data and resurrecting what retention deleted. If the
// retry fails the pass is skipped; the expired chunks age out later.
func (db *DB) diskDeleteBefore(cutoffMS int64, match func(metric string) bool) (int, error) {
	ds := db.disk
	ds.opMu.Lock()
	defer ds.opMu.Unlock()
	ds.sweepRetired(retiredFileGrace)
	if db.markersPending.Load() {
		if err := db.compactWALLocked(); err != nil {
			if errors.Is(err, ErrTruncateDeferred) {
				// Benign: a replication reader is behind; the expired
				// chunks age out on a later pass.
				return 0, nil
			}
			ds.compactErrs.Add(1)
			return 0, fmt.Errorf("tsdb: retry wal truncate: %w", err)
		}
	}
	return ds.deleteBeforeLocked(cutoffMS, match)
}

// deleteBeforeLocked drops expired chunks from disk: a file whose
// every chunk is both matched and wholly before the cutoff is
// deleted; a partially expired file is rewritten without the expired
// chunks. Chunks straddling the cutoff are kept whole (disk retention
// is chunk-granular; the in-memory pass is point-exact). Returns
// points removed. Caller holds opMu with no truncation pending.
func (ds *diskStore) deleteBeforeLocked(cutoffMS int64, match func(metric string) bool) (int, error) {
	// Snapshot chunk→file assignment. No pending chunks can exist
	// here: flush holds opMu across staging and publication.
	byFile := make(map[*blockFile][]*diskChunk)
	ds.mu.RLock()
	for _, cs := range ds.bySeries {
		for _, c := range cs {
			if c.file != nil {
				byFile[c.file] = append(byFile[c.file], c)
			}
		}
	}
	ds.mu.RUnlock()

	removed := 0
	var firstErr error
	for bf, chunks := range byFile {
		var dropped, kept []*diskChunk
		for _, c := range chunks {
			if c.maxTS < cutoffMS && (match == nil || match(c.ref.metric)) {
				dropped = append(dropped, c)
			} else {
				kept = append(kept, c)
			}
		}
		if len(dropped) == 0 {
			continue
		}
		drop := make(map[*diskChunk]bool, len(dropped))
		for _, c := range dropped {
			drop[c] = true
			removed += c.n
		}
		if len(kept) == 0 {
			ds.mu.Lock()
			for id := range ds.bySeries {
				ds.replaceChunksLocked(id, drop, nil)
			}
			ds.nChunks -= len(dropped)
			ds.removeFileLocked(bf)
			ds.mu.Unlock()
			continue
		}
		// Partial expiry: rewrite the surviving chunks into a fresh
		// file in the same partition, then retire the old one.
		nbf, repl, err := ds.rewriteFile(bf.part, kept)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			// Leave the file intact; the expired chunks age out on a
			// later pass.
			for _, c := range dropped {
				removed -= c.n
			}
			continue
		}
		ds.mu.Lock()
		ds.addFileLocked(nbf)
		for id := range ds.bySeries {
			ds.replaceChunksLocked(id, drop, repl)
		}
		ds.nChunks -= len(dropped)
		ds.removeFileLocked(bf)
		ds.mu.Unlock()
	}
	return removed, firstErr
}

// rewriteFile writes chunks into a new block file in partition part
// (tmp → fsync → rename → dir fsync) and returns the new file plus
// the old-chunk→new-chunk mapping. Caller holds opMu.
func (ds *diskStore) rewriteFile(part int64, chunks []*diskChunk) (*blockFile, map[*diskChunk]*diskChunk, error) {
	sorted := append([]*diskChunk(nil), chunks...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].minTS != sorted[j].minTS {
			return sorted[i].minTS < sorted[j].minTS
		}
		return sorted[i].ref.id < sorted[j].ref.id
	})
	seq := ds.nextSeq
	ds.nextSeq++
	name := blockFileName(part, seq)
	path := filepath.Join(ds.dir, name)
	tmp := path + ".tmp"
	f, size, pos, err := writeBlockChunks(ds.fs, tmp, sorted)
	if err != nil {
		return nil, nil, err
	}
	if err := ds.fs.Rename(tmp, path); err != nil {
		f.Close()
		ds.fs.Remove(tmp)
		return nil, nil, fmt.Errorf("tsdb: block rename: %w", err)
	}
	if err := ds.fs.SyncDir(ds.dir); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("tsdb: block dir fsync: %w", err)
	}
	var minTS, maxTS int64
	for i, c := range sorted {
		if i == 0 || c.minTS < minTS {
			minTS = c.minTS
		}
		if i == 0 || c.maxTS > maxTS {
			maxTS = c.maxTS
		}
	}
	nbf := &blockFile{name: name, path: path, f: f, size: size,
		minTS: minTS, maxTS: maxTS, part: part, seq: seq}
	repl := make(map[*diskChunk]*diskChunk, len(sorted))
	for i, c := range sorted {
		repl[c] = &diskChunk{
			ref: c.ref, file: nbf, off: pos[i].off, dlen: c.dlen, crc: pos[i].crc,
			minTS: c.minTS, maxTS: c.maxTS, n: c.n,
		}
	}
	return nbf, repl, nil
}

// DiskStats reports the state of the durable block layer; Enabled is
// false (and everything else zero) when the DB runs in memory.
type DiskStats struct {
	Enabled     bool
	Files       int
	Chunks      int
	Bytes       int64
	Quarantined uint64
	ReadErrors  uint64
	FlushErrors uint64
	Flushes     uint64
	Compactions uint64
	// LastFlush is the wall time the last flush pass completed (zero
	// until the first); a pass that found nothing cold still counts.
	LastFlush time.Time
	// WALTruncationPending is true when a flush landed but the
	// follow-up WAL truncation has not succeeded yet.
	WALTruncationPending bool
}

// DiskStats returns durable-block-layer statistics.
func (db *DB) DiskStats() DiskStats {
	ds := db.disk
	if ds == nil {
		return DiskStats{}
	}
	st := DiskStats{
		Enabled:              true,
		Quarantined:          ds.quarantined.Load(),
		ReadErrors:           ds.readErrs.Load(),
		FlushErrors:          ds.flushErrs.Load(),
		Flushes:              ds.flushes.Load(),
		Compactions:          ds.compactions.Load(),
		WALTruncationPending: db.markersPending.Load(),
	}
	if ns := ds.lastFlush.Load(); ns != 0 {
		st.LastFlush = time.Unix(0, ns)
	}
	ds.mu.RLock()
	st.Files = len(ds.files)
	st.Chunks = ds.nChunks
	st.Bytes = ds.bytes
	ds.mu.RUnlock()
	return st
}
