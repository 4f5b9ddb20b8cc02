package tsdb

// The background flusher and compactor: cold in-memory blocks are
// sealed into immutable block files (flush), small adjacent files are
// merged into larger partitions (compaction), and every flush drives
// WAL truncation so restart replays only the unflushed tail.
//
// Flush protocol (crash-safe at every step boundary; steps 1–2 run
// with the WAL gate closed to writers):
//
//  1. Under each shard lock, cold data (sealed blocks and head points
//     wholly before the cutoff) is extracted from memory and staged in
//     the disk chunk registry as pending in-memory chunks — one
//     critical section per shard, so a concurrent reader sees each
//     point exactly once, in memory or staged, never both or neither.
//  2. Output files are planned (named, not written) and a flush
//     marker naming them is appended to the WAL and fsynced. Because
//     writers hold the gate's read side across their append+insert
//     pair, every point below the cutoff that precedes the marker in
//     the log is in the staged set, and everything logged after the
//     gate reopens lands past the marker — so the marker's replay
//     suppression can never drop an unflushed point.
//  3. The staged chunks are written to temporary block files and
//     fsynced. A marker is honored at replay only if every named file
//     loaded cleanly, so a crash before step 4 completes keeps it
//     inert and the full log replays.
//  4. The files are renamed into place and the directory fsynced.
//  5. The pending chunks are republished as file-backed chunks.
//  6. The WAL is compacted (truncated): flushed points leave the log.
//     A crash before this step replays the full log; the marker from
//     step 2 suppresses the points the files already hold.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// FlushStats summarizes one flush pass.
type FlushStats struct {
	Points int
	Chunks int
	Files  int
	Bytes  int64
}

// FlushBlocks seals everything older than Options.FlushAge (relative
// to Options.Now) into block files and truncates the WAL. Safe to
// call concurrently with ingest and queries; passes are serialized. An
// in-memory store has nothing to flush.
func (db *DB) FlushBlocks() (FlushStats, error) {
	if db.disk == nil {
		return FlushStats{}, nil
	}
	if err := db.Degraded(); err != nil {
		return FlushStats{}, err
	}
	cutoff := db.opts.Now().Add(-db.opts.FlushAge).UnixMilli()
	st, err := db.flushBefore(cutoff, true)
	db.noteFlushResult(err)
	return st, err
}

// flushBefore is the flush pass body; truncate=false is the test seam
// that simulates a crash between flush and WAL truncation.
func (db *DB) flushBefore(cutoffMS int64, truncate bool) (FlushStats, error) {
	ds := db.disk
	ds.opMu.Lock()
	defer ds.opMu.Unlock()
	ds.sweepRetired(retiredFileGrace)
	t0 := time.Now()

	// Close the WAL gate over extraction and the marker append (steps
	// 1–2 of the protocol comment above). Without the gate, a late
	// out-of-order point ingested mid-pass could land in the log
	// before the marker with a timestamp below the cutoff while being
	// in no block file; a crash before truncation would then silently
	// drop it at replay.
	db.walGate.Lock()
	staged := db.extractCold(cutoffMS)
	if len(staged) == 0 {
		db.walGate.Unlock()
		ds.lastFlush.Store(time.Now().UnixNano())
		return FlushStats{}, nil
	}
	abort := func(err error) (FlushStats, error) {
		ds.unstage(staged)
		db.restoreStaged(staged)
		ds.flushErrs.Add(1)
		return FlushStats{}, err
	}
	outs := ds.planStagedFiles(staged)
	if db.wal != nil {
		names := make([]string, len(outs))
		for i, o := range outs {
			names[i] = o.bf.name
		}
		if err := db.wal.appendFlushMarker(cutoffMS, names); err != nil {
			db.walGate.Unlock()
			if errors.Is(err, errWALFsync) {
				// The fsync itself was rejected: the kernel may have
				// dropped the dirty WAL pages, so acked-but-unsynced data
				// can no longer be trusted to be durable. No retry helps;
				// degrade immediately.
				db.degrade(err)
			}
			return abort(fmt.Errorf("tsdb: flush marker: %w", err))
		}
		db.markersPending.Store(true)
	}
	db.walGate.Unlock()

	if err := ds.writePlannedFiles(outs); err != nil {
		// The marker already names these files; they will never appear,
		// so it stays inert and the next truncation scrubs it.
		return abort(err)
	}
	for _, o := range outs {
		if err := ds.fs.Rename(o.bf.path+".tmp", o.bf.path); err != nil {
			// The marker is durable but names files that never appeared:
			// replay ignores it and recovers everything from the WAL.
			for _, o2 := range outs {
				o2.bf.f.Close()
				ds.fs.Remove(o2.bf.path + ".tmp")
				ds.fs.Remove(o2.bf.path)
			}
			return abort(fmt.Errorf("tsdb: flush rename: %w", err))
		}
	}
	// Directory fsync makes the renames crash-durable. On failure the
	// files are still live (publish below), but WAL truncation is
	// skipped so a crash that loses the renames loses nothing.
	dirSyncErr := ds.fs.SyncDir(ds.dir)

	var stats FlushStats
	ds.mu.Lock()
	for _, o := range outs {
		ds.addFileLocked(o.bf)
		repl := make(map[*diskChunk]*diskChunk, len(o.chunks))
		for i, c := range o.chunks {
			repl[c] = &diskChunk{
				ref: c.ref, file: o.bf, off: o.pos[i].off, dlen: c.dlen, crc: o.pos[i].crc,
				minTS: c.minTS, maxTS: c.maxTS, n: c.n,
			}
			stats.Points += c.n
		}
		ids := make(map[SeriesID]bool)
		for _, c := range o.chunks {
			ids[c.ref.id] = true
		}
		for id := range ids {
			ds.replaceChunksLocked(id, nil, repl)
		}
		stats.Chunks += len(o.chunks)
		stats.Files++
		stats.Bytes += o.bf.size
	}
	ds.mu.Unlock()
	ds.lastFlush.Store(time.Now().UnixNano())
	ds.flushes.Add(1)
	if ins := db.instr.Load(); ins != nil {
		ins.Flush.ObserveSince(t0)
	}
	if dirSyncErr != nil {
		ds.flushErrs.Add(1)
		return stats, fmt.Errorf("tsdb: flush dir fsync: %w", dirSyncErr)
	}
	if truncate && db.wal != nil {
		if err := db.compactWALLocked(); err != nil {
			if errors.Is(err, ErrTruncateDeferred) {
				// A live replication reader hasn't streamed the tail
				// yet: not an error — the flush landed, markersPending
				// stays set, and the next pass retries truncation once
				// the reader catches up (or its lease is revoked).
				return stats, nil
			}
			// The flush itself landed; the log just kept its old tail.
			// markersPending stays set and the next pass retries.
			ds.flushErrs.Add(1)
			return stats, fmt.Errorf("tsdb: wal truncate after flush: %w", err)
		}
	}
	return stats, nil
}

// extractCold removes everything wholly before cutoff from memory and
// stages it as pending disk chunks, one shard critical section at a
// time. Sealed blocks move verbatim (no re-encode); straddling blocks
// split; the cold head prefix is encoded as a fresh chunk.
func (db *DB) extractCold(cutoffMS int64) []*diskChunk {
	ds := db.disk
	var staged []*diskChunk
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for _, s := range sh.series {
			if s.ref.dead.Load() {
				continue
			}
			cold := len(s.head) > 0 && s.head[0].Timestamp < cutoffMS
			if !cold {
				for _, b := range s.blocks {
					if b.minTS < cutoffMS {
						cold = true
						break
					}
				}
			}
			if !cold {
				continue
			}
			var out []*diskChunk
			var keep []sealedBlock
			for _, b := range s.blocks {
				switch {
				case b.maxTS < cutoffMS:
					out = append(out, &diskChunk{
						ref: s.ref, data: b.data, dlen: uint32(len(b.data)),
						crc: crc32c(b.data), minTS: b.minTS, maxTS: b.maxTS, n: b.n,
					})
				case b.minTS >= cutoffMS:
					keep = append(keep, b)
				default:
					pts, err := decodeBlock(b.data, b.n)
					if err != nil {
						// A corrupt in-memory block should be impossible;
						// keep it rather than drop data.
						keep = append(keep, b)
						continue
					}
					sort.Slice(pts, func(a, b int) bool { return pts[a].Timestamp < pts[b].Timestamp })
					split := sort.Search(len(pts), func(i int) bool { return pts[i].Timestamp >= cutoffMS })
					if c := db.encodeChunk(s.ref, pts[:split]); c != nil {
						out = append(out, c)
					}
					if nb := db.encodeSealed(pts[split:]); nb.n > 0 {
						keep = append(keep, nb)
					}
				}
			}
			lo := sort.Search(len(s.head), func(i int) bool { return s.head[i].Timestamp >= cutoffMS })
			if lo > 0 {
				if c := db.encodeChunk(s.ref, s.head[:lo]); c != nil {
					out = append(out, c)
				}
				n := copy(s.head, s.head[lo:])
				s.head = s.head[:n]
			}
			s.blocks = keep
			if len(out) > 0 {
				ds.stage(s.ref.id, out)
				staged = append(staged, out...)
			}
		}
		sh.mu.Unlock()
	}
	return staged
}

// encodeChunk seals sorted points into a pending disk chunk.
func (db *DB) encodeChunk(ref *Ref, pts []Point) *diskChunk {
	if len(pts) == 0 {
		return nil
	}
	b := db.encodeSealed(pts)
	return &diskChunk{
		ref: ref, data: b.data, dlen: uint32(len(b.data)), crc: crc32c(b.data),
		minTS: b.minTS, maxTS: b.maxTS, n: b.n,
	}
}

// restoreStaged reinserts staged chunks' points into memory (the
// flush failure path). Points are already in the WAL, so the insert
// bypasses it.
func (db *DB) restoreStaged(staged []*diskChunk) {
	for _, c := range staged {
		pts, err := decodeBlock(c.data, c.n)
		if err != nil {
			continue
		}
		for _, p := range pts {
			db.insertRef(RefPoint{Ref: c.ref, Point: p})
		}
	}
}

// flushOutput is one block file produced by a flush pass, tracked
// from planning (name and bounds only) through write and rename.
type flushOutput struct {
	bf     *blockFile
	chunks []*diskChunk // staged chunks, in file order
	pos    []chunkPos   // filled by writePlannedFiles
}

// planStagedFiles groups staged chunks by time partition and plans
// one block file per partition — name, sequence, bounds — without
// touching disk, so the flush marker can name the files (under the
// closed WAL gate) before any file I/O starts. Sequence numbers are
// consumed even if the pass later aborts; names are never reused.
// Caller holds opMu.
func (ds *diskStore) planStagedFiles(staged []*diskChunk) []flushOutput {
	// opts live on the DB; partition duration is threaded via ds.part.
	byPart := make(map[int64][]*diskChunk)
	for _, c := range staged {
		p := partStart(c.minTS, ds.partMS)
		byPart[p] = append(byPart[p], c)
	}
	parts := make([]int64, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
	var outs []flushOutput
	for _, p := range parts {
		chunks := byPart[p]
		sort.Slice(chunks, func(i, j int) bool {
			if chunks[i].minTS != chunks[j].minTS {
				return chunks[i].minTS < chunks[j].minTS
			}
			return chunks[i].ref.id < chunks[j].ref.id
		})
		seq := ds.nextSeq
		ds.nextSeq++
		name := blockFileName(p, seq)
		var minTS, maxTS int64
		for i, c := range chunks {
			if i == 0 || c.minTS < minTS {
				minTS = c.minTS
			}
			if i == 0 || c.maxTS > maxTS {
				maxTS = c.maxTS
			}
		}
		outs = append(outs, flushOutput{
			bf: &blockFile{name: name, path: filepath.Join(ds.dir, name),
				minTS: minTS, maxTS: maxTS, part: p, seq: seq},
			chunks: chunks,
		})
	}
	return outs
}

// writePlannedFiles writes each planned file's bytes to its temporary
// path (fsynced, not yet renamed: bf.path is the final path, the
// bytes live at bf.path+".tmp") and fills in the handle, size and
// chunk positions. On error every temporary written so far is
// removed. Caller holds opMu.
func (ds *diskStore) writePlannedFiles(outs []flushOutput) error {
	for i := range outs {
		o := &outs[i]
		f, size, pos, err := writeBlockChunks(ds.fs, o.bf.path+".tmp", o.chunks)
		if err != nil {
			for j := 0; j < i; j++ {
				outs[j].bf.f.Close()
				ds.fs.Remove(outs[j].bf.path + ".tmp")
			}
			return err
		}
		o.bf.f, o.bf.size, o.pos = f, size, pos
	}
	return nil
}

// CompactBlocks merges runs of small block files into larger ones
// (bounded by Options.CompactMaxBytes) and deletes the inputs. A
// pending WAL truncation is retried first; while one is pending, file
// merging is skipped so the marker's file references stay valid. An
// in-memory store has nothing to compact.
func (db *DB) CompactBlocks() (merged int, err error) {
	ds := db.disk
	if ds == nil {
		return 0, nil
	}
	if err := db.Degraded(); err != nil {
		return 0, err
	}
	defer func() { db.noteCompactResult(err) }()
	ds.opMu.Lock()
	defer ds.opMu.Unlock()
	ds.sweepRetired(retiredFileGrace)
	if db.markersPending.Load() {
		if err := db.compactWALLocked(); err != nil {
			if errors.Is(err, ErrTruncateDeferred) {
				// Benign: a replication reader is behind. Merging is
				// skipped while markers are pending so their file
				// references stay valid; the next pass retries.
				return 0, nil
			}
			ds.compactErrs.Add(1)
			return 0, fmt.Errorf("tsdb: retry wal truncate: %w", err)
		}
	}
	t0 := time.Now()

	ds.mu.RLock()
	files := make([]*blockFile, 0, len(ds.files))
	for _, bf := range ds.files {
		files = append(files, bf)
	}
	ds.mu.RUnlock()
	sort.Slice(files, func(i, j int) bool {
		if files[i].part != files[j].part {
			return files[i].part < files[j].part
		}
		if files[i].minTS != files[j].minTS {
			return files[i].minTS < files[j].minTS
		}
		return files[i].seq < files[j].seq
	})

	// Greedy size-bounded runs; a run never crosses a partition
	// boundary, so compaction output stays time-partitioned.
	var runs [][]*blockFile
	var run []*blockFile
	var runBytes int64
	flushRun := func() {
		if len(run) >= 2 {
			runs = append(runs, run)
		}
		run, runBytes = nil, 0
	}
	for _, bf := range files {
		if len(run) > 0 && (bf.part != run[0].part || runBytes+bf.size > ds.maxMergeBytes) {
			flushRun()
		}
		run = append(run, bf)
		runBytes += bf.size
	}
	flushRun()

	for _, r := range runs {
		if e := ds.mergeRun(r); e != nil {
			ds.compactErrs.Add(1)
			if err == nil {
				err = e
			}
			continue
		}
		merged += len(r)
	}
	if merged > 0 {
		ds.compactions.Add(1)
		if ins := db.instr.Load(); ins != nil {
			ins.Compact.ObserveSince(t0)
		}
	}
	return merged, err
}

// mergeRun rewrites every live chunk of the run's files into one new
// file, then retires the inputs. Caller holds opMu.
func (ds *diskStore) mergeRun(run []*blockFile) error {
	inRun := make(map[*blockFile]bool, len(run))
	for _, bf := range run {
		inRun[bf] = true
	}
	var chunks []*diskChunk
	ds.mu.RLock()
	for _, cs := range ds.bySeries {
		for _, c := range cs {
			if c.file != nil && inRun[c.file] {
				chunks = append(chunks, c)
			}
		}
	}
	ds.mu.RUnlock()
	if len(chunks) == 0 {
		// Nothing references these files anymore; just drop them.
		ds.mu.Lock()
		for _, bf := range run {
			ds.removeFileLocked(bf)
		}
		ds.mu.Unlock()
		return nil
	}
	nbf, repl, err := ds.rewriteFile(run[0].part, chunks)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	ds.addFileLocked(nbf)
	for id := range ds.bySeries {
		ds.replaceChunksLocked(id, nil, repl)
	}
	for _, bf := range run {
		ds.removeFileLocked(bf)
	}
	ds.mu.Unlock()
	return nil
}

// flushLoop is the background goroutine driving periodic flushes and
// compactions; stopped by Close. The caller (OpenOptions) wraps it in
// obs.Supervised and owns the WaitGroup accounting.
func (db *DB) flushLoop(stop <-chan struct{}) {
	// A non-positive interval disables that timer: time.NewTicker
	// panics on it, and the flags document negative as "disabled". A
	// nil channel blocks forever in the select.
	var flushC, compactC <-chan time.Time
	if db.opts.FlushInterval > 0 {
		t := time.NewTicker(db.opts.FlushInterval)
		defer t.Stop()
		flushC = t.C
	}
	if db.opts.CompactInterval > 0 {
		t := time.NewTicker(db.opts.CompactInterval)
		defer t.Stop()
		compactC = t.C
	}
	for {
		select {
		case <-stop:
			return
		case <-flushC:
			// Errors are counted in DiskStats.FlushErrors and surfaced
			// through /metrics; transient failures are retried in place
			// with capped backoff before the store degrades.
			db.retryStructural(stop, func() error {
				_, err := db.FlushBlocks()
				return err
			})
		case <-compactC:
			db.retryStructural(stop, func() error {
				_, err := db.CompactBlocks()
				return err
			})
		}
	}
}
