package tsdb

// Batch ingestion: the HTTP gateway accepts whole JSON arrays of data
// points per request and resolves every point to its interned series
// at the edge, so the store offers an append path that commits the
// whole batch to the WAL with one lock acquisition and one buffered
// write, groups inserts by shard so each shard lock is taken once,
// and fans the stored batch out to observers with a single call.

import (
	"fmt"
	"time"
)

// PointError locates one rejected point within a batch.
type PointError struct {
	Index int   // position in the submitted batch
	Err   error // why it was rejected
}

func (e PointError) Error() string {
	return fmt.Sprintf("tsdb: point %d: %v", e.Index, e.Err)
}

// BatchResult summarises an AppendRefs call.
type BatchResult struct {
	Stored int
	Errors []PointError
}

// AppendRefs stores a batch of points on interned series — the
// zero-resolution fast path the ingest queue drains through. The
// whole batch is WAL-committed with one lock acquisition and one
// buffered write (series metric+tags travel as dictionary records,
// logged once per series per log), inserted shard by shard, and
// announced to observers in a single batch call. Timestamps must
// already be validated. Error indexes refer to positions in rps.
func (db *DB) AppendRefs(rps []RefPoint) BatchResult {
	return db.appendRefsPos(rps, nil)
}

// appendRefsPos is AppendRefs' body; a non-nil pos (the replication
// apply path, see AppendRefsAt) rides in the same WAL write as the
// batch.
func (db *DB) appendRefsPos(rps []RefPoint, pos *ReplPos) BatchResult {
	var res BatchResult
	if len(rps) == 0 {
		return res
	}
	if st := db.degraded.Load(); st != nil {
		for i := range rps {
			res.Errors = append(res.Errors, PointError{Index: i, Err: st.err})
		}
		return res
	}
	// Stage-relay timing (wal append → insert → fan-out) when
	// instrumentation is installed; one atomic load otherwise.
	ins := db.instr.Load()
	var t0, mark time.Time
	if ins != nil {
		t0 = time.Now()
		mark = t0
	}
	if db.wal != nil {
		db.walGate.RLock()
		err := db.wal.appendRefs(rps, pos)
		if ins != nil {
			relay(ins.WALAppend, &mark)
		}
		if err != nil {
			db.walGate.RUnlock()
			db.noteWALAppendError(err)
			// Group commit is all-or-nothing: an append error means the
			// batch is not durable, so nothing is stored.
			err = fmt.Errorf("tsdb: wal append: %w", err)
			for i := range rps {
				res.Errors = append(res.Errors, PointError{Index: i, Err: err})
			}
			return res
		}
		db.insertRefBatch(rps)
		db.walGate.RUnlock()
		db.noteWALAppendOK()
	} else {
		db.insertRefBatch(rps)
	}
	if ins != nil {
		relay(ins.Insert, &mark)
	}
	res.Stored = len(rps)
	if db.observers.Load() != nil {
		db.notifyObserversBatch(rps)
		if ins != nil {
			ins.Fanout.ObserveSince(mark)
		}
	}
	if ins != nil {
		ins.IngestBatch.ObserveSince(t0)
	}
	return res
}

// insertRefBatch groups the batch by storage shard and takes each
// shard lock once. Dead refs (series removed by retention between
// resolution and insert) are rare; they fall back to the re-interning
// single-point path.
func (db *DB) insertRefBatch(rps []RefPoint) {
	var counts [numShards]int
	for i := range rps {
		counts[rps[i].Ref.shard]++
	}
	for si := 0; si < numShards; si++ {
		if counts[si] == 0 {
			continue
		}
		sh := &db.shards[si]
		sh.mu.Lock()
		for i := range rps {
			if int(rps[i].Ref.shard) != si {
				continue
			}
			if rps[i].Ref.dead.Load() {
				// Resurrect outside the shard lock, below.
				continue
			}
			db.insertSeriesLocked(rps[i].Ref.s, rps[i].Point)
			counts[si]--
		}
		sh.mu.Unlock()
		if counts[si] > 0 {
			for i := range rps {
				if int(rps[i].Ref.shard) == si && rps[i].Ref.dead.Load() {
					db.insertRef(rps[i])
				}
			}
		}
	}
}

// observerEntry wraps an observer callback so removal can compare
// identities (func values are not comparable).
type observerEntry struct {
	fn func([]RefPoint)
}

// notifyObserversBatch fans a stored batch out to every registered
// observer with one call per observer. Runs outside the shard locks,
// so observers may write back into the store (the rollup engine
// flushes derived points from inside its observer).
func (db *DB) notifyObserversBatch(rps []RefPoint) {
	obs := db.observers.Load()
	if obs == nil {
		return
	}
	for _, e := range *obs {
		e.fn(rps)
	}
}

// AddBatchObserver registers a callback invoked (outside the shard
// locks) once per stored batch — the batch-granular hook the rollup
// engine and the gateway's stream/cache fan-out subscribe to, so a
// 256-point batch costs one observer call instead of 256. The slice
// and the Refs' tags are shared state: observers must not mutate
// or retain them past the call. It returns a removal function. WAL
// replay during Open does not trigger observers.
func (db *DB) AddBatchObserver(fn func([]RefPoint)) (remove func()) {
	e := &observerEntry{fn: fn}
	db.obsMu.Lock()
	db.addEntryLocked(e)
	db.obsMu.Unlock()
	return func() {
		db.obsMu.Lock()
		db.removeEntryLocked(e)
		db.obsMu.Unlock()
	}
}

func (db *DB) addEntryLocked(e *observerEntry) {
	var cur []*observerEntry
	if p := db.observers.Load(); p != nil {
		cur = *p
	}
	next := make([]*observerEntry, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, e)
	db.observers.Store(&next)
}

func (db *DB) removeEntryLocked(e *observerEntry) {
	p := db.observers.Load()
	if p == nil {
		return
	}
	next := make([]*observerEntry, 0, len(*p))
	for _, o := range *p {
		if o != e {
			next = append(next, o)
		}
	}
	if len(next) == 0 {
		db.observers.Store(nil)
		return
	}
	db.observers.Store(&next)
}
