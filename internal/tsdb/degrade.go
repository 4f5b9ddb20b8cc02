package tsdb

// Degraded read-only mode: when the disk under the store stops
// cooperating — the WAL cannot be appended to or fsynced, or flushes
// keep failing — the store flips into a sticky degraded state instead
// of silently accepting writes it may not be able to make durable.
// Writes fail fast with ErrDegraded; reads, rollup serving and stats
// keep working off the data already held. The state never clears at
// runtime: after a rejected fsync the kernel may have dropped dirty
// pages that the process-side cache still reads back clean, so only a
// restart (replaying the WAL against a healthy disk) re-establishes a
// trustworthy baseline.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// ErrDegraded is the sentinel wrapped by every write rejected because
// the store is degraded; match with errors.Is.
var ErrDegraded = errors.New("tsdb: store degraded, writes disabled")

const (
	// walAppendDegradeAfter is how many consecutive WAL append failures
	// flip the store: a lone EIO may be transient, a run of them is a
	// dead log.
	walAppendDegradeAfter = 3

	// flushDegradeAfter / compactDegradeAfter bound how many
	// consecutive failed structural passes (each already retried with
	// backoff by the flush loop) are tolerated before degrading.
	flushDegradeAfter   = 5
	compactDegradeAfter = 5

	// structuralRetryBase/Max shape the flush loop's in-place retry
	// backoff.
	structuralRetryBase = 100 * time.Millisecond
	structuralRetryMax  = 5 * time.Second
)

// degradedState records why and when the store degraded.
type degradedState struct {
	err error // wraps ErrDegraded
	at  time.Time
}

// degrade flips the store into the sticky degraded state. The first
// cause wins; later calls are no-ops so the reported error is always
// the originating one.
func (db *DB) degrade(cause error) {
	st := &degradedState{
		err: fmt.Errorf("%w: %v", ErrDegraded, cause),
		at:  time.Now(),
	}
	db.degraded.CompareAndSwap(nil, st)
}

// Degraded returns nil while the store is healthy, and otherwise an
// error (wrapping ErrDegraded) describing the originating failure.
// One atomic load: safe on the per-point hot path.
func (db *DB) Degraded() error {
	if st := db.degraded.Load(); st != nil {
		return st.err
	}
	return nil
}

// DegradedSince reports when the store degraded; ok is false while
// healthy.
func (db *DB) DegradedSince() (time.Time, bool) {
	if st := db.degraded.Load(); st != nil {
		return st.at, true
	}
	return time.Time{}, false
}

// noteWALAppendError records one failed WAL append; a run of
// walAppendDegradeAfter consecutive failures degrades the store.
func (db *DB) noteWALAppendError(err error) {
	db.walAppendErrs.Add(1)
	if db.walAppendFails.Add(1) >= walAppendDegradeAfter {
		db.degrade(fmt.Errorf("wal append failing persistently: %w", err))
	}
}

// noteWALAppendOK resets the consecutive-failure run. The load-first
// shape keeps the hot path from dirtying a shared cache line on every
// point when nothing has ever failed.
func (db *DB) noteWALAppendOK() {
	if db.walAppendFails.Load() != 0 {
		db.walAppendFails.Store(0)
	}
}

// noteFlushResult tracks consecutive FlushBlocks failures and degrades
// after flushDegradeAfter of them. A WAL fsync failure inside the pass
// has already degraded the store directly (see flushBefore).
func (db *DB) noteFlushResult(err error) {
	if err == nil {
		if db.flushFails.Load() != 0 {
			db.flushFails.Store(0)
		}
		return
	}
	if errors.Is(err, ErrDegraded) {
		return
	}
	if db.flushFails.Add(1) >= flushDegradeAfter {
		db.degrade(fmt.Errorf("flush failing persistently: %w", err))
	}
}

// noteCompactResult is noteFlushResult for compaction passes.
func (db *DB) noteCompactResult(err error) {
	if err == nil {
		if db.compactFails.Load() != 0 {
			db.compactFails.Store(0)
		}
		return
	}
	if errors.Is(err, ErrDegraded) {
		return
	}
	if db.compactFails.Add(1) >= compactDegradeAfter {
		db.degrade(fmt.Errorf("compaction failing persistently: %w", err))
	}
}

// retryStructural runs fn, retrying transient failures with capped
// exponential backoff plus jitter (so a fleet of stores sharing a sick
// disk array doesn't retry in lockstep). It gives up when fn succeeds,
// the store degrades, or stop closes.
func (db *DB) retryStructural(stop <-chan struct{}, fn func() error) {
	backoff := structuralRetryBase
	for {
		err := fn()
		if err == nil || errors.Is(err, ErrDegraded) {
			return
		}
		d := backoff + rand.N(backoff)
		select {
		case <-stop:
			return
		case <-time.After(d):
		}
		if backoff *= 2; backoff > structuralRetryMax {
			backoff = structuralRetryMax
		}
	}
}

// StorageErrorStats are cumulative storage-failure counters, labeled
// per operation in /metrics as ctt_storage_errors_total{op}.
type StorageErrorStats struct {
	WALAppend uint64
	WALFsync  uint64
	Flush     uint64
	Compact   uint64
}

// StorageErrors reports cumulative storage-failure counts.
func (db *DB) StorageErrors() StorageErrorStats {
	st := StorageErrorStats{
		WALAppend: db.walAppendErrs.Load(),
		WALFsync:  db.walFsyncErrs.Load(),
	}
	if ds := db.disk; ds != nil {
		st.Flush = ds.flushErrs.Load()
		st.Compact = ds.compactErrs.Load()
	}
	return st
}
