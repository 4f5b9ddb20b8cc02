package tsdb

// Store-side instrumentation: the gateway (or any embedder) installs a
// set of obs histograms once, and the ingest path — every write is an
// AppendRefs batch — times its stages into them: WAL group commit,
// shard insert, observer fan-out, and the whole batch. The pointer is
// atomic so installation can happen after Open without racing
// writers, and a nil pointer keeps the uninstrumented hot path at a
// single atomic load (BenchmarkPut stays 0 allocs/op).

import (
	"time"

	"repro/internal/obs"
)

// Instrumentation carries the histograms the store observes into. Any
// field may be nil (obs histograms are nil-safe).
type Instrumentation struct {
	// IngestBatch covers a whole AppendRefs call.
	IngestBatch *obs.Histogram
	// WALAppend covers the WAL group commit inside AppendRefs.
	WALAppend *obs.Histogram
	// WALFsync covers explicit Sync calls (the periodic fsync loop).
	WALFsync *obs.Histogram
	// Insert covers the sharded in-memory insert inside AppendRefs.
	Insert *obs.Histogram
	// Fanout covers the observer fan-out (rollup, stream hub, cache
	// invalidation) inside AppendRefs.
	Fanout *obs.Histogram
	// Flush covers one durable-block flush pass (extract + write +
	// marker + publish, excluding the WAL truncation that follows).
	Flush *obs.Histogram
	// Compact covers one block compaction pass that merged files.
	Compact *obs.Histogram
}

// SetInstrumentation installs (or, with nil, removes) the store's
// ingest instrumentation.
func (db *DB) SetInstrumentation(ins *Instrumentation) {
	db.instr.Store(ins)
}

// relay is AppendRefs' stage-relay timer: observe the time since the
// previous mark into h and advance the mark.
func relay(h *obs.Histogram, mark *time.Time) {
	now := time.Now()
	h.Observe(now.Sub(*mark).Seconds())
	*mark = now
}
