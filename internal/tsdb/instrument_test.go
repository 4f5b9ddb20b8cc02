package tsdb

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestQueryTraceStages: a traced ExecuteStream populates the coarse
// pipeline stages, and a detailed trace adds the per-point ones.
func TestQueryTraceStages(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 4; i++ {
		fillSeries(t, db, string(rune('a'+i)), float64(i), 300) // >256 seals a block
	}

	run := func(detailed bool) *obs.Trace {
		tr := obs.NewTrace("query", "test")
		tr.SetDetailed(detailed)
		q := Query{
			Metric: "air.co2", Tags: map[string]string{"sensor": "*"},
			Start: 0, End: 2000000000000, Aggregator: AggAvg,
			Downsample: 10 * time.Second, DownsampleFn: AggAvg,
			Trace: tr,
		}
		n := 0
		if err := db.ExecuteStream(q, func(rs ResultSeries) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Fatalf("got %d series, want 4", n)
		}
		return tr
	}

	tr := run(false)
	for _, stage := range []string{"match_series", "member_prime", "kway_merge", "group_reduce"} {
		if tr.StageCount(stage) == 0 {
			t.Errorf("coarse trace missing stage %q:\n%s", stage, tr.RenderTree())
		}
	}
	for _, stage := range []string{"block_decode", "head_scan"} {
		if tr.StageCount(stage) != 0 {
			t.Errorf("undetailed trace recorded per-point stage %q", stage)
		}
	}
	tr.Release()

	tr = run(true)
	for _, stage := range []string{"block_decode", "head_scan", "downsample_fold"} {
		if tr.StageCount(stage) == 0 {
			t.Errorf("detailed trace missing stage %q:\n%s", stage, tr.RenderTree())
		}
	}
	tr.Release()
}

// TestIngestInstrumentation: with an Instrumentation installed,
// AppendRefs feeds the stage histograms; without one the batch path
// records nothing (and pays only an atomic load).
func TestIngestInstrumentation(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenOptions(diskOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	reg := obs.NewRegistry()
	ins := &Instrumentation{
		IngestBatch: reg.Histogram("batch_seconds", "", nil),
		WALAppend:   reg.Histogram("wal_append_seconds", "", nil),
		WALFsync:    reg.Histogram("wal_fsync_seconds", "", nil),
		Insert:      reg.Histogram("insert_seconds", "", nil),
		Fanout:      reg.Histogram("fanout_seconds", "", nil),
	}
	db.SetInstrumentation(ins)
	remove := db.AddBatchObserver(func([]RefPoint) {})
	defer remove()

	ref, err := db.Intern("ins.m", map[string]string{"s": "1"})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]RefPoint, 8)
	for i := range batch {
		batch[i] = RefPoint{Ref: ref, Point: Point{Timestamp: int64(i + 1), Value: 1}}
	}
	if res := db.AppendRefs(batch); res.Stored != 8 {
		t.Fatalf("stored %d, want 8", res.Stored)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}

	for name, h := range map[string]*obs.Histogram{
		"IngestBatch": ins.IngestBatch,
		"WALAppend":   ins.WALAppend,
		"WALFsync":    ins.WALFsync,
		"Insert":      ins.Insert,
		"Fanout":      ins.Fanout,
	} {
		if h.Count() == 0 {
			t.Errorf("%s histogram recorded nothing", name)
		}
	}

	if _, ok := db.WALLastSync(); !ok {
		t.Error("WALLastSync not reported with a WAL attached")
	}
}
