package tsdb

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/tsdb/fsio"
)

// openFaulty opens a durable-blocks DB on dir over a FaultFS whose
// plan is armed only after open, so setup ops never trip it.
func openFaulty(t *testing.T, dir string) (*DB, *fsio.FaultFS) {
	t.Helper()
	ffs := fsio.NewFaultFS(fsio.OS)
	db, err := OpenOptions(Options{
		Dir: dir, FlushInterval: -1, CompactInterval: -1,
		FS: ffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, ffs
}

func TestFsyncFailureDegrades(t *testing.T) {
	db, ffs := openFaulty(t, t.TempDir())
	defer db.Close()

	for i := 0; i < 10; i++ {
		if err := put(db, pt("m.deg", "n1", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ffs.SetPlan(func(op fsio.Op, path string, n int64) *fsio.Fault {
		if op == fsio.OpSync {
			return &fsio.Fault{Err: syscall.EIO}
		}
		return nil
	})

	// One failed fsync flips the store: the page cache can no longer
	// be trusted to match the disk.
	if err := db.Sync(); err == nil {
		t.Fatal("Sync succeeded through a failing fsync")
	}
	if err := db.Degraded(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Degraded() = %v, want ErrDegraded", err)
	}
	if _, ok := db.DegradedSince(); !ok {
		t.Fatal("DegradedSince not set")
	}

	// Writes fail fast with the sentinel…
	if err := put(db, pt("m.deg", "n1", 100, 1)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write while degraded = %v, want ErrDegraded", err)
	}
	ref, err := db.Intern("m.deg", map[string]string{"sensor": "n1", "city": "trondheim"})
	if err != nil {
		t.Fatal(err)
	}
	res := db.AppendRefs([]RefPoint{{Ref: ref, Point: Point{Timestamp: baseTS + 200*60000, Value: 1}}})
	if res.Stored != 0 || len(res.Errors) != 1 || !errors.Is(res.Errors[0].Err, ErrDegraded) {
		t.Fatalf("AppendRefs while degraded = %+v, want one ErrDegraded", res)
	}

	// …flush is refused…
	if _, err := db.FlushBlocks(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("FlushBlocks while degraded = %v, want ErrDegraded", err)
	}

	// …and reads keep serving the data already held.
	ffs.SetPlan(nil)
	pts := queryAll(t, db, "m.deg", "n1")
	if len(pts) != 10 {
		t.Fatalf("read %d points while degraded, want 10", len(pts))
	}

	st := db.StorageErrors()
	if st.WALFsync == 0 {
		t.Fatalf("StorageErrors = %+v, want WALFsync > 0", st)
	}

	// Degraded is sticky: a now-healthy disk does not clear it.
	if err := db.Sync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Sync after disk recovered = %v, want sticky ErrDegraded", err)
	}
}

func TestConsecutiveWALAppendFailuresDegrade(t *testing.T) {
	db, ffs := openFaulty(t, t.TempDir())
	defer db.Close()

	ref, err := db.Intern("m.wap", map[string]string{"sensor": "n1", "city": "trondheim"})
	if err != nil {
		t.Fatal(err)
	}
	// A batch big enough to overflow the WAL's 64 KiB write buffer, so
	// the append actually reaches the (failing) file instead of parking
	// in memory until the next fsync.
	batch := make([]RefPoint, 4096)
	for i := range batch {
		batch[i] = RefPoint{Ref: ref, Point: Point{Timestamp: baseTS + int64(i), Value: 1}}
	}
	ffs.SetPlan(func(op fsio.Op, path string, n int64) *fsio.Fault {
		if op == fsio.OpWrite {
			return &fsio.Fault{Err: syscall.EIO}
		}
		return nil
	})
	for i := 0; i < walAppendDegradeAfter; i++ {
		res := db.AppendRefs(batch)
		if res.Stored != 0 || len(res.Errors) == 0 {
			t.Fatalf("batch %d stored %d points through a failing WAL", i, res.Stored)
		}
		if i < walAppendDegradeAfter-1 && errors.Is(res.Errors[0].Err, ErrDegraded) {
			t.Fatalf("batch %d already saw ErrDegraded; threshold is %d", i, walAppendDegradeAfter)
		}
	}
	if err := db.Degraded(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Degraded() after %d consecutive append failures = %v, want ErrDegraded",
			walAppendDegradeAfter, err)
	}
	if st := db.StorageErrors(); st.WALAppend < walAppendDegradeAfter {
		t.Fatalf("StorageErrors = %+v, want WALAppend >= %d", st, walAppendDegradeAfter)
	}
}

func TestTransientWALAppendFailureDoesNotDegrade(t *testing.T) {
	db, err := OpenOptions(Options{Dir: t.TempDir(), FlushInterval: -1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Drive the consecutive-failure accounting directly: one fewer
	// error than the threshold, a success in between, then more errors
	// — the counter resets on success, so the store never degrades.
	blip := errors.New("transient EIO")
	for round := 0; round < 3; round++ {
		for i := 0; i < walAppendDegradeAfter-1; i++ {
			db.noteWALAppendError(blip)
		}
		db.noteWALAppendOK()
	}
	if err := db.Degraded(); err != nil {
		t.Fatalf("Degraded() = %v, want nil after transient blips", err)
	}
	db.noteWALAppendError(blip)
	db.noteWALAppendError(blip)
	db.noteWALAppendError(blip)
	if err := db.Degraded(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Degraded() = %v, want ErrDegraded once the run is unbroken", err)
	}
}

func TestRepeatedFlushFailuresDegrade(t *testing.T) {
	db, ffs := openFaulty(t, t.TempDir())
	defer db.Close()

	// Enough sealed-block history that a flush pass has real work.
	fillDiskSeries(t, db, "m.ffl", "n1", 600)
	ffs.SetPlan(func(op fsio.Op, path string, n int64) *fsio.Fault {
		if op == fsio.OpCreate {
			return &fsio.Fault{Err: syscall.ENOSPC}
		}
		return nil
	})
	for i := 0; i < flushDegradeAfter; i++ {
		if _, err := db.flushBefore(maxTS, true); err == nil {
			t.Fatalf("flush %d succeeded on a full disk", i)
		} else if errors.Is(err, ErrDegraded) {
			t.Fatalf("flush %d refused as degraded before threshold", i)
		}
		db.noteFlushResult(errors.New("flush failed"))
	}
	if err := db.Degraded(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Degraded() after %d flush failures = %v, want ErrDegraded", flushDegradeAfter, err)
	}
	// Reads still serve everything out of memory.
	ffs.SetPlan(nil)
	if pts := queryAll(t, db, "m.ffl", "n1"); len(pts) != 600 {
		t.Fatalf("read %d points, want 600", len(pts))
	}
}

// TestCompactWALDirSyncFailureDegrades: the WAL rewrite renames
// tsdb.wal.tmp over tsdb.wal; a rejected fsync of the directory after
// the rename means the new log may not survive a power loss, so no
// write may be acked on top of it.
func TestCompactWALDirSyncFailureDegrades(t *testing.T) {
	db, ffs := openFaulty(t, t.TempDir())
	defer db.Close()
	for i := 0; i < 10; i++ {
		if err := put(db, pt("m.deg", "n1", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var renamed, synced bool
	ffs.SetPlan(func(op fsio.Op, path string, n int64) *fsio.Fault {
		switch {
		case op == fsio.OpRename && filepath.Base(path) == "tsdb.wal":
			renamed = true
		case op == fsio.OpSyncDir && renamed && !synced:
			synced = true
			return &fsio.Fault{Err: syscall.EIO}
		}
		return nil
	})
	if err := db.CompactWAL(); err == nil {
		t.Fatal("CompactWAL succeeded through a failing directory fsync")
	}
	if !synced {
		t.Fatal("CompactWAL never synced the directory after its rename")
	}
	if err := db.Degraded(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Degraded() = %v, want ErrDegraded", err)
	}
	if err := put(db, pt("m.deg", "n1", 100, 1)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write after the unsynced rename = %v, want ErrDegraded", err)
	}
	ffs.SetPlan(nil)
	if pts := queryAll(t, db, "m.deg", "n1"); len(pts) != 10 {
		t.Fatalf("read %d points while degraded, want 10", len(pts))
	}
}
