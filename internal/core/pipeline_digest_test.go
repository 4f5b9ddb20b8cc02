package core

import (
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/rollup"
	"repro/internal/tsdb"
)

// storeDigest folds every stored point into an order-independent
// digest: the wrapping sum of one FNV-1a hash per (series key,
// timestamp, value bits). A lost, duplicated or bit-changed point
// moves it; arrival order and series IDs do not.
func storeDigest(t *testing.T, db *tsdb.DB) (points int, digest uint64) {
	t.Helper()
	err := db.ScanSeries("", nil, 0, math.MaxInt64/2, func(series *tsdb.Ref, pts []tsdb.Point) error {
		key := series.Metric()
		for _, tg := range series.Tags() { // sorted by key
			key += "," + tg.Key + "=" + tg.Value
		}
		for _, p := range pts {
			h := fnv.New64a()
			h.Write([]byte(key))
			var b [16]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(uint64(p.Timestamp) >> (8 * i))
				b[8+i] = byte(math.Float64bits(p.Value) >> (8 * i))
			}
			h.Write(b[:])
			digest += h.Sum64()
			points++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return points, digest
}

// TestPilotDayStoreDigest replays one seeded day of the Trondheim
// pilot through the Fig. 1 pipeline with the rollup engine attached
// and compares everything the store then holds — raw readings and
// every derived statistic — against a count and digest recorded from
// the code path before uplinks and sealed windows were written by ref
// (PR 16's tree, same test). Any change to what the pipeline stores,
// as opposed to how fast, fails here.
func TestPilotDayStoreDigest(t *testing.T) {
	const (
		wantUplinks = 3348
		wantSeries  = 1853
		wantPoints  = 295580
		wantDigest  = uint64(0x7409ecf62de681da)
	)
	sys := newSystem(t, TrondheimConfig(3))
	eng, err := rollup.New(sys.DB, rollup.Config{Grace: time.Minute, FlushEvery: -1, Now: sys.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := sys.Run(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	eng.FlushAll()
	points, digest := storeDigest(t, sys.DB)
	t.Logf("uplinks=%d series=%d points=%d digest=%#x", sys.IngestCount(), sys.DB.SeriesCount(), points, digest)
	if sys.IngestCount() != wantUplinks || sys.DB.SeriesCount() != wantSeries || points != wantPoints || digest != wantDigest {
		t.Fatalf("stored uplinks=%d series=%d points=%d digest=%#x, want %d %d %d %#x",
			sys.IngestCount(), sys.DB.SeriesCount(), points, digest, wantUplinks, wantSeries, wantPoints, wantDigest)
	}
	if got := sys.DB.PointCount(); got != points {
		t.Fatalf("PointCount %d, scan saw %d", got, points)
	}
}
