package repl

// The follower's live-stream decoding, end to end through its stream
// loop, against a primary's log bytes cut into data frames anywhere.
// The record decoder itself is fuzzed where it lives, in
// internal/tsdb. Run
//
//	go test -run '^$' -fuzz FuzzRecDecoder ./internal/repl
//
// to search beyond the seed corpus every plain `go test` runs.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// primaryLog writes through a store's own append paths in a fresh
// directory — whatever write does — and returns the log's records, the
// bytes a primary streams past the magic.
func primaryLog(t testing.TB, write func(db *tsdb.DB)) []byte {
	dir := t.TempDir()
	db, err := tsdb.OpenOptions(tsdb.Options{Dir: dir, FlushInterval: -1, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	write(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, tsdb.WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	return b[8:]
}

// streamOutcome is what a follower makes of a stream: whether the
// session ran until the primary hung up, and then its committed
// position and stored points.
type streamOutcome struct {
	clean  bool
	pos    tsdb.ReplPos
	points []string
}

// followStream sends pieces as consecutive data frames to a follower's
// stream loop on a fresh store positioned at 1/8, then hangs up.
func followStream(t *testing.T, pieces ...[]byte) streamOutcome {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	start := tsdb.ReplPos{Gen: 1, Off: 8, Epoch: 1}
	if err := db.CommitReplPos(start); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		off := start.Off
		for _, p := range pieces {
			frame := append(appendClock(appendPos(nil, start.Gen, off)), p...)
			if _, err := writeFrame(server, nil, time.Second, fData, frame); err != nil {
				return // the follower hung up
			}
			off += int64(len(p))
		}
	}()
	f := NewFollower(FollowerConfig{DB: db, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	err = f.stream(&session{conn: client, br: bufio.NewReader(client)})
	out := streamOutcome{clean: errors.Is(err, io.EOF)}
	out.pos, _ = db.ReplPosition()
	db.ScanSeries("", nil, 0, 1<<62, func(ref *tsdb.Ref, pts []tsdb.Point) error {
		for _, p := range pts {
			out.points = append(out.points, fmt.Sprintf("%s@%d=%#x", ref.Key(), p.Timestamp, math.Float64bits(p.Value)))
		}
		return nil
	})
	return out
}

// FuzzRecDecoder feeds a follower's stream loop a primary's log bytes,
// optionally with one byte corrupted, as one data frame and as two
// split at a fuzzed offset. Neither may panic, and both must end the
// same way: a record boundary is not the stream's to choose, a data
// frame may end anywhere. A stream that applies must leave the same
// points either way.
func FuzzRecDecoder(f *testing.F) {
	putN := func(db *tsdb.DB, metric string, n int) {
		ref, err := db.Intern(metric, map[string]string{"sensor": "n1", "city": "trondheim"})
		if err != nil {
			f.Fatal(err)
		}
		batch := make([]tsdb.RefPoint, n)
		for i := range batch {
			batch[i] = tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: testBase + int64(i)*60000, Value: float64(i) / 4}}
		}
		if res := db.AppendRefs(batch); len(res.Errors) > 0 {
			f.Fatal(res.Errors[0].Err)
		}
	}
	base := primaryLog(f, func(db *tsdb.DB) {
		putN(db, "air.co2", 3)
		putN(db, "air.no2", 2)
		putN(db, "air.co2", 1)
	})
	replica := primaryLog(f, func(db *tsdb.DB) { // replpos records ride with each batch
		ref, err := db.Intern("air.co2", map[string]string{"sensor": "n1"})
		if err != nil {
			f.Fatal(err)
		}
		for i := int64(0); i < 3; i++ {
			db.AppendRefsAt([]tsdb.RefPoint{{Ref: ref, Point: tsdb.Point{Timestamp: testBase + i, Value: 1}}}, tsdb.ReplPos{Gen: 1, Off: 100 * i, Epoch: 1})
		}
	})
	flushed := primaryLog(f, func(db *tsdb.DB) { // rewritten by a flush: a gen record, then the dictionary
		putN(db, "air.co2", 300)
		if _, err := db.FlushBlocks(); err != nil {
			f.Fatal(err)
		}
		putN(db, "air.pm10", 2)
	})
	compacted := primaryLog(f, func(db *tsdb.DB) { // gen and block2 records: refused in a stream
		putN(db, "air.co2", 300)
		if err := db.CompactWAL(); err != nil {
			f.Fatal(err)
		}
	})
	large := primaryLog(f, func(db *tsdb.DB) { putN(db, "air.co2", 2000) })
	for _, seed := range []struct {
		in             []byte
		split, corrupt uint16
	}{
		{base, 0, 0},
		{base, 30, 0},
		{base, uint16(len(base)), 0},
		{base, 45, 13},
		{replica, 70, 0},
		{flushed, 200, 0},
		{compacted, 40, 0},
		{base[:len(base)-5], 50, 0}, // torn final record
		{base, 60, 4 + 3*259},       // the first record's length field
		{large, 20011, 0},           // inside one large points record
		{base, 1, 0},                // inside the first header
		{replica, 100, 80},          // inside the first position record
	} {
		f.Add(slices.Clone(seed.in), seed.split, seed.corrupt)
	}
	f.Fuzz(func(t *testing.T, stream []byte, split, corrupt uint16) {
		if corrupt != 0 && len(stream) > 0 {
			stream[int(corrupt)%len(stream)] ^= byte(corrupt>>8) | 1
		}
		k := int(split) % (len(stream) + 1)
		whole := followStream(t, stream)
		parts := followStream(t, stream[:k], stream[k:])
		if whole.clean != parts.clean {
			t.Fatalf("split at %d of %d: clean end %v, whole %v", k, len(stream), parts.clean, whole.clean)
		}
		if !whole.clean {
			return
		}
		// The durable position rides with the next batch, so a split
		// whose last frame holds only bookkeeping records commits less
		// than the whole stream; never more.
		if parts.pos.Gen != whole.pos.Gen || parts.pos.Off > whole.pos.Off {
			t.Fatalf("split at %d of %d: position %+v, whole %+v", k, len(stream), parts.pos, whole.pos)
		}
		if !slices.Equal(whole.points, parts.points) {
			t.Fatalf("split at %d of %d: points %v, whole %v", k, len(stream), parts.points, whole.points)
		}
	})
}
