package repl

import (
	"bufio"
	"encoding/binary"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tsdb"
)

var testBase = time.Date(2017, time.March, 1, 0, 0, 0, 0, time.UTC).UnixMilli()

func openStore(t *testing.T, dir string) *tsdb.DB {
	t.Helper()
	db, err := tsdb.OpenOptions(tsdb.Options{
		Dir: dir, FlushInterval: -1, CompactInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func put(t *testing.T, db *tsdb.DB, metric, sensor string, i int) {
	t.Helper()
	ref, err := db.Intern(metric, map[string]string{"sensor": sensor})
	if err != nil {
		t.Fatal(err)
	}
	p := tsdb.Point{Timestamp: testBase + int64(i)*60000, Value: float64(i)}
	if res := db.AppendRefs([]tsdb.RefPoint{{Ref: ref, Point: p}}); len(res.Errors) > 0 {
		t.Fatal(res.Errors[0].Err)
	}
}

func startPrimary(t *testing.T, db *tsdb.DB, key string) *Server {
	t.Helper()
	srv := NewServer(ServerConfig{
		DB:        db,
		Heartbeat: 50 * time.Millisecond,
		Authorize: func(k string) bool { return key == "" || k == key },
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// replica bundles a follower node's moving parts for tests.
type replica struct {
	dir string
	db  *tsdb.DB
	fol *Follower
}

// startReplica bootstraps dir from the primary and starts the apply
// loop. dial, when non-nil, replaces the network dialer (fault tests).
func startReplica(t *testing.T, dir, primary, key string, dial DialFunc) *replica {
	t.Helper()
	boot, err := Bootstrap(BootstrapConfig{Dir: dir, Primary: primary, Key: key, Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	db := openStore(t, dir)
	if boot.Snapshot {
		if err := db.CommitReplPos(boot.Pos); err != nil {
			t.Fatal(err)
		}
	}
	fol := NewFollower(FollowerConfig{
		DB: db, Primary: primary, Key: key, Dial: dial,
		Heartbeat:  50 * time.Millisecond,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	fol.Start(boot)
	return &replica{dir: dir, db: db, fol: fol}
}

func (r *replica) close() {
	r.fol.Close()
	r.db.Close()
}

// waitParity polls until the replica holds the same points as the
// primary (or the deadline passes).
func waitParity(t *testing.T, p, r *tsdb.DB, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if p.PointCount() == r.PointCount() && p.SeriesCount() == r.SeriesCount() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no parity after %v: primary %d pts/%d series, replica %d pts/%d series",
				timeout, p.PointCount(), p.SeriesCount(), r.PointCount(), r.SeriesCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertSeriesEqual compares one series' exact point set on both nodes.
func assertSeriesEqual(t *testing.T, p, r *tsdb.DB, metric, sensor string) {
	t.Helper()
	tags := map[string]string{"sensor": sensor}
	want, err := p.SeriesWindowExact(metric, tags, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.SeriesWindowExact(metric, tags, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s{sensor=%s}: replica has %d points, primary %d", metric, sensor, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s{sensor=%s}[%d]: replica %+v != primary %+v", metric, sensor, i, got[i], want[i])
		}
	}
}

func TestSnapshotBootstrapAndCatchUp(t *testing.T) {
	pdb := openStore(t, t.TempDir())
	defer pdb.Close()
	for i := 0; i < 400; i++ {
		put(t, pdb, "m.cpu", "a", i)
		put(t, pdb, "m.mem", "b", i)
	}
	// Seal part of the history into block files so the snapshot ships
	// blocks + WAL, not just a log.
	if _, err := pdb.FlushBlocks(); err != nil {
		t.Fatal(err)
	}
	srv := startPrimary(t, pdb, "sekrit")

	rep := startReplica(t, t.TempDir(), srv.Addr().String(), "sekrit", nil)
	defer rep.close()
	waitParity(t, pdb, rep.db, 5*time.Second)
	assertSeriesEqual(t, pdb, rep.db, "m.cpu", "a")
	assertSeriesEqual(t, pdb, rep.db, "m.mem", "b")

	// Live writes keep flowing.
	for i := 400; i < 500; i++ {
		put(t, pdb, "m.cpu", "a", i)
	}
	waitParity(t, pdb, rep.db, 5*time.Second)
	assertSeriesEqual(t, pdb, rep.db, "m.cpu", "a")
	if !rep.fol.Stats().Connected {
		t.Fatal("follower should report connected")
	}
	if lag := rep.fol.Stats().LagSeconds; lag < 0 || lag > 10 {
		t.Fatalf("implausible lag %v", lag)
	}
}

func TestBadKeyRefused(t *testing.T) {
	pdb := openStore(t, t.TempDir())
	defer pdb.Close()
	srv := startPrimary(t, pdb, "sekrit")
	_, err := Bootstrap(BootstrapConfig{Dir: t.TempDir(), Primary: srv.Addr().String(), Key: "wrong"})
	if err == nil {
		t.Fatal("bootstrap with a bad key should fail")
	}
}

func TestReconnectResumesWithoutDuplicates(t *testing.T) {
	pdb := openStore(t, t.TempDir())
	defer pdb.Close()
	for i := 0; i < 50; i++ {
		put(t, pdb, "m.rc", "a", i)
	}
	srv := startPrimary(t, pdb, "")

	// A dialer that remembers the live conn so the test can cut it.
	var mu sync.Mutex
	var last net.Conn
	dial := func(addr string) (net.Conn, error) {
		c, err := defaultDial(addr)
		if err == nil {
			mu.Lock()
			last = c
			mu.Unlock()
		}
		return c, err
	}
	rep := startReplica(t, t.TempDir(), srv.Addr().String(), "", dial)
	defer rep.close()
	waitParity(t, pdb, rep.db, 5*time.Second)

	// Cut the link mid-stream, keep writing, and verify the follower
	// reconnects, resumes from its durable position, and applies each
	// record exactly once.
	mu.Lock()
	last.Close()
	mu.Unlock()
	for i := 50; i < 150; i++ {
		put(t, pdb, "m.rc", "a", i)
	}
	waitParity(t, pdb, rep.db, 5*time.Second)
	assertSeriesEqual(t, pdb, rep.db, "m.rc", "a")
}

func TestFollowerRestartResumes(t *testing.T) {
	pdb := openStore(t, t.TempDir())
	defer pdb.Close()
	for i := 0; i < 80; i++ {
		put(t, pdb, "m.restart", "a", i)
	}
	srv := startPrimary(t, pdb, "")

	dir := t.TempDir()
	rep := startReplica(t, dir, srv.Addr().String(), "", nil)
	waitParity(t, pdb, rep.db, 5*time.Second)
	rep.close() // clean shutdown: position is durable

	for i := 80; i < 160; i++ {
		put(t, pdb, "m.restart", "a", i)
	}

	// Restart: this must resume, not re-snapshot.
	boot, err := Bootstrap(BootstrapConfig{Dir: dir, Primary: srv.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if boot.Snapshot {
		t.Fatal("restart with a durable position must resume, not re-seed")
	}
	db2 := openStore(t, dir)
	fol2 := NewFollower(FollowerConfig{
		DB: db2, Primary: srv.Addr().String(),
		Heartbeat: 50 * time.Millisecond, MinBackoff: 5 * time.Millisecond,
	})
	fol2.Start(boot)
	defer func() { fol2.Close(); db2.Close() }()
	waitParity(t, pdb, db2, 5*time.Second)
	assertSeriesEqual(t, pdb, db2, "m.restart", "a")
}

func TestOfflineStartWithDeadPrimary(t *testing.T) {
	pdb := openStore(t, t.TempDir())
	for i := 0; i < 30; i++ {
		put(t, pdb, "m.off", "a", i)
	}
	srv := startPrimary(t, pdb, "")
	dir := t.TempDir()
	rep := startReplica(t, dir, srv.Addr().String(), "", nil)
	waitParity(t, pdb, rep.db, 5*time.Second)
	rep.close()
	srv.Close()
	pdb.Close()

	// Primary gone: a resumable replica still starts and serves its
	// stale state; a fresh directory cannot.
	boot, err := Bootstrap(BootstrapConfig{Dir: dir, Primary: "127.0.0.1:1"})
	if err != nil {
		t.Fatalf("offline bootstrap of a resumable dir: %v", err)
	}
	if !boot.Offline || boot.Snapshot {
		t.Fatalf("boot = %+v, want offline resume", boot)
	}
	db2 := openStore(t, dir)
	defer db2.Close()
	pts, err := db2.SeriesWindowExact("m.off", map[string]string{"sensor": "a"}, 0, 1<<62)
	if err != nil || len(pts) != 30 {
		t.Fatalf("stale reads: %d points, err %v; want 30", len(pts), err)
	}
	if _, err := Bootstrap(BootstrapConfig{Dir: t.TempDir(), Primary: "127.0.0.1:1"}); err == nil {
		t.Fatal("fresh dir with a dead primary must fail bootstrap")
	}
}

func TestPromotionFencesOldPrimary(t *testing.T) {
	pdir, rdir := t.TempDir(), t.TempDir()
	pdb := openStore(t, pdir)
	for i := 0; i < 60; i++ {
		put(t, pdb, "m.promo", "a", i)
	}
	srv := startPrimary(t, pdb, "")
	rep := startReplica(t, rdir, srv.Addr().String(), "", nil)
	waitParity(t, pdb, rep.db, 5*time.Second)

	// Promote: replication stops, the epoch fences, writes land.
	epoch, err := rep.fol.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	put(t, rep.db, "m.promo", "a", 60)
	if rep.db.ReplEpoch() != 2 {
		t.Fatalf("ReplEpoch = %d after promotion", rep.db.ReplEpoch())
	}

	// The old primary refuses a client from the newer era...
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pos, _ := rep.db.ReplPosition()
	_, _, err = handshakeConn(conn, pos)
	if !IsFenced(err) {
		t.Fatalf("old primary handshake = %v, want fenced", err)
	}

	// ...and rejoining the new primary re-seeds the old one: its epoch
	// is stale, so resume is refused in favor of a snapshot.
	rep.fol.Close()
	psrv2 := NewServer(ServerConfig{DB: rep.db, Heartbeat: 50 * time.Millisecond})
	if err := psrv2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer psrv2.Close()
	srv.Close()
	pdb.Close()
	boot, err := Bootstrap(BootstrapConfig{Dir: pdir, Primary: psrv2.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if !boot.Snapshot {
		t.Fatal("stale old primary must be re-seeded by snapshot, not resumed")
	}
	if boot.Pos.Epoch != 2 {
		t.Fatalf("re-seeded epoch = %d, want 2", boot.Pos.Epoch)
	}
	rep.db.Close()
}

// handshakeConn performs a raw client handshake claiming pos.
func handshakeConn(conn net.Conn, pos tsdb.ReplPos) (uint64, byte, error) {
	return handshake(conn, bufio.NewReader(conn), 2*time.Second, "", pos, true, false)
}

func TestWipeValidation(t *testing.T) {
	for _, name := range []string{"../evil", "a/b", `a\b`, "..", ""} {
		if validSnapName(name) {
			t.Fatalf("validSnapName(%q) = true", name)
		}
	}
	if !validSnapName("blk-000123.ctt") {
		t.Fatal("plain file name rejected")
	}
}

func TestGenerationSwitchMidStream(t *testing.T) {
	pdb := openStore(t, t.TempDir())
	defer pdb.Close()
	for i := 0; i < 40; i++ {
		put(t, pdb, "m.gen", "a", i)
	}
	srv := startPrimary(t, pdb, "")
	rep := startReplica(t, t.TempDir(), srv.Addr().String(), "", nil)
	defer rep.close()
	waitParity(t, pdb, rep.db, 5*time.Second)

	// A WAL rewrite on the primary remaps the caught-up lease; the
	// follower must cross the generation boundary and keep applying.
	if err := pdb.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 120; i++ {
		put(t, pdb, "m.gen", "a", i)
		if i == 80 {
			if err := pdb.CompactWAL(); err != nil {
				t.Logf("second compact: %v", err) // deferred is fine
			}
		}
	}
	waitParity(t, pdb, rep.db, 5*time.Second)
	assertSeriesEqual(t, pdb, rep.db, "m.gen", "a")
}

// TestVersionHandshake pins the upgrade order the formats allow: an
// upgraded follower still greets with the hello an old primary
// accepts and takes either primary's welcome, while a welcome from a
// primary newer than the follower — whose snapshot it could not read
// — is refused.
func TestVersionHandshake(t *testing.T) {
	if h, err := parseHello(encodeHello(helloMsg{ver: helloVersion})); err != nil || h.ver != 1 {
		t.Fatalf("hello version %d (err %v): an old primary accepts only 1", h.ver, err)
	}
	// The flags byte: hasPos alone is the 1 old primaries and
	// followers exchange; resumeOnly rides in a bit an old primary
	// reads as hasPos too.
	if b := encodeHello(helloMsg{ver: helloVersion, hasPos: true}); b[9] != 1 {
		t.Fatalf("hasPos-only hello flags %#x, want 1", b[9])
	}
	for _, want := range []helloMsg{{hasPos: true, resumeOnly: true}, {resumeOnly: true}, {hasPos: true}} {
		want.ver, want.gen, want.off, want.key = helloVersion, 3, 99, "k"
		if got, err := parseHello(encodeHello(want)); err != nil || got != want {
			t.Fatalf("hello %+v round-tripped to %+v (err %v)", want, got, err)
		}
	}
	w := helloWelcome(7, modeSnapshot)
	if w[0] != protoVersion {
		t.Fatalf("welcome stamped %d, want %d", w[0], protoVersion)
	}
	for ver := byte(1); ver <= protoVersion; ver++ {
		w[0] = ver
		if epoch, mode, err := parseWelcome(w); err != nil || epoch != 7 || mode != modeSnapshot {
			t.Fatalf("welcome v%d refused: %v", ver, err)
		}
	}
	for _, ver := range []byte{0, protoVersion + 1} {
		w[0] = ver
		if _, _, err := parseWelcome(w); err == nil {
			t.Fatalf("welcome v%d accepted", ver)
		}
	}
}

// TestStreamRecordSpanningFrames: a backlog larger than one fData frame
// (the primary reads the log in 256 KiB chunks) splits a record across
// two frames. The follower must count the spanning record whole, or its
// position falls behind the stream by the record's first part — the
// next frame no longer lines up, and the durable position it committed
// points into the middle of a record.
func TestStreamRecordSpanningFrames(t *testing.T) {
	pdb := openStore(t, t.TempDir())
	defer pdb.Close()
	put(t, pdb, "m.big", "a", 0)
	srv := startPrimary(t, pdb, "")
	rep := startReplica(t, t.TempDir(), srv.Addr().String(), "", nil)
	defer rep.close()
	waitParity(t, pdb, rep.db, 5*time.Second)

	ref, err := pdb.Intern("m.big", map[string]string{"sensor": "a"})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]tsdb.RefPoint, 1000) // one ~20 KB points record
	for b := 0; b < 60; b++ {
		for i := range batch {
			n := 1 + b*len(batch) + i
			batch[i] = tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: testBase + int64(n)*1000, Value: float64(n)}}
		}
		if res := pdb.AppendRefs(batch); len(res.Errors) > 0 {
			t.Fatal(res.Errors[0].Err)
		}
	}
	waitParity(t, pdb, rep.db, 10*time.Second)
	assertSeriesEqual(t, pdb, rep.db, "m.big", "a")
}

// TestMidRecordPositionEscalatesToResync: a committed position inside
// a WAL record (what a follower that miscounted a spanning record
// used to commit) can never be resumed. The follower used to retry it
// forever. The primary must refuse to resume it: a running follower,
// whose hello asks for a resume only, gets a resync error — no
// snapshot is read for it — flags a re-sync within a few reconnects
// and keeps it flagged, and a restarted one re-seeds.
func TestMidRecordPositionEscalatesToResync(t *testing.T) {
	pdb := openStore(t, t.TempDir())
	defer pdb.Close()
	for i := 0; i < 10; i++ {
		put(t, pdb, "m.a", "a", i)
	}
	srv := startPrimary(t, pdb, "")
	rep := startReplica(t, t.TempDir(), srv.Addr().String(), "", nil)
	waitParity(t, pdb, rep.db, 5*time.Second)
	rep.fol.Close()

	// The next record on the primary starts at the replica's
	// position; commit one byte into it.
	pos, ok := rep.db.ReplPosition()
	if !ok {
		t.Fatal("replica has no position")
	}
	pos.Off++
	if err := rep.db.CommitReplPos(pos); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		put(t, pdb, "m.a", "a", i)
	}
	snapshots := srv.Stats().Snapshots
	fol := NewFollower(FollowerConfig{
		DB: rep.db, Primary: srv.Addr().String(),
		Heartbeat:  50 * time.Millisecond,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	fol.Start(nil)
	deadline := time.Now().Add(5 * time.Second)
	for !fol.Stats().ResyncRequired {
		if time.Now().After(deadline) {
			t.Fatal("follower stuck at a mid-record position never flagged a re-sync")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Flagged, it stays flagged: a reconnect to the same position
	// streams nothing that could clear it.
	time.Sleep(200 * time.Millisecond)
	if !fol.Stats().ResyncRequired {
		t.Fatal("re-sync flag cleared by a reconnect to the same undecodable position")
	}
	if n := srv.Stats().Snapshots - snapshots; n != 0 {
		t.Fatalf("primary streamed %d snapshots to a follower that can only resume", n)
	}
	fol.Close()
	rep.db.Close()

	// The operator's fix is a restart: bootstrap takes a snapshot.
	rep = startReplica(t, rep.dir, srv.Addr().String(), "", nil)
	defer rep.close()
	waitParity(t, pdb, rep.db, 5*time.Second)
	assertSeriesEqual(t, pdb, rep.db, "m.a", "a")
}

// TestUndecodableStreamEscalatesToResync: a primary that resumes the
// follower at its position but streams bytes that do not decode as a
// WAL record (here a zero record length) ends every session the same
// way. The follower must give up after a few such sessions without
// progress and flag a re-sync, and stay flagged.
func TestUndecodableStreamEscalatesToResync(t *testing.T) {
	db := openStore(t, t.TempDir())
	defer db.Close()
	pos := tsdb.ReplPos{Gen: 1, Off: 8, Epoch: 1}
	if err := db.CommitReplPos(pos); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var sessions atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			sessions.Add(1)
			go func() {
				defer conn.Close()
				if _, _, err := readFrame(bufio.NewReader(conn)); err != nil {
					return
				}
				writeFrame(conn, nil, time.Second, fWelcome, helloWelcome(pos.Epoch, modeResume))
				data := binary.LittleEndian.AppendUint64(nil, pos.Gen)
				data = binary.LittleEndian.AppendUint64(data, uint64(pos.Off))
				data = binary.LittleEndian.AppendUint64(data, uint64(time.Now().UnixNano()))
				writeFrame(conn, nil, time.Second, fData, append(data, make([]byte, 16)...))
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	fol := NewFollower(FollowerConfig{
		DB: db, Primary: ln.Addr().String(),
		Heartbeat:  50 * time.Millisecond,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	fol.Start(nil)
	defer fol.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !fol.Stats().ResyncRequired {
		if time.Now().After(deadline) {
			t.Fatalf("no re-sync flag after %d sessions that could not decode the stream", sessions.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := sessions.Load(); n < maxStuckDecodes {
		t.Fatalf("flagged after %d sessions, want %d before giving up", n, maxStuckDecodes)
	}
	time.Sleep(200 * time.Millisecond)
	if !fol.Stats().ResyncRequired {
		t.Fatal("re-sync flag cleared while the stream still does not decode")
	}
}

// corruptingProxy forwards replication sessions to upstream and, in
// each of the first corrupt sessions, zeroes the length of the first
// WAL record a data frame carries (re-framed, so only the record's
// own check fails).
func corruptingProxy(t *testing.T, upstream string, corrupt int64) (addr string, sessions *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	sessions = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			broken := sessions.Add(1) > corrupt
			go func() {
				defer conn.Close()
				up, err := net.Dial("tcp", upstream)
				if err != nil {
					return
				}
				defer up.Close()
				go func() {
					io.Copy(up, conn)
					up.Close()
				}()
				br := bufio.NewReader(up)
				var buf []byte
				for {
					typ, payload, err := readFrame(br)
					if err != nil {
						return
					}
					if !broken && typ == fData && len(payload) >= 24+8 {
						binary.LittleEndian.PutUint32(payload[24+4:], 0)
						broken = true
					}
					if buf, err = writeFrame(conn, buf, time.Second, typ, payload); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), sessions
}

// syncBuffer is a log sink safe for the follower's goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDecodeFailuresThenHealthyStream: sessions whose stream does not
// decode, followed by a healthy one. Fewer than maxStuckDecodes of
// them must never flag a re-sync; maxStuckDecodes of them flag it,
// and the first batch the healthy session applies must clear it for
// good, since the stream evidently decodes at that position.
func TestDecodeFailuresThenHealthyStream(t *testing.T) {
	for _, corrupt := range []int64{maxStuckDecodes - 1, maxStuckDecodes} {
		pdb := openStore(t, t.TempDir())
		for i := 0; i < 10; i++ {
			put(t, pdb, "m.a", "a", i)
		}
		srv := startPrimary(t, pdb, "")
		rep := startReplica(t, t.TempDir(), srv.Addr().String(), "", nil)
		waitParity(t, pdb, rep.db, 5*time.Second)
		rep.fol.Close()
		for i := 10; i < 20; i++ {
			put(t, pdb, "m.a", "a", i)
		}

		addr, sessions := corruptingProxy(t, srv.Addr().String(), corrupt)
		var logs syncBuffer
		fol := NewFollower(FollowerConfig{
			DB: rep.db, Primary: addr,
			Heartbeat:  50 * time.Millisecond,
			MinBackoff: 5 * time.Millisecond,
			MaxBackoff: 50 * time.Millisecond,
			Logger:     slog.New(slog.NewTextHandler(&logs, nil)),
		})
		fol.Start(nil)
		waitParity(t, pdb, rep.db, 5*time.Second)
		deadline := time.Now().Add(2 * time.Second)
		for fol.Stats().ResyncRequired {
			if time.Now().After(deadline) {
				t.Fatalf("%d corrupt sessions: re-sync flag still set while the stream applies", corrupt)
			}
			time.Sleep(5 * time.Millisecond)
		}
		// Still clear once more frames (heartbeats) have arrived.
		time.Sleep(200 * time.Millisecond)
		if fol.Stats().ResyncRequired {
			t.Fatalf("%d corrupt sessions: re-sync flag set again on a healthy stream", corrupt)
		}
		if n := sessions.Load(); n <= corrupt {
			t.Fatalf("%d sessions, want more than the %d corrupt ones", n, corrupt)
		}
		flagged := strings.Contains(logs.String(), "re-sync required")
		if want := corrupt >= maxStuckDecodes; flagged != want {
			t.Fatalf("%d corrupt sessions: re-sync flagged %v, want %v; log:\n%s", corrupt, flagged, want, logs.String())
		}
		fol.Close()
		rep.db.Close()
		pdb.Close()
	}
}
