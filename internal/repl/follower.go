package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tsdb"
	"repro/internal/tsdb/fsio"
)

// DialFunc opens the replication link; tests wrap the result in a
// FaultConn.
type DialFunc func(addr string) (net.Conn, error)

func defaultDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// stagingDir is where a snapshot is received, inside the data
// directory, before it replaces the store's files.
const stagingDir = "snapshot.staging"

var errResyncNeeded = errors.New("repl: primary demands snapshot re-sync")

// errOldSnapshot: the primary answered with a snapshot in a format this
// build refuses.
var errOldSnapshot = errors.New("repl: bootstrap refused: a version-1 primary's snapshot holds CTTBLK1 block files, which this build does not read (docs/FORMAT.md §4); upgrade the primary")

// maxStuckDecodes is how many sessions may end in a decode error with
// no batch applied in between before the follower treats its durable
// position as unreadable — a committed offset inside a record decodes
// to the same garbage on every reconnect — and asks for a snapshot
// re-sync. Sessions that end otherwise neither count nor reset.
const maxStuckDecodes = 3

// isDecodeErr reports whether a session ended on bytes the follower
// could not decode, as opposed to a link or apply failure.
func isDecodeErr(err error) bool {
	return errors.Is(err, errFrameCorrupt) || errors.Is(err, errFrameTooLarge) || errors.Is(err, tsdb.ErrWALCorrupt)
}

// BootstrapConfig parameterizes the pre-open bootstrap handshake.
type BootstrapConfig struct {
	Dir     string
	Primary string
	Key     string
	Dial    DialFunc
	FS      fsio.FS
	Logger  *slog.Logger
	// Timeout bounds each handshake/transfer read (default 30s).
	Timeout time.Duration
}

// BootstrapResult is what Bootstrap leaves behind: a data directory
// ready for tsdb.Open, the position to commit once the DB is up, and —
// when the primary answered — the still-open session for the follower
// loop to consume (the stream continues on the same connection).
type BootstrapResult struct {
	Pos    tsdb.ReplPos
	HasPos bool
	// Snapshot reports that the directory's store was replaced by the
	// primary's snapshot (Pos must be committed via CommitReplPos after open).
	Snapshot bool
	// Offline reports that the primary was unreachable but the local
	// directory is resumable: the follower starts serving stale reads
	// and keeps dialing in the background.
	Offline bool

	sess *session
}

// session is a handshaken connection whose next frames are stream
// frames (dict/data/...). The bufio reader must travel with the conn:
// it may already hold buffered stream bytes.
type session struct {
	conn net.Conn
	br   *bufio.Reader
}

// Bootstrap prepares dir for follower duty before the DB is opened. A
// resumable directory (durable position, same epoch) is kept and the
// primary asked to resume; otherwise the directory is re-seeded from a
// primary snapshot, which replaces the local store only once it has
// arrived whole. A fenced refusal (this node has seen a newer epoch
// than the primary — the operator pointed a promoted node at a stale
// primary) and a snapshot this build cannot read are hard errors. An
// unreachable primary is fatal only when the directory is not
// resumable.
func Bootstrap(cfg BootstrapConfig) (*BootstrapResult, error) {
	if cfg.FS == nil {
		cfg.FS = fsio.OS
	}
	if cfg.Dial == nil {
		cfg.Dial = defaultDial
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}

	pos, resumable := tsdb.ReadWALReplState(cfg.Dir, cfg.FS)
	offline := func(err error) (*BootstrapResult, error) {
		if !resumable {
			return nil, fmt.Errorf("repl: bootstrap needs a reachable primary (no resumable local state): %w", err)
		}
		cfg.Logger.Warn("repl bootstrap: primary unreachable, starting offline from local state", "err", err)
		return &BootstrapResult{Pos: pos, HasPos: true, Offline: true}, nil
	}

	conn, err := cfg.Dial(cfg.Primary)
	if err != nil {
		return offline(err)
	}
	br := bufio.NewReaderSize(conn, 256<<10)
	epoch, mode, err := handshake(conn, br, cfg.Timeout, cfg.Key, pos, resumable, false)
	if err != nil {
		conn.Close()
		if IsFenced(err) {
			return nil, fmt.Errorf("repl: bootstrap refused: %w (re-seed this node or point it at the current primary)", err)
		}
		if errors.Is(err, errOldSnapshot) {
			return nil, err
		}
		return offline(err)
	}
	if mode == modeResume {
		return &BootstrapResult{Pos: pos, HasPos: true, sess: &session{conn: conn, br: br}}, nil
	}

	// Snapshot mode: receive the primary's files verbatim beside the
	// local ones, and only once all of them are in swap them in. Their
	// own CRCs (block trailers, WAL records) vouch for content; the
	// frame CRCs vouched for transit. A refused or broken transfer
	// leaves the local store as it was.
	stage := filepath.Join(cfg.Dir, stagingDir)
	err = removeTree(cfg.FS, stage) // a transfer a crash cut short
	var snapPos tsdb.ReplPos
	if err == nil {
		snapPos, err = receiveSnapshot(cfg, stage, conn, br)
	}
	if err == nil {
		err = installSnapshot(cfg.Dir, stage, cfg.FS)
	}
	if err != nil {
		conn.Close()
		removeTree(cfg.FS, stage) // what stays is removed by the next bootstrap
		return nil, fmt.Errorf("repl: snapshot bootstrap: %w", err)
	}
	snapPos.Epoch = epoch
	cfg.Logger.Info("repl bootstrap: snapshot received", "gen", snapPos.Gen, "off", snapPos.Off, "epoch", epoch)
	return &BootstrapResult{Pos: snapPos, HasPos: true, Snapshot: true, sess: &session{conn: conn, br: br}}, nil
}

// handshake sends hello and reads welcome on an open connection.
// resumeOnly tells the server that a snapshot answer is of no use: a
// running follower cannot take one, so it wants a resync error
// instead of a transfer it would hang up on.
func handshake(conn net.Conn, br *bufio.Reader, timeout time.Duration, key string, pos tsdb.ReplPos, resumable, resumeOnly bool) (epoch uint64, mode byte, err error) {
	h := helloMsg{ver: helloVersion, key: key, resumeOnly: resumeOnly}
	if resumable {
		h.hasPos, h.epoch, h.gen, h.off = true, pos.Epoch, pos.Gen, pos.Off
	}
	if _, err = writeFrame(conn, nil, timeout, fHello, encodeHello(h)); err != nil {
		return 0, 0, err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	typ, payload, err := readFrame(br)
	if err != nil {
		return 0, 0, err
	}
	if typ != fWelcome {
		return 0, 0, fmt.Errorf("repl: expected welcome, got frame type %d", typ)
	}
	epoch, mode, err = parseWelcome(payload)
	if err != nil {
		return 0, 0, err
	}
	if mode == modeSnapshot && !resumeOnly && payload[0] < minSnapshotVersion {
		return 0, 0, errOldSnapshot
	}
	if resumable && mode == modeResume && epoch != pos.Epoch {
		return 0, 0, fmt.Errorf("repl: resume welcome with epoch %d != ours %d", epoch, pos.Epoch)
	}
	return epoch, mode, nil
}

// installSnapshot replaces the store files in dir — the WAL and the
// block files — with the ones received into stage. The WAL goes last:
// until it is in place the directory holds no position to resume, so
// a crash part-way re-seeds it. Unknown files are left alone.
func installSnapshot(dir, stage string, fs fsio.FS) error {
	blocks, staged := filepath.Join(dir, tsdb.BlockDirName), filepath.Join(stage, tsdb.BlockDirName)
	wal := filepath.Join(dir, tsdb.WALFileName)
	moveIn := func(p string) error { return fs.Rename(p, filepath.Join(blocks, filepath.Base(p))) }
	for _, step := range []func() error{
		func() error { return fs.SyncDir(staged) },
		func() error { return fs.SyncDir(stage) },
		func() error { return removeTree(fs, wal) },
		func() error { return fs.MkdirAll(blocks, 0o755) },
		func() error { return forFiles(fs, blocks, fs.Remove) },
		func() error { return forFiles(fs, staged, moveIn) },
		func() error { return fs.SyncDir(blocks) },
		func() error { return fs.Rename(filepath.Join(stage, tsdb.WALFileName), wal) },
		func() error { return fs.SyncDir(dir) },
		func() error { return removeTree(fs, stage) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// forFiles calls fn with the path of every file directly in dir;
// subdirectories (the block layer's quarantine) are left alone.
func forFiles(fs fsio.FS, dir string, fn func(path string) error) error {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() {
			if err := fn(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// removeTree deletes path and, when it is a directory, everything
// under it; a missing path is not an error.
func removeTree(fs fsio.FS, path string) error {
	ents, _ := fs.ReadDir(path) // a file, or missing: no entries
	for _, e := range ents {
		if err := removeTree(fs, filepath.Join(path, e.Name())); err != nil {
			return err
		}
	}
	if err := fs.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

func validSnapName(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\") && !strings.Contains(name, "..")
}

// receiveSnapshot consumes snapfile/snapdata frames until snapend,
// writing each file into stage (the WAL) or stage/blocks and fsyncing
// it. A file of another kind — kind 2 was the rollup state older
// primaries shipped — is refused before anything is written for it.
func receiveSnapshot(cfg BootstrapConfig, stage string, conn net.Conn, br *bufio.Reader) (tsdb.ReplPos, error) {
	blocks := filepath.Join(stage, tsdb.BlockDirName)
	if err := cfg.FS.MkdirAll(blocks, 0o755); err != nil {
		return tsdb.ReplPos{}, err
	}
	var cur fsio.File // nil before the first file
	var curName string
	var remaining int64
	gotWAL := false
	closeCur := func() error {
		f := cur
		cur = nil
		if remaining != 0 {
			if f != nil {
				f.Close()
			}
			return fmt.Errorf("short snapshot file %s: %d bytes missing", curName, remaining)
		}
		if f == nil {
			return nil
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	defer func() {
		if cur != nil {
			cur.Close()
		}
	}()

	for {
		conn.SetReadDeadline(time.Now().Add(cfg.Timeout))
		typ, payload, err := readFrame(br)
		if err != nil {
			return tsdb.ReplPos{}, err
		}
		switch typ {
		case fSnapFile:
			if err := closeCur(); err != nil {
				return tsdb.ReplPos{}, err
			}
			if len(payload) < 1+8+2 {
				return tsdb.ReplPos{}, errFrameCorrupt
			}
			kind := payload[0]
			size := int64(binary.LittleEndian.Uint64(payload[1:]))
			name, _, err := readStr(payload, 9)
			if err != nil {
				return tsdb.ReplPos{}, err
			}
			if size < 0 || !validSnapName(name) {
				return tsdb.ReplPos{}, fmt.Errorf("bad snapshot file %q size %d", name, size)
			}
			var path string
			switch kind {
			case snapKindWAL:
				path, gotWAL = filepath.Join(stage, tsdb.WALFileName), true
			case snapKindBlock:
				path = filepath.Join(blocks, name)
			default:
				return tsdb.ReplPos{}, fmt.Errorf("snapshot file %q of unknown kind %d: the primary is older than this build reads (docs/FORMAT.md §4)", name, kind)
			}
			if cur, err = cfg.FS.Create(path); err != nil {
				return tsdb.ReplPos{}, err
			}
			curName, remaining = name, size
		case fSnapData:
			if cur == nil {
				return tsdb.ReplPos{}, errors.New("snapdata before snapfile")
			}
			if int64(len(payload)) > remaining {
				return tsdb.ReplPos{}, fmt.Errorf("snapshot file %s overran declared size", curName)
			}
			if _, err := cur.Write(payload); err != nil {
				return tsdb.ReplPos{}, err
			}
			remaining -= int64(len(payload))
		case fSnapEnd:
			if err := closeCur(); err != nil {
				return tsdb.ReplPos{}, err
			}
			if len(payload) != 16 {
				return tsdb.ReplPos{}, errFrameCorrupt
			}
			if !gotWAL {
				return tsdb.ReplPos{}, errors.New("snapshot without a WAL")
			}
			return tsdb.ReplPos{
				Gen: binary.LittleEndian.Uint64(payload),
				Off: int64(binary.LittleEndian.Uint64(payload[8:])),
			}, nil
		default:
			return tsdb.ReplPos{}, fmt.Errorf("unexpected frame type %d during snapshot", typ)
		}
	}
}

// FollowerConfig configures the live-stream apply loop.
type FollowerConfig struct {
	DB      *tsdb.DB
	Primary string
	Key     string
	Dial    DialFunc
	Logger  *slog.Logger
	// Heartbeat is the primary's cadence; reads time out after 4x this
	// (default 1s).
	Heartbeat time.Duration
	// MinBackoff/MaxBackoff bound the capped-exponential reconnect
	// schedule (defaults 100ms / 5s).
	MinBackoff time.Duration
	MaxBackoff time.Duration
}

// Follower consumes the replication stream and applies it through the
// DB's normal batch path, reconnecting with capped-exponential backoff
// and resuming from the durable position.
type Follower struct {
	cfg FollowerConfig

	startOnce sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}

	mu   sync.Mutex
	conn net.Conn

	connected     atomic.Bool
	resync        atomic.Bool
	lastFrameNano atomic.Int64
	bytesIn       atomic.Uint64

	// stuckDecodes counts the sessions that ended in a decode error
	// since a batch last applied (run's goroutine only).
	stuckDecodes int
}

// NewFollower builds a follower; Start begins streaming.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.Dial == nil {
		cfg.Dial = defaultDial
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	return &Follower{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
}

// Start runs the apply loop in the background, consuming boot's open
// session first when present (boot may be nil or offline).
func (f *Follower) Start(boot *BootstrapResult) {
	var sess *session
	if boot != nil {
		sess = boot.sess
	}
	f.startOnce.Do(func() {
		go f.run(sess)
	})
}

// Close stops the loop and waits for it.
func (f *Follower) Close() {
	f.closeOnce.Do(func() {
		close(f.stop)
		f.mu.Lock()
		if f.conn != nil {
			f.conn.Close()
		}
		f.mu.Unlock()
	})
	<-f.done
}

// Promote stops replication and flips the DB into a writable primary
// under a freshly fenced epoch. Returns the new epoch.
func (f *Follower) Promote() (uint64, error) {
	f.Close()
	epoch := f.cfg.DB.ReplEpoch() + 1
	pos, err := f.cfg.DB.DetachReplica(epoch)
	if err != nil {
		return 0, err
	}
	return pos.Epoch, nil
}

// FollowerStats is a point-in-time snapshot for /metrics and /healthz.
type FollowerStats struct {
	Connected bool
	// ResyncRequired: the primary revoked our position mid-run; a
	// restart (which re-bootstraps via snapshot) is needed.
	ResyncRequired bool
	// LagSeconds is now minus the primary clock stamp on the last
	// frame; negative clock skew clamps to 0. Meaningless (-1) before
	// any frame arrived.
	LagSeconds float64
	BytesIn    uint64
	Epoch      uint64
}

// Stats reports the follower's live state.
func (f *Follower) Stats() FollowerStats {
	st := FollowerStats{
		Connected:      f.connected.Load(),
		ResyncRequired: f.resync.Load(),
		BytesIn:        f.bytesIn.Load(),
		Epoch:          f.cfg.DB.ReplEpoch(),
		LagSeconds:     -1,
	}
	if last := f.lastFrameNano.Load(); last > 0 {
		lag := time.Duration(time.Now().UnixNano() - last)
		if lag < 0 {
			lag = 0
		}
		st.LagSeconds = lag.Seconds()
	}
	return st
}

func (f *Follower) run(sess *session) {
	defer close(f.done)
	backoff := f.cfg.MinBackoff
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		if sess == nil {
			conn, err := f.cfg.Dial(f.cfg.Primary)
			if err == nil {
				f.setConn(conn)
				sess = &session{conn: conn, br: bufio.NewReaderSize(conn, 256<<10)}
				if err = f.handshakeLive(sess); err != nil {
					f.setConn(nil)
					conn.Close()
					sess = nil
				}
			}
			if err != nil {
				if f.noteTerminal(err) {
					backoff = f.cfg.MaxBackoff
				}
				if !sleepCtx(f.stop, jitter(backoff)) {
					return
				}
				backoff *= 2
				if backoff > f.cfg.MaxBackoff {
					backoff = f.cfg.MaxBackoff
				}
				continue
			}
		}
		backoff = f.cfg.MinBackoff
		err := f.stream(sess)
		sess = nil
		select {
		case <-f.stop:
			return
		default:
		}
		if err != nil && !errors.Is(err, io.EOF) {
			f.cfg.Logger.Warn("repl stream ended", "err", err)
		}
		if isDecodeErr(err) {
			if f.stuckDecodes++; f.stuckDecodes >= maxStuckDecodes {
				pos, _ := f.cfg.DB.ReplPosition()
				err = fmt.Errorf("%w: %d sessions failed to decode the stream at %d/%d with no batch applied: %v",
					errResyncNeeded, f.stuckDecodes, pos.Gen, pos.Off, err)
			}
		}
		if f.noteTerminal(err) {
			backoff = f.cfg.MaxBackoff
		}
		if !sleepCtx(f.stop, jitter(backoff)) {
			return
		}
	}
}

// noteTerminal classifies errors that persist until operator action —
// a resync demand or an epoch fence — whichever path raised them (the
// stream or a reconnect handshake, where a snapshot answer means the
// primary no longer holds our position). Reports whether to back off
// to the cap.
func (f *Follower) noteTerminal(err error) bool {
	switch {
	case errors.Is(err, errResyncNeeded) || IsResync(err):
		// Terminal until restart: wiping a live DB out from under
		// readers is not survivable in-process. Keep serving stale
		// reads; flag it on /healthz; retry slowly in case the
		// primary's answer changes (e.g. it was mid-recovery).
		if !f.resync.Swap(true) {
			f.cfg.Logger.Warn("repl: snapshot re-sync required; restart this process to re-seed", "err", err)
		}
		return true
	case IsFenced(err):
		f.cfg.Logger.Error("repl: fenced by primary; this node has a newer epoch — re-seed or re-point it")
		return true
	}
	return false
}

// handshakeLive re-handshakes a mid-run reconnect. The in-process
// store cannot be re-seeded, so the hello asks for a resume only; a
// primary that cannot resume answers with a resync error (an older
// one with a snapshot, which is the same demand).
func (f *Follower) handshakeLive(sess *session) error {
	pos, ok := f.cfg.DB.ReplPosition()
	if !ok || pos.Detached {
		return errors.New("repl: follower position missing or detached")
	}
	_, mode, err := handshake(sess.conn, sess.br, 10*time.Second, f.cfg.Key, pos, true, true)
	if err != nil {
		return err
	}
	if mode != modeResume {
		return errResyncNeeded
	}
	return nil
}

// setConn registers the live connection so Close can sever it. Close
// signals f.stop *before* it takes f.mu, so a registration that
// slipped past Close's own conn-close (the conn was dialed but not yet
// registered at that instant) is guaranteed to observe the closed stop
// channel here and severs the conn itself — otherwise a healthy,
// heartbeating stream would never error and Close would wait on
// f.done forever.
func (f *Follower) setConn(conn net.Conn) {
	f.mu.Lock()
	f.conn = conn
	f.mu.Unlock()
	if conn != nil {
		select {
		case <-f.stop:
			conn.Close()
		default:
		}
	}
}

// stream consumes one session until error, applying frames.
func (f *Follower) stream(sess *session) error {
	f.setConn(sess.conn)
	defer func() {
		f.setConn(nil)
		sess.conn.Close()
		f.connected.Store(false)
	}()
	f.connected.Store(true)

	pos, ok := f.cfg.DB.ReplPosition()
	if !ok {
		return errors.New("repl: no committed position to stream from")
	}
	dec := f.cfg.DB.NewWALDecoder()
	readTimeout := 4 * f.cfg.Heartbeat
	for {
		sess.conn.SetReadDeadline(time.Now().Add(readTimeout))
		typ, payload, err := readFrame(sess.br)
		if err != nil {
			return err
		}
		f.bytesIn.Add(uint64(len(payload)))
		switch typ {
		case fDict:
			// Series records only: the dictionary replays an earlier
			// region of the file, so it moves no offset.
			if _, pts, err := dec.Feed(payload); err != nil {
				return err
			} else if len(pts) > 0 {
				return fmt.Errorf("%w: points in the dictionary", tsdb.ErrWALCorrupt)
			}
		case fData:
			if len(payload) < 24 {
				return errFrameCorrupt
			}
			gen := binary.LittleEndian.Uint64(payload)
			off := int64(binary.LittleEndian.Uint64(payload[8:]))
			sent := int64(binary.LittleEndian.Uint64(payload[16:]))
			if gen != pos.Gen || off != pos.Off+int64(dec.Pending()) {
				return fmt.Errorf("repl: stream position mismatch: frame %d/%d, applied %d/%d(+%d)",
					gen, off, pos.Gen, pos.Off, dec.Pending())
			}
			consumed, pts, err := dec.Feed(payload[24:])
			if err != nil {
				return err
			}
			f.lastFrameNano.Store(sent)
			f.streaming()
			if consumed == 0 {
				continue
			}
			next := pos
			next.Off += consumed
			if len(pts) > 0 {
				res := f.cfg.DB.AppendRefsAt(pts, next)
				if len(res.Errors) > 0 || res.Stored != len(pts) {
					return fmt.Errorf("repl: apply failed: stored %d/%d: %v", res.Stored, len(pts), firstErr(res))
				}
				f.applied()
			}
			// Skip-only advances (flush markers, upstream positions)
			// move the in-memory cursor; the durable position rides
			// with the next real batch. A crash in between replays the
			// skip records — which skip again.
			pos = next
		case fGen:
			if len(payload) != 16 {
				return errFrameCorrupt
			}
			if dec.Pending() > 0 {
				return errors.New("repl: gen switch inside a partial record")
			}
			pos.Gen = binary.LittleEndian.Uint64(payload)
			pos.Off = int64(binary.LittleEndian.Uint64(payload[8:]))
			dec.Reset() // new file, new fid namespace; dict follows
		case fHeartbeat:
			if len(payload) != 24 {
				return errFrameCorrupt
			}
			f.lastFrameNano.Store(int64(binary.LittleEndian.Uint64(payload[16:])))
			f.streaming()
		default:
			return fmt.Errorf("repl: unexpected frame type %d in stream", typ)
		}
	}
}

// streaming notes a frame decoded: a re-sync flag the primary raised
// clears, since its answer changed (it was mid-recovery). A flag
// raised for a position that keeps failing to decode waits for
// applied: frames that carry no record prove nothing about it.
func (f *Follower) streaming() {
	if f.stuckDecodes < maxStuckDecodes {
		f.resync.Store(false)
	}
}

// applied notes a batch applied and the durable position moved: the
// stream decodes here, so the stuck-decode count and any flag clear.
func (f *Follower) applied() {
	f.stuckDecodes = 0
	f.resync.Store(false)
}

func firstErr(res tsdb.BatchResult) error {
	if len(res.Errors) > 0 {
		return res.Errors[0]
	}
	return nil
}

func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)/2+1))
}

// sleepCtx sleeps d unless stop closes first; reports whether to keep
// running.
func sleepCtx(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
