package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
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

// walName mirrors the store's WAL file name; the wire carries the name
// too, but the follower never trusts it beyond validation.
const walName = "tsdb.wal"

var errResyncNeeded = errors.New("repl: primary demands snapshot re-sync")

// errRecordCorrupt: a WAL record in the stream failed its checks.
var errRecordCorrupt = errors.New("repl: wal record corrupt in stream")

// maxStuckDecodes is how many sessions may end in a decode error with
// no batch applied in between before the follower treats its durable
// position as unreadable — a committed offset inside a record decodes
// to the same garbage on every reconnect — and asks for a snapshot
// re-sync. Sessions that end otherwise neither count nor reset.
const maxStuckDecodes = 3

// isDecodeErr reports whether a session ended on bytes the follower
// could not decode, as opposed to a link or apply failure.
func isDecodeErr(err error) bool {
	return errors.Is(err, errFrameCorrupt) || errors.Is(err, errFrameTooLarge) || errors.Is(err, errRecordCorrupt)
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
	// Snapshot reports that the directory was wiped and re-seeded from
	// the primary (Pos must be committed via CommitReplPos after open).
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
// primary asked to resume; otherwise the directory is wiped and
// re-seeded from a primary snapshot. A fenced refusal (this node has
// seen a newer epoch than the primary — the operator pointed a
// promoted node at a stale primary) is a hard error. An unreachable
// primary is fatal only when the directory is not resumable.
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
		return offline(err)
	}
	if mode == modeResume {
		return &BootstrapResult{Pos: pos, HasPos: true, sess: &session{conn: conn, br: br}}, nil
	}

	// Snapshot mode: wipe whatever is local and receive the primary's
	// files verbatim. Their own CRCs (block trailers, WAL records)
	// vouch for content; the frame CRCs vouched for transit.
	if err := wipeDataDir(cfg.Dir, cfg.FS); err != nil {
		conn.Close()
		return nil, err
	}
	snapPos, err := receiveSnapshot(cfg, conn, br)
	if err != nil {
		conn.Close()
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
	if resumable && mode == modeResume && epoch != pos.Epoch {
		return 0, 0, fmt.Errorf("repl: resume welcome with epoch %d != ours %d", epoch, pos.Epoch)
	}
	return epoch, mode, nil
}

// wipeDataDir removes the store files a snapshot replaces: the WAL and
// the block directory tree. Unknown files are left alone.
func wipeDataDir(dir string, fs fsio.FS) error {
	if err := fs.Remove(filepath.Join(dir, walName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("repl: wipe %s: %w", walName, err)
	}
	blocks := filepath.Join(dir, "blocks")
	ents, err := fs.ReadDir(blocks)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue // the block layer keeps a flat dir; leave surprises alone
		}
		if err := fs.Remove(filepath.Join(blocks, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("repl: wipe block %s: %w", e.Name(), err)
		}
	}
	return fs.SyncDir(blocks)
}

func validSnapName(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\") && !strings.Contains(name, "..")
}

// receiveSnapshot consumes snapfile/snapdata frames until snapend,
// writing and fsyncing each file, then fsyncing the directories. A
// kind-2 file (an older primary's rollup state) is read and dropped.
func receiveSnapshot(cfg BootstrapConfig, conn net.Conn, br *bufio.Reader) (tsdb.ReplPos, error) {
	blocks := filepath.Join(cfg.Dir, "blocks")
	if err := cfg.FS.MkdirAll(blocks, 0o755); err != nil {
		return tsdb.ReplPos{}, err
	}
	var cur fsio.File // nil before the first file and while discarding
	var curName string
	var remaining int64
	discard := false
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
				path = filepath.Join(cfg.Dir, walName)
			case snapKindBlock:
				path = filepath.Join(blocks, name)
			case snapKindRollupState:
				// No path: the bytes are read and dropped.
			default:
				return tsdb.ReplPos{}, fmt.Errorf("unknown snapshot kind %d", kind)
			}
			if discard = path == ""; !discard {
				if cur, err = cfg.FS.Create(path); err != nil {
					return tsdb.ReplPos{}, err
				}
			}
			curName, remaining = name, size
		case fSnapData:
			if cur == nil && !discard {
				return tsdb.ReplPos{}, errors.New("snapdata before snapfile")
			}
			if int64(len(payload)) > remaining {
				return tsdb.ReplPos{}, fmt.Errorf("snapshot file %s overran declared size", curName)
			}
			if cur != nil {
				if _, err := cur.Write(payload); err != nil {
					return tsdb.ReplPos{}, err
				}
			}
			remaining -= int64(len(payload))
		case fSnapEnd:
			if err := closeCur(); err != nil {
				return tsdb.ReplPos{}, err
			}
			if len(payload) != 16 {
				return tsdb.ReplPos{}, errFrameCorrupt
			}
			if err := cfg.FS.SyncDir(blocks); err != nil {
				return tsdb.ReplPos{}, err
			}
			if err := cfg.FS.SyncDir(cfg.Dir); err != nil {
				return tsdb.ReplPos{}, err
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
	dec := newRecDecoder(f.cfg.DB)
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
			if err := dec.feedDict(payload); err != nil {
				return err
			}
		case fData:
			if len(payload) < 24 {
				return errFrameCorrupt
			}
			gen := binary.LittleEndian.Uint64(payload)
			off := int64(binary.LittleEndian.Uint64(payload[8:]))
			sent := int64(binary.LittleEndian.Uint64(payload[16:]))
			if gen != pos.Gen || off != pos.Off+int64(len(dec.part)) {
				return fmt.Errorf("repl: stream position mismatch: frame %d/%d, applied %d/%d(+%d)",
					gen, off, pos.Gen, pos.Off, len(dec.part))
			}
			consumed, err := dec.feed(payload[24:])
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
			if len(dec.batch) > 0 {
				res := f.cfg.DB.AppendRefsAt(dec.batch, next)
				if len(res.Errors) > 0 || res.Stored != len(dec.batch) {
					return fmt.Errorf("repl: apply failed: stored %d/%d: %v", res.Stored, len(dec.batch), firstErr(res))
				}
				dec.batch = dec.batch[:0]
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
			if len(dec.part) > 0 {
				return errors.New("repl: gen switch inside a partial record")
			}
			pos.Gen = binary.LittleEndian.Uint64(payload)
			pos.Off = int64(binary.LittleEndian.Uint64(payload[8:]))
			dec.reset() // new file, new fid namespace; dict follows
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

// recDecoder reassembles WAL records from stream chunks and turns them
// into interned batches. Frame boundaries are arbitrary: a record may
// span fData frames (part buffers the tail), but never a gen switch.
type recDecoder struct {
	db    *tsdb.DB
	fids  map[uint32]*tsdb.Ref
	part  []byte
	batch []tsdb.RefPoint
}

func newRecDecoder(db *tsdb.DB) *recDecoder {
	return &recDecoder{db: db, fids: make(map[uint32]*tsdb.Ref)}
}

func (d *recDecoder) reset() {
	d.fids = make(map[uint32]*tsdb.Ref)
	d.part = d.part[:0]
	d.batch = d.batch[:0]
}

// feedDict consumes dictionary bytes: series records only, no offset
// accounting (the dict is a replay of an earlier file region).
func (d *recDecoder) feedDict(data []byte) error {
	if _, err := d.feed(data); err != nil {
		return err
	}
	if len(d.batch) > 0 {
		return errors.New("repl: point records in dictionary")
	}
	return nil
}

// feed consumes complete records from part+data, interning series and
// collecting points into batch. It returns how many stream bytes are
// now fully consumed — the offset advance those records cover, counted
// from the start of part, so a record an earlier frame began counts
// whole; the incomplete tail stays buffered.
func (d *recDecoder) feed(data []byte) (consumed int64, err error) {
	d.part = append(d.part, data...)
	p := d.part
	total := 0
	for {
		if len(p)-total < 8 {
			break
		}
		n := binary.LittleEndian.Uint32(p[total+4:])
		if n == 0 || int64(n) > maxFrame {
			return 0, fmt.Errorf("%w: implausible length %d", errRecordCorrupt, n)
		}
		if len(p)-total < 8+int(n) {
			break
		}
		rec := p[total : total+8+int(n)]
		if crc32.ChecksumIEEE(rec[8:]) != binary.LittleEndian.Uint32(rec) {
			return 0, fmt.Errorf("%w: crc mismatch", errRecordCorrupt)
		}
		if err := d.apply(rec[8:]); err != nil {
			return 0, err
		}
		total += 8 + int(n)
	}
	d.part = append(d.part[:0], p[total:]...)
	return int64(total), nil
}

// apply dispatches one verified record payload.
func (d *recDecoder) apply(payload []byte) error {
	switch payload[0] {
	case 1: // series
		return d.applySeries(payload[1:])
	case 2: // points
		return d.applyPoints(payload[1:])
	case 3, 7: // sealed blocks: written by log rewrites only, never streamed
		return errors.New("repl: unexpected block record in stream")
	case 4, 5, 6: // flush marker, replpos, gen: primary-local bookkeeping
		return nil
	default:
		return fmt.Errorf("repl: unknown wal record type %d in stream", payload[0])
	}
}

func (d *recDecoder) applySeries(p []byte) error {
	if len(p) < 4 {
		return errFrameCorrupt
	}
	fid := binary.LittleEndian.Uint32(p)
	metric, off, err := readStr(p, 4)
	if err != nil {
		return err
	}
	if off+2 > len(p) {
		return errFrameCorrupt
	}
	nTags := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	tags := make(map[string]string, nTags)
	for i := 0; i < nTags; i++ {
		var k, v string
		if k, off, err = readStr(p, off); err != nil {
			return err
		}
		if v, off, err = readStr(p, off); err != nil {
			return err
		}
		tags[k] = v
	}
	ref, err := d.db.Intern(metric, tags)
	if err != nil {
		return fmt.Errorf("repl: intern %s: %w", metric, err)
	}
	d.fids[fid] = ref
	return nil
}

func (d *recDecoder) applyPoints(p []byte) error {
	if len(p) < 2 {
		return errFrameCorrupt
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p) != 2+n*20 {
		return errFrameCorrupt
	}
	off := 2
	for i := 0; i < n; i++ {
		fid := binary.LittleEndian.Uint32(p[off:])
		ref, ok := d.fids[fid]
		if !ok {
			return fmt.Errorf("repl: point for unannounced series fid %d", fid)
		}
		d.batch = append(d.batch, tsdb.RefPoint{
			Ref: ref,
			Point: tsdb.Point{
				Timestamp: int64(binary.LittleEndian.Uint64(p[off+4:])),
				Value:     math.Float64frombits(binary.LittleEndian.Uint64(p[off+12:])),
			},
		})
		off += 20
	}
	return nil
}
