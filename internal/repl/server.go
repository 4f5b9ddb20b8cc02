package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tsdb"
)

// ServerConfig configures a primary-side replication server.
type ServerConfig struct {
	DB     *tsdb.DB
	Logger *slog.Logger

	// Authorize validates the key carried in a hello frame; nil allows
	// every connection (tests, trusted networks).
	Authorize func(key string) bool

	// Heartbeat is the idle-stream heartbeat cadence (default 1s).
	Heartbeat time.Duration

	// WriteTimeout bounds every frame write, so a stalled follower
	// cannot wedge a session — or, mid-snapshot, the store's opMu —
	// forever (default 30s).
	WriteTimeout time.Duration

	// MaxLagBytes is a connected follower's lease budget: WAL
	// truncation defers while the follower is behind by less, and
	// revokes the lease (forcing a snapshot re-sync) past it.
	// Default 256 MiB.
	MaxLagBytes int64
}

// Server accepts follower connections and streams the WAL to them.
type Server struct {
	cfg ServerConfig

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup

	connected atomic.Int64
	sessions  atomic.Uint64
	snapshots atomic.Uint64
	bytesOut  atomic.Uint64
}

// NewServer builds a server; call Start or Serve to accept, then Close.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.MaxLagBytes <= 0 {
		cfg.MaxLagBytes = 256 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Server{cfg: cfg, conns: make(map[net.Conn]struct{}), stop: make(chan struct{})}
}

// Start listens on addr and serves it (see Serve).
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts followers on ln in the background until Close, which
// closes ln. A closed server closes ln and returns an error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ln.Close()
		return errors.New("repl: server closed")
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return nil
}

// Addr reports the bound listener address (nil before Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			s.cfg.Logger.Warn("repl accept failed", "err", err)
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.session(conn)
		}()
	}
}

// Close stops accepting, terminates every session, and waits for them.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.stop)
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ServerStats is a point-in-time metrics snapshot.
type ServerStats struct {
	Connected int64
	Sessions  uint64
	Snapshots uint64
	BytesOut  uint64
}

// Stats reports live counters for /metrics.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Connected: s.connected.Load(),
		Sessions:  s.sessions.Load(),
		Snapshots: s.snapshots.Load(),
		BytesOut:  s.bytesOut.Load(),
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// session drives one follower connection: handshake, snapshot or
// resume, then the live stream until the link breaks or the server
// stops.
func (s *Server) session(conn net.Conn) {
	defer s.dropConn(conn)
	s.sessions.Add(1)
	log := s.cfg.Logger.With("peer", conn.RemoteAddr().String())

	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := readFrame(br)
	if err != nil || typ != fHello {
		sendError(conn, s.cfg.WriteTimeout, codeProto, "expected hello")
		return
	}
	hello, err := parseHello(payload)
	if err != nil {
		sendError(conn, s.cfg.WriteTimeout, codeProto, err.Error())
		return
	}
	if hello.ver != helloVersion {
		sendError(conn, s.cfg.WriteTimeout, codeProto, fmt.Sprintf("hello version %d unsupported", hello.ver))
		return
	}
	if s.cfg.Authorize != nil && !s.cfg.Authorize(hello.key) {
		sendError(conn, s.cfg.WriteTimeout, codeAuth, "bad replication key")
		return
	}
	epoch := s.cfg.DB.ReplEpoch()
	if hello.epoch > epoch {
		// The follower has seen a newer era than ours: serving it would
		// roll it back onto a stale timeline. This is the fence that
		// refuses a rejoining old primary's clients.
		log.Warn("repl session fenced", "peer_epoch", hello.epoch, "epoch", epoch)
		sendError(conn, s.cfg.WriteTimeout, codeFenced, fmt.Sprintf("peer epoch %d ahead of %d", hello.epoch, epoch))
		return
	}

	var rd *tsdb.WALReader
	var dict, buf []byte
	if hello.hasPos && hello.epoch == epoch {
		rd, err = s.cfg.DB.WALTail(hello.gen, hello.off, s.cfg.MaxLagBytes)
		if err != nil && !errors.Is(err, tsdb.ErrWALResyncRequired) {
			sendError(conn, s.cfg.WriteTimeout, codeResync, err.Error())
			return
		}
		if rd != nil {
			// The dictionary scan also proves the position a record
			// boundary. One inside a record can only be re-seeded, so
			// it gets the snapshot answer, as a truncated one does.
			if dict, err = rd.DictPrefix(); err != nil {
				rd.Close()
				if !errors.Is(err, tsdb.ErrWALResyncRequired) {
					return
				}
				log.Warn("repl resume position not servable", "err", err)
				rd = nil
			}
		}
	}
	if rd == nil && hello.resumeOnly {
		// A running follower cannot take a snapshot; refuse before
		// reading one for it.
		sendError(conn, s.cfg.WriteTimeout, codeResync, "position not resumable: snapshot re-sync required")
		return
	}
	if rd != nil {
		if buf, err = writeFrame(conn, buf, s.cfg.WriteTimeout, fWelcome, helloWelcome(epoch, modeResume)); err != nil {
			rd.Close()
			return
		}
		// WALTail may have chained the position forward through log
		// rewrites the follower slept through; announce where the
		// stream actually starts before any data flows.
		if gen, off := rd.Pos(); gen != hello.gen || off != hello.off {
			if buf, err = writeFrame(conn, buf, s.cfg.WriteTimeout, fGen, appendPos(nil, gen, off)); err != nil {
				rd.Close()
				return
			}
		}
		log.Info("repl session resumed", "gen", hello.gen, "off", hello.off)
	} else {
		if buf, err = writeFrame(conn, buf, s.cfg.WriteTimeout, fWelcome, helloWelcome(epoch, modeSnapshot)); err != nil {
			return
		}
		rd, buf, err = s.sendSnapshot(conn, buf)
		if err != nil {
			log.Warn("repl snapshot failed", "err", err)
			sendError(conn, s.cfg.WriteTimeout, codeShutdown, err.Error())
			return
		}
		s.snapshots.Add(1)
		if dict, err = rd.DictPrefix(); err != nil {
			rd.Close()
			return
		}
		gen, off := rd.Pos()
		log.Info("repl session bootstrapped", "gen", gen, "off", off)
	}
	defer rd.Close()

	// Watch for the peer hanging up: followers send nothing after
	// hello, so any read completion means the link is gone.
	peerGone := make(chan struct{})
	go func() {
		defer close(peerGone)
		conn.SetReadDeadline(time.Time{})
		one := make([]byte, 256)
		for {
			if _, err := br.Read(one); err != nil {
				return
			}
		}
	}()

	if buf, err = s.sendDict(conn, dict, buf); err != nil {
		return
	}

	s.connected.Add(1)
	defer s.connected.Add(-1)
	stop := make(chan struct{})
	var stopOnce sync.Once
	defer stopOnce.Do(func() { close(stop) })
	go func() {
		select {
		case <-s.stop:
		case <-peerGone:
		case <-stop:
		}
		stopOnce.Do(func() { close(stop) })
		conn.Close() // unblocks any in-flight frame write
	}()

	chunk := make([]byte, 256<<10)
	hdr := make([]byte, 0, 32)
	for {
		ev, err := rd.Next(chunk, stop, s.cfg.Heartbeat)
		if err != nil {
			switch {
			case errors.Is(err, tsdb.ErrWALReaderStopped):
				sendError(conn, s.cfg.WriteTimeout, codeShutdown, "primary shutting down")
			case errors.Is(err, tsdb.ErrWALResyncRequired):
				log.Warn("repl lease revoked: follower too far behind truncation")
				sendError(conn, s.cfg.WriteTimeout, codeResync, "lease revoked: snapshot re-sync required")
			default:
				log.Warn("repl stream read failed", "err", err)
			}
			return
		}
		switch ev.Kind {
		case tsdb.WALData:
			hdr = appendClock(appendPos(hdr[:0], ev.Gen, ev.Off))
			payload := append(hdr, ev.Data...)
			if buf, err = writeFrame(conn, buf, s.cfg.WriteTimeout, fData, payload); err != nil {
				return
			}
			s.bytesOut.Add(uint64(len(payload)))
		case tsdb.WALRemap:
			if buf, err = writeFrame(conn, buf, s.cfg.WriteTimeout, fGen, appendPos(hdr[:0], ev.Gen, ev.Off)); err != nil {
				return
			}
			dict, err := rd.DictPrefix()
			if err != nil {
				return
			}
			if buf, err = s.sendDict(conn, dict, buf); err != nil {
				return
			}
		case tsdb.WALIdle:
			hdr = appendClock(appendPos(hdr[:0], ev.Gen, ev.Off))
			if buf, err = writeFrame(conn, buf, s.cfg.WriteTimeout, fHeartbeat, hdr); err != nil {
				return
			}
		}
	}
}

// sendSnapshot streams the full store state and returns the live
// tailer lease positioned at the snapshot watermark.
func (s *Server) sendSnapshot(conn net.Conn, buf []byte) (*tsdb.WALReader, []byte, error) {
	chunk := make([]byte, 256<<10)
	rd, err := s.cfg.DB.StreamSnapshot(s.cfg.MaxLagBytes, func(sf tsdb.SnapshotFile) error {
		kind := byte(snapKindWAL)
		if sf.Kind == "block" {
			kind = snapKindBlock
		}
		hdr := make([]byte, 0, 32)
		hdr = append(hdr, kind)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(sf.Size))
		hdr = appendStr(hdr, sf.Name)
		var werr error
		if buf, werr = writeFrame(conn, buf, s.cfg.WriteTimeout, fSnapFile, hdr); werr != nil {
			return werr
		}
		remaining := sf.Size
		for remaining > 0 {
			n := int64(len(chunk))
			if n > remaining {
				n = remaining
			}
			if _, rerr := io.ReadFull(sf.R, chunk[:n]); rerr != nil {
				return fmt.Errorf("repl: snapshot read %s: %w", sf.Name, rerr)
			}
			if buf, werr = writeFrame(conn, buf, s.cfg.WriteTimeout, fSnapData, chunk[:n]); werr != nil {
				return werr
			}
			s.bytesOut.Add(uint64(n))
			remaining -= n
		}
		return nil
	})
	if err != nil {
		return nil, buf, err
	}
	gen, off := rd.Pos()
	if buf, err = writeFrame(conn, buf, s.cfg.WriteTimeout, fSnapEnd, appendPos(nil, gen, off)); err != nil {
		rd.Close()
		return nil, buf, err
	}
	return rd, buf, nil
}

// sendDict ships a reader's dictionary prefix (WALReader.DictPrefix:
// every series record before its position in the current file),
// chunked into fDict frames at arbitrary byte boundaries (the
// follower's WAL decoder takes them as they come).
func (s *Server) sendDict(conn net.Conn, dict, buf []byte) ([]byte, error) {
	var err error
	for off := 0; ; off += 256 << 10 {
		end := off + 256<<10
		if end > len(dict) {
			end = len(dict)
		}
		if buf, err = writeFrame(conn, buf, s.cfg.WriteTimeout, fDict, dict[off:end]); err != nil {
			return buf, err
		}
		s.bytesOut.Add(uint64(end - off))
		if end == len(dict) {
			return buf, nil
		}
	}
}

// appendPos appends a gen(8) | off(8) stream position.
func appendPos(buf []byte, gen uint64, off int64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf, gen), uint64(off))
}

// appendClock appends the primary's send time, sentNano(8).
func appendClock(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(time.Now().UnixNano()))
}

type helloMsg struct {
	ver        byte
	epoch      uint64
	hasPos     bool
	resumeOnly bool
	gen        uint64
	off        int64
	key        string
}

// Bits of the hello's flags byte. Followers before resumeOnly sent
// only 0 or 1, and primaries before it read any non-zero byte as
// hasPos, so the bit needs no new hello version.
const (
	helloHasPos     = 1 << 0 // epoch/gen/off name a durable position
	helloResumeOnly = 1 << 1 // answer a position that cannot resume with a resync error, not a snapshot
)

func parseHello(p []byte) (helloMsg, error) {
	if len(p) < 1+8+1+8+8+2 {
		return helloMsg{}, errors.New("repl: short hello")
	}
	h := helloMsg{
		ver:        p[0],
		epoch:      binary.LittleEndian.Uint64(p[1:]),
		hasPos:     p[9]&helloHasPos != 0,
		resumeOnly: p[9]&helloResumeOnly != 0,
		gen:        binary.LittleEndian.Uint64(p[10:]),
		off:        int64(binary.LittleEndian.Uint64(p[18:])),
	}
	key, _, err := readStr(p, 26)
	if err != nil {
		return helloMsg{}, err
	}
	h.key = key
	return h, nil
}

func encodeHello(h helloMsg) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, h.ver)
	buf = binary.LittleEndian.AppendUint64(buf, h.epoch)
	var flags byte
	if h.hasPos {
		flags |= helloHasPos
	}
	if h.resumeOnly {
		flags |= helloResumeOnly
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, h.gen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.off))
	return appendStr(buf, h.key)
}

func helloWelcome(epoch uint64, mode byte) []byte {
	buf := make([]byte, 0, 16)
	buf = append(buf, protoVersion)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return append(buf, mode)
}

func parseWelcome(p []byte) (epoch uint64, mode byte, err error) {
	if len(p) != 10 {
		return 0, 0, errors.New("repl: short welcome")
	}
	if p[0] == 0 || p[0] > protoVersion {
		return 0, 0, fmt.Errorf("repl: protocol version %d unsupported", p[0])
	}
	return binary.LittleEndian.Uint64(p[1:]), p[9], nil
}
