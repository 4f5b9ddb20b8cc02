// Package lineproto is a TCP listener speaking the OpenTSDB telnet
// line protocol — the "Telnet-style put" ingest the ROADMAP calls for
// and the chunked path constrained producers (LoRaWAN gateways,
// legacy collectors, a developer with nc) use instead of HTTP JSON:
//
//	put <metric> <timestamp> <value> <tag1=v1> [<tag2=v2> ...]
//
// One measurement per line; timestamps in epoch seconds or
// milliseconds; at least one tag, exactly as OpenTSDB requires. The
// listener parses statsdaemon-style — a buffered reader sliced at
// newlines, oversized lines skipped, per-connection read deadlines so
// a dead peer cannot pin a connection — and feeds parsed points into
// the same bounded ingest queue as the HTTP gateway, so both edges
// share one backpressure policy. Malformed lines are counted, answered
// with a one-line error (visible in an interactive nc session), and
// never abort the connection.
package lineproto

import (
	"bufio"
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// Sink receives parsed, validated points — implemented by
// api.Gateway, whose bounded queue and 429-style refusal the listener
// inherits. Put lines are parsed as raw byte fields, resolved to
// interned series at the wire (strings and tag maps materialize only
// for never-before-seen series), and enqueued as compact
// (SeriesID, Point) batches.
type Sink interface {
	Intern(metric []byte, kvs [][]byte) (*tsdb.Ref, error)
	EnqueueRefs(rps []tsdb.RefPoint) error
}

// Config tunes the listener. Zero values select the defaults.
type Config struct {
	// ReadTimeout is the per-read deadline: a connection idle longer
	// is closed. Default 5m.
	ReadTimeout time.Duration
	// MaxLineLen bounds one line; longer lines are counted malformed
	// and skipped. Default 1024.
	MaxLineLen int
	// BatchSize caps points buffered per connection before they are
	// flushed to the sink. Default 128.
	BatchSize int
	// APIKey, when non-empty, requires each connection to authenticate
	// before its first put by sending the line "auth <key>" — the
	// telnet analogue of the gateway's X-API-Key header. Unauthorized
	// puts are refused with an error line and counted; version/exit
	// stay available unauthenticated. When empty, the listener defers
	// to the sink's own policy (api.Gateway's RequiresAPIKey /
	// CheckAPIKey), so keying the gateway cannot leave the telnet edge
	// accidentally open.
	APIKey string
}

// keyPolicy is the auth policy a sink may enforce — implemented by
// api.Gateway. A listener with no APIKey of its own defers to it.
type keyPolicy interface {
	RequiresAPIKey() bool
	CheckAPIKey(key string) bool
}

// authRequired reports whether connections must auth before putting.
func (s *Server) authRequired() bool {
	if s.cfg.APIKey != "" {
		return true
	}
	if kp, ok := s.sink.(keyPolicy); ok {
		return kp.RequiresAPIKey()
	}
	return false
}

// checkKey validates an auth attempt against the explicit listener
// key or, absent one, the sink's policy. Constant time either way.
func (s *Server) checkKey(key string) bool {
	if s.cfg.APIKey != "" {
		return subtle.ConstantTimeCompare([]byte(key), []byte(s.cfg.APIKey)) == 1
	}
	if kp, ok := s.sink.(keyPolicy); ok {
		return kp.CheckAPIKey(key)
	}
	return true
}

func (c *Config) setDefaults() {
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.MaxLineLen <= 0 {
		c.MaxLineLen = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
}

// Server is the line-protocol listener.
type Server struct {
	sink Sink
	cfg  Config

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// counters
	connsTotal atomic.Uint64
	active     atomic.Int64
	lines      atomic.Uint64 // non-empty lines read
	points     atomic.Uint64 // points accepted into the queue
	malformed  atomic.Uint64 // lines rejected by the parser/validator
	dropped    atomic.Uint64 // parsed points refused by the sink
	degraded   atomic.Uint64 // of those, dropped because the store is degraded
	timeouts   atomic.Uint64 // connections closed by the read deadline
	authFails  atomic.Uint64 // puts refused or auth attempts rejected: bad/missing key

	// flushHist, once RegisterMetrics installs it, times each batch
	// flush into the sink — queue reservation included, so it shows
	// telnet backpressure.
	flushHist atomic.Pointer[obs.Histogram]

	rate obs.EWMARate
}

// New builds a server feeding sink. Call Start or Serve, then Close.
func New(sink Sink, cfg Config) *Server {
	cfg.setDefaults()
	return &Server{sink: sink, cfg: cfg, conns: make(map[net.Conn]struct{})}
}

// Start listens on addr and serves it (see Serve).
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("lineproto: %w", err)
	}
	if err := s.Serve(ln); err != nil {
		return nil, err
	}
	return ln.Addr(), nil
}

// Serve accepts connections on ln in the background until Close,
// which closes ln. A closed server closes ln and returns an error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ln.Close()
		return errors.New("lineproto: server closed")
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Close stops accepting, closes every live connection, and waits for
// the handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.active.Add(1)
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// connState is the per-connection scratch reused line after line: the
// line buffer, the split fields, the tag key/value slices, and the
// outgoing batch. Nothing here escapes per point.
type connState struct {
	line   []byte
	fields [][]byte
	kvs    [][]byte
	refs   []tsdb.RefPoint
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.active.Add(-1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	r := bufio.NewReaderSize(conn, 4096)
	st := &connState{}
	authed := !s.authRequired()
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		line, err := s.readLine(conn, r, st)
		if len(line) != 0 {
			if quit := s.handleLine(conn, line, st, &authed); quit {
				s.flush(conn, st)
				return
			}
		}
		// Flush when the batch is full or no more input is already
		// buffered (the next read would block).
		if n := len(st.refs); n >= s.cfg.BatchSize || (n > 0 && r.Buffered() == 0) {
			s.flush(conn, st)
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.timeouts.Add(1)
			}
			return // EOF, deadline, or closed
		}
	}
}

// readLine reads one newline-terminated line via ReadSlice into the
// connection's reused buffer, so memory stays bounded by the reader's
// buffer no matter how long the peer's line is: once a line overflows
// MaxLineLen its bytes are discarded as they stream in, and the line
// is counted malformed. The returned slice is valid until the next
// call.
func (s *Server) readLine(conn net.Conn, r *bufio.Reader, st *connState) ([]byte, error) {
	buf := st.line[:0]
	overflow := false
	for {
		frag, err := r.ReadSlice('\n')
		if !overflow {
			if len(buf)+len(frag) > s.cfg.MaxLineLen+1 { // +1: the trailing \n
				overflow = true
				buf = buf[:0]
			} else {
				buf = append(buf, frag...)
			}
		}
		if err == bufio.ErrBufferFull {
			continue // same line keeps streaming; frag already consumed
		}
		st.line = buf
		if overflow {
			s.malformed.Add(1)
			s.reply(conn, "err: line exceeds %d bytes", s.cfg.MaxLineLen)
			return nil, err
		}
		return bytes.TrimRight(buf, "\r\n"), err
	}
}

// handleLine processes one complete line; quit requests connection
// close (the telnet "exit" command). put lines take the zero-copy
// interned path; command lines (rare) fall back to string handling.
func (s *Server) handleLine(conn net.Conn, line []byte, st *connState, authed *bool) (quit bool) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return false
	}
	s.lines.Add(1)
	if isCommandLine(line) {
		return s.handleCommand(conn, string(line), authed)
	}
	if !*authed {
		s.authFails.Add(1)
		s.reply(conn, "err: auth required (send: auth <key>)")
		return false
	}
	if err := s.parsePutFast(line, st); err != nil {
		s.malformed.Add(1)
		s.reply(conn, "err: %v", err)
	}
	return false
}

// isCommandLine recognizes the non-put control lines. The string
// conversions in the comparisons do not allocate.
func isCommandLine(line []byte) bool {
	switch string(line) {
	case "exit", "quit", "version", "auth":
		return true
	}
	return bytes.HasPrefix(line, []byte("auth "))
}

// handleCommand runs one control line; quit requests connection close.
func (s *Server) handleCommand(conn net.Conn, line string, authed *bool) (quit bool) {
	switch {
	case line == "exit" || line == "quit":
		return true
	case line == "version":
		s.reply(conn, "ctt-tsdb line protocol, OpenTSDB telnet compatible")
		return false
	default: // auth
		key := strings.TrimSpace(strings.TrimPrefix(line, "auth"))
		if s.checkKey(key) {
			*authed = true
			s.reply(conn, "auth ok")
		} else {
			s.authFails.Add(1)
			s.reply(conn, "err: invalid key")
		}
		return false
	}
}

// parsePutFast parses one put line as raw byte fields and resolves it
// to an interned series — the zero-copy path: no strings, no tag map,
// no DataPoint unless the series is new. Its grammar and error
// messages are held to a string reference parser by
// TestParsePutFastMatchesParseLine and FuzzParsePutLine.
func (s *Server) parsePutFast(line []byte, st *connState) error {
	fields := splitFieldsBytes(line, st.fields[:0])
	st.fields = fields
	if len(fields) == 0 || string(fields[0]) != "put" {
		return fmt.Errorf("unknown command %q (want: put <metric> <ts> <value> <tag=value> ...)", firstWordBytes(line))
	}
	if len(fields) < 5 {
		return fmt.Errorf("put needs metric, timestamp, value and at least one tag (got %d fields)", len(fields)-1)
	}
	ts, err := strconv.ParseInt(string(fields[2]), 10, 64)
	if err != nil {
		return fmt.Errorf("bad timestamp %q", fields[2])
	}
	if ts <= 0 {
		return fmt.Errorf("timestamp must be positive, got %q", fields[2])
	}
	val, err := strconv.ParseFloat(string(fields[3]), 64)
	if err != nil {
		return fmt.Errorf("bad value %q", fields[3])
	}
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return fmt.Errorf("value must be finite, got %q", fields[3])
	}
	kvs := st.kvs[:0]
	for _, kv := range fields[4:] {
		eq := bytes.IndexByte(kv, '=')
		if eq <= 0 || eq == len(kv)-1 {
			st.kvs = kvs
			return fmt.Errorf("bad tag %q (want key=value)", kv)
		}
		kvs = append(kvs, kv[:eq], kv[eq+1:])
	}
	st.kvs = kvs
	tsMS := tsdb.NormalizeMillis(ts)
	if !tsdb.ValidTimestamp(tsMS) {
		return fmt.Errorf("%w: %d", tsdb.ErrBadTimestamp, tsMS)
	}
	ref, err := s.sink.Intern(fields[1], kvs)
	if err != nil {
		return err
	}
	st.refs = append(st.refs, tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: tsMS, Value: val}})
	return nil
}

// splitFieldsBytes splits on runs of ASCII whitespace, appending the
// subslices to out — strings.Fields without the strings.
func splitFieldsBytes(line []byte, out [][]byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && !asciiSpace(line[j]) {
			j++
		}
		out = append(out, line[i:j])
		i = j
	}
	return out
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

func firstWordBytes(line []byte) []byte {
	if i := bytes.IndexByte(line, ' '); i > 0 {
		return line[:i]
	}
	return line
}

// flush hands the batch to the sink, translating queue refusal into a
// counted drop plus an error line — the telnet analogue of HTTP 429.
func (s *Server) flush(conn net.Conn, st *connState) {
	n := len(st.refs)
	if n == 0 {
		return
	}
	if h := s.flushHist.Load(); h != nil {
		defer h.ObserveSince(time.Now())
	}
	if err := s.sink.EnqueueRefs(st.refs); err != nil {
		s.dropped.Add(uint64(n))
		switch {
		case errors.Is(err, api.ErrQueueFull):
			s.reply(conn, "err: ingest queue full, %d points dropped; slow down", n)
		case errors.Is(err, tsdb.ErrDegraded):
			// Degraded is sticky until a restart: tell the peer to go
			// away rather than invite an immediate retry.
			s.degraded.Add(uint64(n))
			s.reply(conn, "err: store degraded, writes disabled, %d points dropped; retry much later", n)
		default:
			s.reply(conn, "err: %v", err)
		}
	} else {
		s.points.Add(uint64(n))
		s.rate.Observe(n, time.Now())
	}
	st.refs = st.refs[:0]
}

// reply best-effort writes one diagnostic line back to the peer.
func (s *Server) reply(conn net.Conn, format string, args ...any) {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, format+"\n", args...)
}

// Stats is a snapshot of the listener's counters.
type Stats struct {
	ConnsTotal  uint64
	ConnsActive int64
	Lines       uint64
	Points      uint64
	Malformed   uint64
	Dropped     uint64
	// DegradedDropped counts the subset of Dropped refused because the
	// store entered degraded read-only mode.
	DegradedDropped uint64
	Timeouts        uint64
	AuthFails       uint64
	// PointsPerSecond is the exponentially-weighted ingest rate.
	PointsPerSecond float64
}

// Stats snapshots the listener.
func (s *Server) Stats() Stats {
	return Stats{
		ConnsTotal:      s.connsTotal.Load(),
		ConnsActive:     s.active.Load(),
		Lines:           s.lines.Load(),
		Points:          s.points.Load(),
		Malformed:       s.malformed.Load(),
		Dropped:         s.dropped.Load(),
		DegradedDropped: s.degraded.Load(),
		Timeouts:        s.timeouts.Load(),
		AuthFails:       s.authFails.Load(),
		PointsPerSecond: s.rate.Value(time.Now()),
	}
}

// RegisterMetrics puts the listener's counters, its ingest-rate gauge
// and its flush-latency histogram on r, so /metrics and the
// self-scrape loop both see them.
func (s *Server) RegisterMetrics(r *obs.Registry) {
	r.Uint("ctt_lineproto_connections_total", s.connsTotal.Load)
	r.Uint("ctt_lineproto_connections_active", func() uint64 { return uint64(s.active.Load()) })
	r.Uint("ctt_lineproto_lines_total", s.lines.Load)
	r.Uint("ctt_lineproto_points_total", s.points.Load)
	r.Uint("ctt_lineproto_malformed_total", s.malformed.Load)
	r.Uint("ctt_lineproto_dropped_total", s.dropped.Load)
	r.Uint("ctt_lineproto_degraded_dropped_total", s.degraded.Load)
	r.Uint("ctt_lineproto_read_timeouts_total", s.timeouts.Load)
	r.Uint("ctt_lineproto_auth_failures_total", s.authFails.Load)
	r.Gauge("ctt_lineproto_rate_points_per_second", func() float64 { return s.rate.Value(time.Now()) })
	s.flushHist.Store(r.Histogram("ctt_lineproto_flush_seconds", "", nil))
}
