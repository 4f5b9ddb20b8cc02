// Package repl implements WAL-streaming replication: a primary-side
// server that snapshots the store and tails the WAL to followers over
// a length-prefixed framed TCP protocol, and a follower that
// bootstraps from the snapshot, applies the live stream through the
// normal batch-append path, and persists its resume position
// atomically with the data it covers (tsdb.AppendRefsAt).
//
// Wire format (all integers little-endian):
//
//	frame: len(4) | type(1) | payload | crc32(4)
//
// len counts everything after itself (type + payload + crc); crc is
// IEEE over type + payload. Frame types:
//
//	hello     (1) C→S: ver(1) | epoch(8) | flags(1) | gen(8) | off(8) | key(str)     ver: helloVersion; flags: 1 hasPos, 2 resumeOnly
//	welcome   (2) S→C: ver(1) | epoch(8) | mode(1)           ver: protoVersion; mode: 0 resume, 1 snapshot
//	snapfile  (3) S→C: kind(1) | size(8) | name(str)         kind: 0 wal, 1 block
//	snapdata  (4) S→C: raw file bytes
//	snapend   (5) S→C: gen(8) | off(8)
//	dict      (6) S→C: raw WAL series records (chunked arbitrarily)
//	data      (7) S→C: gen(8) | off(8) | sentNano(8) | raw WAL bytes
//	gen       (8) S→C: gen(8) | base(8)                      log rewritten; dict follows
//	heartbeat (9) S→C: gen(8) | eof(8) | sentNano(8)
//	error    (10) S→C: code(1) | msg(str)
//
// str is a 16-bit length prefix + bytes (the WAL's string codec). The
// payload of data/dict frames is a byte range of the primary's WAL v2
// file — records keep their own CRCs — and may split records at
// either end. This package checks only its own frames: it hands those
// bytes to the store's WAL decoder (tsdb.WALDecoder) as they come.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"
)

const (
	// protoVersion, stamped on the welcome, names the store format the
	// primary ships in a snapshot: 2 since block files are CTTBLK2 and
	// the WAL prefix may carry block2 records (tagged chunk payloads).
	// A follower accepts any version up to its own for the live stream,
	// which is the same in every version, and an older follower refuses
	// a newer welcome before it has touched its data directory.
	protoVersion = 2
	// minSnapshotVersion is the oldest welcome whose snapshot this
	// build takes: a version-1 primary ships CTTBLK1 block files, which
	// the store refuses at open (docs/FORMAT.md §4).
	minSnapshotVersion = 2
	// helloVersion is the hello frame's own layout, unchanged since 1:
	// an upgraded follower must still be able to greet an old primary
	// (replicas upgrade first).
	helloVersion = 1

	// maxFrame bounds one frame's post-length size; data chunks are
	// far smaller (256 KiB), so anything near the cap is a protocol
	// violation, not load.
	maxFrame = 8 << 20
)

const (
	fHello     = 1
	fWelcome   = 2
	fSnapFile  = 3
	fSnapData  = 4
	fSnapEnd   = 5
	fDict      = 6
	fData      = 7
	fGen       = 8
	fHeartbeat = 9
	fError     = 10
)

const (
	modeResume   = 0
	modeSnapshot = 1
)

const (
	snapKindWAL   = 0
	snapKindBlock = 1
)

// Error codes carried by fError frames.
const (
	codeFenced   = 1 // peer epoch ahead of ours: refuse to serve a newer era
	codeResync   = 2 // position not servable: re-bootstrap from snapshot
	codeAuth     = 3
	codeShutdown = 4
	codeProto    = 5
)

var errFrameTooLarge = errors.New("repl: frame exceeds size limit")
var errFrameCorrupt = errors.New("repl: frame crc mismatch")

// RemoteError is an fError frame surfaced as a Go error.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("repl: remote error %d: %s", e.Code, e.Msg)
}

// IsFenced reports whether err is a remote epoch-fencing refusal.
func IsFenced(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == codeFenced
}

// IsResync reports whether err demands a snapshot re-bootstrap.
func IsResync(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == codeResync
}

// writeFrame sends one frame under a fresh write deadline. buf is a
// reusable scratch buffer returned for the next call.
func writeFrame(conn net.Conn, buf []byte, timeout time.Duration, typ byte, payload []byte) ([]byte, error) {
	n := 1 + len(payload) + 4
	if n > maxFrame {
		return buf, errFrameTooLarge
	}
	buf = buf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[4:])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return buf, err
		}
	}
	_, err := conn.Write(buf)
	return buf, err
}

// readFrame reads one frame. The returned payload aliases an internal
// allocation owned by the caller. An fError frame is decoded and
// returned as *RemoteError.
func readFrame(br *bufio.Reader) (typ byte, payload []byte, err error) {
	var lenb [4]byte
	if _, err := io.ReadFull(br, lenb[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n < 5 || n > maxFrame {
		return 0, nil, errFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, err
	}
	crc := binary.LittleEndian.Uint32(body[n-4:])
	if crc32.ChecksumIEEE(body[:n-4]) != crc {
		return 0, nil, errFrameCorrupt
	}
	typ, payload = body[0], body[1:n-4]
	if typ == fError {
		code, msg := byte(0), ""
		if len(payload) >= 1 {
			code = payload[0]
			if s, _, err := readStr(payload, 1); err == nil {
				msg = s
			}
		}
		return typ, payload, &RemoteError{Code: code, Msg: msg}
	}
	return typ, payload, nil
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func readStr(p []byte, off int) (string, int, error) {
	if off+2 > len(p) {
		return "", off, errFrameCorrupt
	}
	n := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	if off+n > len(p) {
		return "", off, errFrameCorrupt
	}
	return string(p[off : off+n]), off + n, nil
}

// sendError best-effort ships an fError before the caller closes the
// connection.
func sendError(conn net.Conn, timeout time.Duration, code byte, msg string) {
	payload := append([]byte{code}, appendStr(nil, msg)...)
	_, _ = writeFrame(conn, nil, timeout, fError, payload)
}
