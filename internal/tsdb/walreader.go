package tsdb

// WALReader is the reader-lease half of the replication contract (the
// writer half is in wal.compact): while a lease is registered, WAL
// truncation waits for it to reach EOF — or revokes it past its byte
// budget — so a log rewrite can never drop bytes a live tailer has
// not streamed. Obtained from StreamSnapshot (at the snapshot
// watermark) or WALTail (resuming a prior position); one replication
// session owns one reader.

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// WALReader tails the log from a registered position. All state is
// guarded by the owning wal's mutex; one goroutine calls Next.
type WALReader struct {
	l      *wal
	gen    uint64
	off    int64
	maxLag int64 // revoke budget in bytes; 0 = never revoke
	notify chan struct{}
	lost   error     // set when revoked; every call fails with it
	remap  *walRemap // pending generation change to deliver
	closed bool
}

// walRemap is a pending post-compaction move: continue at base of the
// new generation.
type walRemap struct {
	gen  uint64
	base int64
}

// WALEventKind discriminates Next results.
type WALEventKind int

const (
	// WALData carries appended log bytes starting at (Gen, Off). The
	// byte range may split records (WALDecoder.Feed takes it as is).
	WALData WALEventKind = iota
	// WALRemap reports a log rewrite: the stream continues at (Gen,
	// Off) of the new file, whose dictionary must be re-read
	// (DictPrefix) because the rewrite re-announced every series under
	// fresh fileIDs.
	WALRemap
	// WALIdle reports that the heartbeat duration elapsed with nothing
	// new; Off is the current EOF.
	WALIdle
)

// WALEvent is one Next result.
type WALEvent struct {
	Kind WALEventKind
	Gen  uint64
	Off  int64
	Data []byte // WALData only; valid until the next Next call
}

// ErrWALReaderStopped reports that Next returned because the caller's
// stop channel closed.
var ErrWALReaderStopped = errors.New("tsdb: wal reader stopped")

// walReadChunk bounds one Next read, so a far-behind reader streams
// in pieces instead of one giant allocation.
const walReadChunk = 256 << 10

// signal wakes a blocked Next; never blocks.
func (r *WALReader) signal() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// revokeLocked marks the lease lost (truncation outran it); the owner
// learns on its next call and falls back to a snapshot re-sync.
// Caller holds l.mu.
func (r *WALReader) revokeLocked() {
	if r.lost == nil {
		r.lost = ErrWALResyncRequired
	}
	r.signal()
}

// Pos reports the reader's current position.
func (r *WALReader) Pos() (gen uint64, off int64) {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	return r.gen, r.off
}

// Close releases the lease; truncation stops waiting for it.
func (r *WALReader) Close() {
	l := r.l
	l.mu.Lock()
	defer l.mu.Unlock()
	r.closed = true
	for i, o := range l.leases {
		if o == r {
			l.leases = append(l.leases[:i], l.leases[i+1:]...)
			break
		}
	}
}

// Next blocks for the next event: appended bytes (read straight off
// the file into buf, which is reused across calls), a remap after a
// log rewrite, or an idle heartbeat after the given duration with
// nothing new. It returns ErrWALReaderStopped when stop closes and
// ErrWALResyncRequired once the lease was revoked.
func (r *WALReader) Next(buf []byte, stop <-chan struct{}, heartbeat time.Duration) (WALEvent, error) {
	if len(buf) == 0 {
		buf = make([]byte, walReadChunk)
	}
	l := r.l
	for {
		l.mu.Lock()
		if r.closed {
			l.mu.Unlock()
			return WALEvent{}, errors.New("tsdb: wal reader closed")
		}
		if r.lost != nil {
			err := r.lost
			l.mu.Unlock()
			return WALEvent{}, err
		}
		if m := r.remap; m != nil {
			r.remap = nil
			r.gen, r.off = m.gen, m.base
			ev := WALEvent{Kind: WALRemap, Gen: m.gen, Off: m.base}
			l.mu.Unlock()
			return ev, nil
		}
		if l.broken != nil {
			err := l.broken
			l.mu.Unlock()
			return WALEvent{}, err
		}
		// Appends are buffered; push them to the file so pread sees
		// them. Same bytes, reader-driven timing.
		if l.w.Buffered() > 0 {
			if err := l.w.Flush(); err != nil {
				l.mu.Unlock()
				return WALEvent{}, err
			}
		}
		avail := l.size.Load() - r.off
		if avail > 0 {
			n := avail
			if n > int64(len(buf)) {
				n = int64(len(buf))
			}
			if _, err := io.ReadFull(io.NewSectionReader(l.f, r.off, n), buf[:n]); err != nil {
				l.mu.Unlock()
				return WALEvent{}, fmt.Errorf("tsdb: wal tail read: %w", err)
			}
			ev := WALEvent{Kind: WALData, Gen: r.gen, Off: r.off, Data: buf[:n]}
			r.off += n
			l.mu.Unlock()
			return ev, nil
		}
		gen, eof := r.gen, l.size.Load()
		l.mu.Unlock()

		var timer *time.Timer
		var hb <-chan time.Time
		if heartbeat > 0 {
			timer = time.NewTimer(heartbeat)
			hb = timer.C
		}
		select {
		case <-r.notify:
			if timer != nil {
				timer.Stop()
			}
		case <-hb:
			return WALEvent{Kind: WALIdle, Gen: gen, Off: eof}, nil
		case <-stop:
			if timer != nil {
				timer.Stop()
			}
			return WALEvent{}, ErrWALReaderStopped
		}
	}
}

// DictPrefix returns the raw series (dictionary) records appearing
// before the reader's current offset in the current file,
// concatenated in log order. A session sends this to its follower at
// start and after every remap: records past the reader's position
// reference fileIDs announced earlier in the file — on a freshly
// compacted file, the rewrite pre-announced every live series — so
// the follower needs the prefix dictionary to decode the tail.
func (r *WALReader) DictPrefix() ([]byte, error) {
	l := r.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.lost != nil {
		return nil, r.lost
	}
	if r.remap != nil {
		return nil, errors.New("tsdb: wal reader: dict prefix with pending remap")
	}
	start := int64(len(walMagic))
	var out []byte
	end, err := scanWAL(io.NewSectionReader(l.f, start, r.off-start), start, func(_ int64, rec []byte) bool {
		if rec[walHeaderLen] == walRecSeries {
			out = append(out, rec...)
		}
		return true
	})
	switch {
	case err == io.ErrUnexpectedEOF:
		return nil, fmt.Errorf("%w: offset %d is inside the record at %d", ErrWALResyncRequired, r.off, end)
	case err != nil:
		return nil, fmt.Errorf("tsdb: wal dict scan: %w", err)
	}
	return out, nil
}
