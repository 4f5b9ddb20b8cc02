package main

// The load loops shared by the workloads: one open-loop schedule
// runner, the /api/put sender with its back-pressure rule, the sample
// record, and the failure log.

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Operation kinds, used to split samples into populations.
const (
	kindPut uint8 = iota
	kindPutFanout
	kindQuery
	kindQueryRollup
	kindPanel
)

// sample is one completed operation. Times are offsets from the run's
// epoch. late is how long the generator took to send once the op was
// due and its connection free; an op's latency is done-due-late.
type sample struct {
	kind      uint8
	retries   int
	due, done time.Duration
	late      time.Duration
	wire      int // response bytes as they crossed the socket
}

// failureLog counts failed operations and keeps the first few reasons.
type failureLog struct {
	mu      sync.Mutex
	n       int
	reasons []string
}

func (f *failureLog) add(format string, args ...any) { f.addN(1, format, args...) }

// addN records n operations failing for one reason.
func (f *failureLog) addN(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n += n
	if len(f.reasons) < 8 {
		f.reasons = append(f.reasons, fmt.Sprintf(format, args...))
	}
}

func (f *failureLog) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Back-pressure on /api/put: a 429 is not a failure. The same batch is
// re-sent after putRetryDelay (not the header's whole second) and its
// latency keeps running from the first attempt; it fails only once
// opTimeout has passed, or on any other non-204. (A fixed budget of 50
// refusals, 50 ms, is shorter than one WAL rewrite on a 2-core box and
// would fail batches on a healthy server.)
const putRetryDelay = time.Millisecond

// sendPut posts one rendered batch, absorbing 429s.
func sendPut(c *conn, req []byte) (refusals int, err error) {
	begin := time.Now()
	for {
		status, _, err := c.roundTrip(req)
		switch {
		case err != nil:
			return refusals, err
		case status == 204:
			return refusals, nil
		case status != 429:
			return refusals, fmt.Errorf("/api/put: status %d", status)
		}
		refusals++
		if time.Since(begin) > opTimeout {
			return refusals, fmt.Errorf("/api/put: still refused after %v (%d refusals)", opTimeout, refusals)
		}
		time.Sleep(putRetryDelay)
	}
}

// op is one scheduled open-loop operation.
type op struct {
	due  time.Duration
	kind uint8
	// id names what is asked (a cache key, a panel) so answers to the
	// same question can be compared; shape indexes the workload's own
	// table of query shapes.
	id, shape int
	req       []byte
}

// openLoop drives one connection through its schedule.
type openLoop struct {
	c     *conn
	epoch time.Time
	ops   []op
	// prepare, when set, runs just before a send and returns the bytes
	// to write (put templates are patched here); it may settle o.kind.
	prepare func(o *op, now time.Duration) []byte
	// check inspects an answer after its latency has been taken and
	// returns a non-empty reason to fail the op. An accepted put is
	// passed as status 204 with no body.
	check func(o *op, status int, body []byte, gzipped bool) string
	fails *failureLog
}

// run sends every op at its due time, or as soon after as the
// connection is free, and returns one sample per op sent. It stops
// early when ctx is cancelled or the connection breaks.
func (l *openLoop) run(ctx context.Context) []sample {
	out := make([]sample, 0, len(l.ops))
	var free time.Duration
	for i := range l.ops {
		o := &l.ops[i]
		if d := o.due - time.Since(l.epoch); d > 0 {
			time.Sleep(d)
		}
		if ctx.Err() != nil {
			return out
		}
		now := time.Since(l.epoch)
		req := o.req
		if l.prepare != nil {
			req = l.prepare(o, now)
		}
		s := sample{kind: o.kind, due: o.due, late: now - max(o.due, free)}
		var reason string
		if o.kind == kindPut || o.kind == kindPutFanout {
			refusals, err := sendPut(l.c, req)
			s.retries = refusals
			s.done = time.Since(l.epoch)
			if err != nil {
				reason = err.Error()
			} else {
				reason = l.check(o, 204, nil, false)
			}
		} else {
			status, body, err := l.c.roundTrip(req)
			s.done = time.Since(l.epoch)
			s.wire = len(body)
			if err != nil {
				reason = err.Error()
			} else {
				reason = l.check(o, status, body, l.c.gzipped)
			}
		}
		if reason == "" && s.done-s.due-s.late > opTimeout {
			reason = "timed out"
		}
		if reason != "" {
			l.fails.add("op %d (kind %d): %s", i, o.kind, reason)
		}
		free = time.Since(l.epoch)
		out = append(out, s)
		if l.c.broken {
			// Whatever was still scheduled can no longer be sent.
			l.fails.addN(len(l.ops)-i-1, "connection broken after op %d", i)
			return out
		}
	}
	return out
}
