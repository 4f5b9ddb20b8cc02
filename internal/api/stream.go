package api

// Live streaming: GET /api/stream holds the connection open and
// pushes every stored data point that matches the subscriber's filter
// as a server-sent event — the push channel live dashboards attach to
// instead of polling /api/query. Slow consumers lose events rather
// than stall the ingest path; drops are counted and exposed on
// /metrics.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonenc"
	"repro/internal/tsdb"
)

type streamHub struct {
	buffer int
	// nsubs mirrors len(subs) so publish — called for every stored
	// point — can skip the mutex entirely in the common case of no
	// live stream subscribers.
	nsubs   atomic.Int64
	mu      sync.RWMutex
	subs    map[*subscriber]struct{}
	closed  bool
	dropped atomic.Uint64
}

type subscriber struct {
	ch           chan tsdb.RefPoint
	metricPrefix string
	tags         map[string]string
}

func newStreamHub(buffer int) *streamHub {
	return &streamHub{buffer: buffer, subs: make(map[*subscriber]struct{})}
}

// publishBatch fans a stored batch out to matching subscribers
// without blocking (a full subscriber buffer drops the event), with
// one subscriber-set lock acquisition for the whole batch.
func (h *streamHub) publishBatch(rps []tsdb.RefPoint) {
	if h.nsubs.Load() == 0 {
		return
	}
	// Read lock: concurrent publishers (ingest workers + the pilot)
	// only read the subscriber set; the non-blocking channel sends are
	// safe in parallel.
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, rp := range rps {
		for sub := range h.subs {
			if !sub.matches(rp.Ref) {
				continue
			}
			select {
			case sub.ch <- rp:
			default:
				h.dropped.Add(1)
			}
		}
	}
}

func (s *subscriber) matches(series *tsdb.Ref) bool {
	if s.metricPrefix != "" && !strings.HasPrefix(series.Metric(), s.metricPrefix) {
		return false
	}
	for k, v := range s.tags {
		tv, ok := series.Tag(k)
		if !ok || (v != "*" && v != tv) {
			return false
		}
	}
	return true
}

func (h *streamHub) subscribe(metricPrefix string, tags map[string]string) (*subscriber, bool) {
	sub := &subscriber{
		ch:           make(chan tsdb.RefPoint, h.buffer),
		metricPrefix: metricPrefix,
		tags:         tags,
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, false
	}
	h.subs[sub] = struct{}{}
	h.nsubs.Store(int64(len(h.subs)))
	return sub, true
}

func (h *streamHub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		h.nsubs.Store(int64(len(h.subs)))
	}
	h.mu.Unlock()
}

// closeAll disconnects every subscriber and refuses new ones.
func (h *streamHub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for sub := range h.subs {
		close(sub.ch)
		delete(h.subs, sub)
	}
	h.nsubs.Store(0)
}

func (h *streamHub) subscriberCount() int {
	return int(h.nsubs.Load())
}

func (h *streamHub) droppedCount() uint64 { return h.dropped.Load() }

// appendEvent appends the SSE frame of one point: the event line,
// then a JSON payload {"metric","tags","timestamp" (ms),"value"} laid
// out as encoding/json renders it, tags in key order as it sorts a
// map's. A NaN or infinite value has no JSON form: the frame is
// dropped and b comes back unchanged.
func appendEvent(b []byte, event string, series *tsdb.Ref, p tsdb.Point) []byte {
	n := len(b)
	b = append(append(append(b, "event: "...), event...), "\ndata: {\"metric\":"...)
	b = jsonenc.AppendString(b, series.Metric())
	b = append(b, `,"tags":{`...)
	for i, t := range series.Tags() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(jsonenc.AppendString(b, t.Key), ':')
		b = jsonenc.AppendString(b, t.Value)
	}
	b = strconv.AppendInt(append(b, `},"timestamp":`...), p.Timestamp, 10)
	out, err := jsonenc.AppendFloat(append(b, `,"value":`...), p.Value)
	if err != nil {
		return b[:n]
	}
	return append(out, "}\n\n"...)
}

// handleStream serves GET /api/stream?metric=<prefix>&tag.<k>=<v>
// [&backfill=<dur>]. Filters: metric is a prefix match; tag.* entries
// must all match ("*" accepts any present value). No filter streams
// everything. With backfill, matching points stored in the trailing
// window are replayed from the store first — streamed series by
// series through tsdb.ScanSeries, flushed as they go — as
// "event: backfill" frames, then a ": live" comment marks the switch
// to pushed events. The subscription is created before the scan and
// its buffer is drained between replayed series (those arrivals
// interleave as ordinary "event: point" frames), so a long replay
// under hot ingest keeps the same slow-consumer drop policy as the
// live stream instead of guaranteeing loss once the buffer fills;
// the seam can duplicate a point at the boundary.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	q := r.URL.Query()
	tags := map[string]string{}
	for key, vals := range q {
		if strings.HasPrefix(key, "tag.") && len(vals) > 0 {
			tags[strings.TrimPrefix(key, "tag.")] = vals[0]
		}
	}
	backfillStart := int64(-1)
	if bf := q.Get("backfill"); bf != "" {
		d, err := parseDuration(bf)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad backfill %q (want a positive duration, e.g. 15m)", bf)
			return
		}
		backfillStart = g.cfg.Now().Add(-d).UnixMilli()
	}
	sub, ok := g.hub.subscribe(q.Get("metric"), tags)
	if !ok {
		httpError(w, http.StatusServiceUnavailable, "gateway closing")
		return
	}
	defer g.hub.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprint(w, ": connected\n\n")
	flusher.Flush()
	var buf []byte // event frames, reused

	if backfillStart >= 0 {
		// drainLive forwards any live events buffered during the
		// replay so the subscription buffer cannot fill up (and start
		// dropping) while a long scan is still writing history.
		drainLive := func() {
			for {
				select {
				case rp, ok := <-sub.ch:
					if !ok {
						return // hub closed; the live loop below exits too
					}
					buf = appendEvent(buf[:0], "point", rp.Ref, rp.Point)
					w.Write(buf)
				default:
					return
				}
			}
		}
		err := g.db.ScanSeries(q.Get("metric"), tags, backfillStart, g.cfg.Now().UnixMilli(),
			func(series *tsdb.Ref, pts []tsdb.Point) error {
				if r.Context().Err() != nil {
					return r.Context().Err() // client went away mid-replay
				}
				for _, p := range pts {
					buf = appendEvent(buf[:0], "backfill", series, p)
					w.Write(buf)
				}
				flusher.Flush()
				drainLive()
				return nil
			})
		if err != nil {
			// The stream is already committed: surface the truncated
			// replay as a comment, keep the live feed running.
			fmt.Fprintf(w, ": backfill truncated: %v\n\n", err)
		}
		fmt.Fprint(w, ": live\n\n")
		flusher.Flush()
	}

	heartbeat := time.NewTicker(g.cfg.Heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			flusher.Flush()
		case rp, ok := <-sub.ch:
			if !ok {
				return // hub closed
			}
			buf = appendEvent(buf[:0], "point", rp.Ref, rp.Point)
			if len(buf) == 0 {
				continue
			}
			w.Write(buf)
			flusher.Flush()
		}
	}
}
