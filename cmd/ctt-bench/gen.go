package main

// Input generation. Put requests are rendered once as complete HTTP
// requests whose sensor, timestamp and value fields have a fixed width
// and are overwritten in place before each send, so producing a
// 100-point batch costs a few hundred byte stores and the request
// length never changes. Every choice the generators make comes from
// the run's seed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strconv"
	"time"
)

// The pilot clock: ctt-server -days 7 starts its history at pilotStart
// and, with -tick 0, stays frozen at t0.
var (
	pilotStart = time.Date(2017, time.March, 1, 0, 0, 0, 0, time.UTC)
	t0         = pilotStart.Add(7 * 24 * time.Hour)
)

// pilotMetrics are the four series families the writers use: the
// pilot's own names, so generated points land in the same metric
// indexes dashboards read.
var pilotMetrics = [4]string{"air.co2", "air.no2", "node.battery", "traffic.jamfactor"}

const (
	batchPoints = 100
	sensorWidth = 6  // digits of a sensor number: "bf-000123"
	tsWidth     = 13 // digits of a millisecond timestamp until 2286
	valueWidth  = 7  // "ddd.ddd"
	canaryWidth = 10 // digits of a canary value: 1e9 + µs since run start
	canaryBase  = 1_000_000_000
)

// point locates one data point's patchable fields inside a rendered
// request. sensor is -1 when the sensor is fixed at render time.
type point struct {
	sensor, ts, value int
}

// putTemplate is one complete POST /api/put request.
type putTemplate struct {
	req     []byte
	bodyOff int // where the JSON body starts in req
	points  []point
	// canary, when set, locates the trailing canary.freshness point's
	// timestamp and integer value.
	canaryTS, canaryValue int
}

// putDigits writes v right-aligned and zero-padded into b[off:off+width].
func putDigits(b []byte, off, width int, v uint64) {
	for i := off + width - 1; i >= off; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
}

// putValue writes milli, 100000..999999, as "ddd.ddd": three decimals,
// never a leading zero, which JSON numbers do not allow.
func putValue(b []byte, off int, milli uint64) {
	putDigits(b, off, 3, milli/1000)
	b[off+3] = '.'
	putDigits(b, off+4, 3, milli%1000)
}

// valueMilli is the value, in thousandths, of sample k of series s. It
// is a pure function so the verifier can recompute any point.
func valueMilli(s, k int) uint64 {
	return 100000 + uint64(s*7919+k*104729)%800000
}

// renderPut builds a request of len(metrics) points. metrics[i] names
// point i's metric; sensors[i] >= 0 fixes its sensor number, -1 leaves
// it patchable. prefix is the sensor name prefix ("bf-", "live-").
func renderPut(prefix string, metrics []string, sensors []int, canary bool) *putTemplate {
	t := &putTemplate{points: make([]point, len(metrics))}
	body := []byte{'['}
	for i, m := range metrics {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"metric":"`...)
		body = append(body, m...)
		body = append(body, `","timestamp":`...)
		t.points[i].ts = len(body)
		body = append(body, "0000000000000"[:tsWidth]...)
		body = append(body, `,"value":`...)
		t.points[i].value = len(body)
		body = append(body, "100.000"[:valueWidth]...)
		body = append(body, `,"tags":{"sensor":"`...)
		body = append(body, prefix...)
		t.points[i].sensor = len(body)
		body = append(body, "000000"[:sensorWidth]...)
		body = append(body, `"}}`...)
		if sensors[i] >= 0 {
			putDigits(body, t.points[i].sensor, sensorWidth, uint64(sensors[i]))
			t.points[i].sensor = -1
		}
	}
	if canary {
		body = append(body, `,{"metric":"canary.freshness","timestamp":`...)
		t.canaryTS = len(body)
		body = append(body, "0000000000000"[:tsWidth]...)
		body = append(body, `,"value":`...)
		t.canaryValue = len(body)
		body = append(body, "1000000000"[:canaryWidth]...)
		body = append(body, `,"tags":{"sensor":"canary"}}`...)
	}
	body = append(body, ']')
	head := "POST /api/put HTTP/1.1\r\nHost: ctt-bench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n"
	t.req = append([]byte(head), body...)
	off := len(head)
	t.bodyOff = off
	for i := range t.points {
		t.points[i].ts += off
		t.points[i].value += off
		if t.points[i].sensor >= 0 {
			t.points[i].sensor += off
		}
	}
	if canary {
		t.canaryTS += off
		t.canaryValue += off
	}
	return t
}

// body returns the JSON body of the rendered request.
func (t *putTemplate) body() []byte { return t.req[t.bodyOff:] }

// seriesStats is what the harness knows it was acknowledged for one
// series, to be compared with what the servers return.
type seriesStats struct {
	count           int
	firstMS, lastMS int64
	sumMilli        uint64
}

func (s *seriesStats) add(tsMS int64, milli uint64) {
	if s.count == 0 {
		s.firstMS = tsMS
	}
	s.count++
	s.lastMS = tsMS
	s.sumMilli += milli
}

// --- ingest_backfill ---------------------------------------------------

const (
	backfillSensors = 500
	backfillSeries  = backfillSensors * len(pilotMetrics)
	churnEvery      = 50
)

// backfillBatch describes one generated batch: enough to patch the
// request, to hash the schedule and to credit the series on its ack.
type backfillBatch struct {
	tmpl *putTemplate
	// series[i] is point i's series index (metric*backfillSensors +
	// sensor, or >= backfillSeries for a churn series) and k[i] its
	// sample number within that series.
	series [batchPoints]int
	k      [batchPoints]int
}

// backfillGen produces one worker's closed-loop batch sequence. Worker
// w of n owns the sensors whose number is w mod n, so each series is
// only ever written over one connection and its points stay ordered.
type backfillGen struct {
	worker, workers int
	own             []int                           // owned series, shuffled by the seed
	groups          [][]int                         // owned series chunked into fan-out batches
	cursor          []int                           // next sample number per fixed series
	tmplSeries      [len(pilotMetrics)]*putTemplate // one series x 100 s
	tmplFanout      []*putTemplate                  // 100 series x 1 s, per group
	i, nextSeries   int
	nextGroup       int
	churned         int
}

func newBackfillGen(seed int64, worker, workers int) *backfillGen {
	g := &backfillGen{worker: worker, workers: workers, cursor: make([]int, backfillSeries)}
	for s := 0; s < backfillSeries; s++ {
		if (s%backfillSensors)%workers == worker {
			g.own = append(g.own, s)
		}
	}
	rng := rand.New(rand.NewSource(seed*31 + int64(worker)))
	rng.Shuffle(len(g.own), func(a, b int) { g.own[a], g.own[b] = g.own[b], g.own[a] })
	for m, name := range pilotMetrics {
		metrics := make([]string, batchPoints)
		sensors := make([]int, batchPoints)
		for i := range metrics {
			metrics[i], sensors[i] = name, -1
		}
		g.tmplSeries[m] = renderPut("bf-", metrics, sensors, false)
	}
	for lo := 0; lo+batchPoints <= len(g.own); lo += batchPoints {
		group := g.own[lo : lo+batchPoints]
		metrics := make([]string, batchPoints)
		sensors := make([]int, batchPoints)
		for i, s := range group {
			metrics[i], sensors[i] = pilotMetrics[s/backfillSensors], s%backfillSensors
		}
		g.groups = append(g.groups, group)
		g.tmplFanout = append(g.tmplFanout, renderPut("bf-", metrics, sensors, false))
	}
	return g
}

// next fills b with the worker's next batch and patches its template.
// The sequence is: every churnEvery-th batch a never-seen sensor,
// otherwise alternately 100 consecutive seconds of one series and one
// second of 100 series.
func (g *backfillGen) next(b *backfillBatch) {
	i := g.i
	g.i++
	base := pilotStart.UnixMilli()
	switch {
	case i%churnEvery == churnEvery-1:
		// Churn sensors are numbered past the fixed population and
		// interleaved across workers so no two workers mint the same one.
		sensor := backfillSensors + g.churned*g.workers + g.worker
		metric := g.churned % len(pilotMetrics)
		g.churned++
		g.fillSeries(b, backfillSeries+sensor*len(pilotMetrics)+metric, metric, sensor, 0, base)
	case (i-i/churnEvery)%2 == 0:
		s := g.own[g.nextSeries%len(g.own)]
		g.nextSeries++
		k := g.cursor[s]
		g.cursor[s] = k + batchPoints
		g.fillSeries(b, s, s/backfillSensors, s%backfillSensors, k, base)
	default:
		gi := g.nextGroup % len(g.groups)
		g.nextGroup++
		b.tmpl = g.tmplFanout[gi]
		for i, s := range g.groups[gi] {
			k := g.cursor[s]
			g.cursor[s] = k + 1
			b.series[i], b.k[i] = s, k
			pt := b.tmpl.points[i]
			putDigits(b.tmpl.req, pt.ts, tsWidth, uint64(base+int64(k)*1000))
			putValue(b.tmpl.req, pt.value, valueMilli(s, k))
		}
	}
}

// fillSeries patches the one-series template for samples k..k+99.
func (g *backfillGen) fillSeries(b *backfillBatch, series, metric, sensor, k int, base int64) {
	b.tmpl = g.tmplSeries[metric]
	for i := range b.tmpl.points {
		b.series[i], b.k[i] = series, k+i
		pt := b.tmpl.points[i]
		putDigits(b.tmpl.req, pt.sensor, sensorWidth, uint64(sensor))
		putDigits(b.tmpl.req, pt.ts, tsWidth, uint64(base+int64(k+i)*1000))
		putValue(b.tmpl.req, pt.value, valueMilli(series, k+i))
	}
}

// backfillSeriesName returns the metric and sensor tag of a series
// index produced by backfillGen.
func backfillSeriesName(series int) (metric, sensor string) {
	if series >= backfillSeries {
		rest := series - backfillSeries
		return pilotMetrics[rest%len(pilotMetrics)], fmt.Sprintf("bf-%06d", rest/len(pilotMetrics))
	}
	return pilotMetrics[series/backfillSensors], fmt.Sprintf("bf-%06d", series%backfillSensors)
}

// --- schedule hashing --------------------------------------------------

// scheduleHash accumulates op descriptors; two runs with one seed must
// end with the same sum, which shows they sent identical inputs.
type scheduleHash struct{ h hash.Hash }

func newScheduleHash() *scheduleHash { return &scheduleHash{h: sha256.New()} }

func (s *scheduleHash) add(format string, args ...any) {
	fmt.Fprintf(s.h, format, args...) // a hash.Hash never fails to write
	s.h.Write([]byte{'\n'})
}

func (s *scheduleHash) sum() string { return hex.EncodeToString(s.h.Sum(nil))[:16] }

// hashedBackfillBatches is how many leading batches per worker go into
// the ingest_backfill schedule hash; warm-up and window send several
// times this, so the hash covers inputs that were really sent.
const hashedBackfillBatches = 1024

// backfillScheduleSHA replays the first batches of every worker's
// generator on a scratch copy and hashes what they would send.
func backfillScheduleSHA(seed int64, workers int) string {
	sh := newScheduleHash()
	var b backfillBatch
	for w := 0; w < workers; w++ {
		g := newBackfillGen(seed, w, workers)
		for i := 0; i < hashedBackfillBatches; i++ {
			g.next(&b)
			sh.add("%d %x", w, sha256.Sum256(b.tmpl.req))
		}
	}
	return sh.sum()
}
