package main

// Verification built into every run: written series read back from
// primary and follower, structural checks on every query answer, and
// hourly downsamples recomputed from raw points.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
)

// querySeries is one element of an /api/query answer.
type querySeries struct {
	Metric string             `json:"metric"`
	Tags   map[string]string  `json:"tags"`
	DPS    map[string]float64 `json:"dps"`
}

// pointsOf returns the series' points in timestamp order.
func (qs *querySeries) pointsOf() (ts []int64, vs []float64, err error) {
	ts = make([]int64, 0, len(qs.DPS))
	for k := range qs.DPS {
		t, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad dps key %q", k)
		}
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	vs = make([]float64, len(ts))
	for i, t := range ts {
		vs[i] = qs.DPS[strconv.FormatInt(t, 10)]
	}
	return ts, vs, nil
}

// fetchQuery runs one identity-encoded query on a fresh connection and
// decodes the whole answer. It is the slow, thorough path used outside
// the measured window.
func fetchQuery(addr string, startMS, endMS int64, m string) ([]querySeries, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.roundTrip(getRequest(queryPath(startMS, endMS, m), "identity"))
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("query %s: status %d: %.200s", m, status, body)
	}
	var out []querySeries
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("query %s: %w", m, err)
	}
	return out, nil
}

// written is one series the harness wrote and what was acknowledged.
type written struct {
	metric, sensor string
	seriesStats
}

// verifyWritten reads each series back raw from every address and
// fails it unless count, first and last timestamp and the value sum
// (in thousandths, so the comparison is exact) match what was acked.
func verifyWritten(addrs map[string]string, series []written, fails *failureLog) (checks int) {
	for _, w := range series {
		for who, addr := range addrs {
			checks++
			m := fmt.Sprintf("sum:%s{sensor=%s}", w.metric, w.sensor)
			got, err := fetchQuery(addr, w.firstMS, w.lastMS, m)
			if err != nil {
				fails.add("%s read-back %s: %v", who, m, err)
				continue
			}
			if len(got) != 1 {
				fails.add("%s read-back %s: %d series, want 1", who, m, len(got))
				continue
			}
			ts, vs, err := got[0].pointsOf()
			if err != nil {
				fails.add("%s read-back %s: %v", who, m, err)
				continue
			}
			var sum uint64
			for _, v := range vs {
				sum += uint64(math.Round(v * 1000))
			}
			if len(ts) != w.count || ts[0] != w.firstMS || ts[len(ts)-1] != w.lastMS || sum != w.sumMilli {
				fails.add("%s read-back %s: got %d points [%d..%d] sum %d, acked %d [%d..%d] sum %d",
					who, m, len(ts), ts[0], ts[len(ts)-1], sum, w.count, w.firstMS, w.lastMS, w.sumMilli)
			}
		}
	}
	return checks
}

var (
	seriesOpen = []byte(`{"metric":`)
	emptyDPS   = []byte(`"dps":{}`)
	errorElem  = []byte(`{"error":`)
)

// checkQueryBody is the check every measured query answer gets. A full
// JSON decode of each would cost the generator more CPU than the
// server spends answering, so it looks at structure only: a closed
// array, the expected number of series, no empty dps, no truncation
// marker. Sampled answers are decoded in full elsewhere.
func checkQueryBody(plain []byte, wantSeries int) string {
	switch {
	case len(plain) < 2 || plain[0] != '[' || plain[len(plain)-1] != ']':
		return "answer is not a closed JSON array"
	case bytes.Contains(plain, errorElem):
		return "answer carries a truncation marker"
	case bytes.Contains(plain, emptyDPS):
		return "answer has a series with empty dps"
	}
	if n := bytes.Count(plain, seriesOpen); n != wantSeries {
		return fmt.Sprintf("%d series, want %d", n, wantSeries)
	}
	return ""
}

// bodyHash fingerprints an answer so repeats of one question can be
// compared without keeping the bodies.
func bodyHash(plain []byte) uint64 {
	h := fnv.New64a()
	h.Write(plain) // a hash.Hash never fails to write
	return h.Sum64()
}

// history is the pilot's raw data for the metrics the query workloads
// read, fetched once outside the window: per metric, per sensor, the
// sorted timestamps. It tells how many series any range must return.
type history map[string]map[string][]int64

func fetchHistory(addr string, metrics []string) (history, error) {
	h := history{}
	for _, metric := range metrics {
		got, err := fetchQuery(addr, pilotStart.UnixMilli(), t0.UnixMilli(), "avg:"+metric+"{sensor=*}")
		if err != nil {
			return nil, err
		}
		h[metric] = map[string][]int64{}
		for i := range got {
			ts, _, err := got[i].pointsOf()
			if err != nil {
				return nil, err
			}
			h[metric][got[i].Tags["sensor"]] = ts
		}
	}
	return h, nil
}

// seriesIn counts the sensors of metric with at least one point in
// [startMS, endMS].
func (h history) seriesIn(metric string, startMS, endMS int64) int {
	n := 0
	for _, ts := range h[metric] {
		i := sort.Search(len(ts), func(i int) bool { return ts[i] >= startMS })
		if i < len(ts) && ts[i] <= endMS {
			n++
		}
	}
	return n
}

// verifyHourlyFold checks one avg:1h-avg:<metric>{sensor=*} answer
// against a fold of the raw points of the same range computed here:
// per sensor, one bucket per epoch-aligned hour holding the mean of the
// points inside it, stamped with the hour's start.
func verifyHourlyFold(addr, metric string, startMS, endMS int64) error {
	const hourMS = 3600_000
	down, err := fetchQuery(addr, startMS, endMS, "avg:1h-avg:"+metric+"{sensor=*}")
	if err != nil {
		return err
	}
	raw, err := fetchQuery(addr, startMS, endMS, "avg:"+metric+"{sensor=*}")
	if err != nil {
		return err
	}
	if len(down) != len(raw) || len(raw) == 0 {
		return fmt.Errorf("1h-avg returned %d series, raw %d", len(down), len(raw))
	}
	want := map[string]map[int64]float64{}
	for i := range raw {
		ts, vs, err := raw[i].pointsOf()
		if err != nil {
			return err
		}
		sum, cnt := map[int64]float64{}, map[int64]float64{}
		for j, t := range ts {
			b := t - t%hourMS
			sum[b] += vs[j]
			cnt[b]++
		}
		for b := range sum {
			sum[b] /= cnt[b]
		}
		want[raw[i].Tags["sensor"]] = sum
	}
	for i := range down {
		sensor := down[i].Tags["sensor"]
		ts, vs, err := down[i].pointsOf()
		if err != nil {
			return err
		}
		w := want[sensor]
		if len(ts) != len(w) {
			return fmt.Errorf("sensor %s: %d hourly buckets, naive fold has %d", sensor, len(ts), len(w))
		}
		for j, t := range ts {
			if ref, ok := w[t]; !ok || math.Abs(ref-vs[j]) > 1e-9*math.Max(1, math.Abs(ref)) {
				return fmt.Errorf("sensor %s bucket %d: got %v, naive fold %v", sensor, t, vs[j], ref)
			}
		}
	}
	return nil
}
