// Package tsdb is an embedded time-series database modeled on the
// OpenTSDB deployment the paper uses as its cloud storage ("accesses
// the data from the OpenTSDB time series database"). It stores
// measurements as (metric, tags, timestamp, value) points, compresses
// sealed blocks with Gorilla-style delta-of-delta timestamps and, per
// block, decimal-scaled integer deltas or XOR for the values (see
// gorilla.go), answers tag-filtered queries with aggregation,
// downsampling and rate conversion, and optionally persists every
// write through an append-only WAL for crash recovery.
package tsdb

import (
	"errors"
	"sort"
	"strings"
	"time"
)

// Validation errors.
var (
	ErrEmptyMetric   = errors.New("tsdb: empty metric name")
	ErrBadMetricChar = errors.New("tsdb: metric/tag may contain only [a-zA-Z0-9._/-]")
	ErrNoTags        = errors.New("tsdb: at least one tag required")
	ErrBadTimestamp  = errors.New("tsdb: timestamp outside accepted range")
)

// Point is a single measurement.
type Point struct {
	// Timestamp in milliseconds since the Unix epoch.
	Timestamp int64
	Value     float64
}

// Time converts the point's timestamp to time.Time (UTC).
func (p Point) Time() time.Time { return time.UnixMilli(p.Timestamp).UTC() }

// DataPoint is a point addressed to a series.
type DataPoint struct {
	Metric string
	Tags   map[string]string
	Point
}

// Series identifies one stored time series.
type Series struct {
	Metric string
	Tags   map[string]string
}

// Key returns the canonical series key: metric{k1=v1,k2=v2} with tags
// sorted by key — the same form OpenTSDB displays.
func (s Series) Key() string {
	return seriesKey(s.Metric, s.Tags)
}

func seriesKey(metric string, tags map[string]string) string {
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(metric)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(tags[k])
	}
	b.WriteByte('}')
	return b.String()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '/' || c == '-':
		default:
			return false
		}
	}
	return true
}

// minTS/maxTS bound accepted timestamps: years ~1970–2100 in ms.
const (
	minTS = 0
	maxTS = 4102444800000
)

// ValidTimestamp reports whether a millisecond timestamp is inside
// the store's accepted range — the per-point check every write edge
// makes; the series-shaped one is Intern's, once per new series.
func ValidTimestamp(ms int64) bool { return ms >= minTS && ms <= maxTS }

// NormalizeMillis interprets an epoch timestamp that may be in
// seconds or milliseconds: positive values before the year 2100 in
// seconds are taken as seconds and scaled to milliseconds. Every
// network edge (HTTP put/query, telnet put) routes timestamps through
// this one rule.
func NormalizeMillis(n int64) int64 {
	if n > 0 && n < maxTS/1000 {
		return n * 1000
	}
	return n
}
