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
	"cmp"
	"errors"
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

// appendKey appends the series' display form, metric{k1=v1,k2=v2}
// with tags sorted by key — the form OpenTSDB displays.
func appendKey(b []byte, metric string, tags []Tag) []byte {
	b = append(append(b, metric...), '{')
	for i, t := range tags {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, t.Key...), '='), t.Value...)
	}
	return append(b, '}')
}

// compareSeries orders two series as their display forms (appendKey)
// compare bytewise, without building them: the order query members,
// ScanSeries and plan notes list series in. Comparing tag by tag would
// order differently, because the separators sort apart from name
// bytes: value s10 sorts before s1 where "}" follows, key k2 before k
// where "=" follows, metric a.b before a where "{" follows. Every
// series carries a tag (interning refuses any other).
func compareSeries(a, b *Ref) int {
	if c := compareName(a.metric, '{', b.metric, '{'); c != 0 {
		return c
	}
	for i := 0; i < len(a.pairs) && i < len(b.pairs); i++ {
		x, y := a.pairs[i], b.pairs[i]
		if c := compareName(x.Key, '=', y.Key, '='); c != 0 {
			return c
		}
		if c := compareName(x.Value, tagEnd(a.pairs, i), y.Value, tagEnd(b.pairs, i)); c != 0 {
			return c
		}
	}
	return 0 // the last tags ended both forms with "}"
}

// compareName compares two names, each followed by its separator
// byte, bytewise; names never contain a separator.
func compareName(x string, xsep byte, y string, ysep byte) int {
	n := min(len(x), len(y))
	if c := strings.Compare(x[:n], y[:n]); c != 0 {
		return c
	}
	if len(x) > n {
		xsep = x[n]
	}
	if len(y) > n {
		ysep = y[n]
	}
	return cmp.Compare(xsep, ysep)
}

// tagEnd is the byte that follows tag i's value in a display form.
func tagEnd(tags []Tag, i int) byte {
	if i == len(tags)-1 {
		return '}'
	}
	return ','
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
