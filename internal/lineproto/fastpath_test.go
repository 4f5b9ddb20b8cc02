package lineproto

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tsdb"
)

// ParseLine is the reference the zero-copy parser is held to: the same
// grammar written the plain way — strings, a tag map, a DataPoint —
// with the same error messages. The series is checked by interning it
// into db, a store of the reference's own. Only tests use it.
func ParseLine(db *tsdb.DB, line string) (tsdb.DataPoint, error) {
	var dp tsdb.DataPoint
	// The protocol is ASCII: only ASCII whitespace separates fields,
	// so a Unicode space (U+0085, U+00A0) stays inside its field.
	fields := strings.FieldsFunc(line, func(r rune) bool { return strings.ContainsRune(" \t\n\v\f\r", r) })
	if len(fields) == 0 || fields[0] != "put" {
		return dp, fmt.Errorf("unknown command %q (want: put <metric> <ts> <value> <tag=value> ...)", firstWordBytes([]byte(line)))
	}
	if len(fields) < 5 {
		return dp, fmt.Errorf("put needs metric, timestamp, value and at least one tag (got %d fields)", len(fields)-1)
	}
	ts, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return dp, fmt.Errorf("bad timestamp %q", fields[2])
	}
	if ts <= 0 {
		return dp, fmt.Errorf("timestamp must be positive, got %q", fields[2])
	}
	val, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return dp, fmt.Errorf("bad value %q", fields[3])
	}
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return dp, fmt.Errorf("value must be finite, got %q", fields[3])
	}
	tags := make(map[string]string, len(fields)-4)
	for _, kv := range fields[4:] {
		eq := strings.IndexByte(kv, '=')
		if eq <= 0 || eq == len(kv)-1 {
			return dp, fmt.Errorf("bad tag %q (want key=value)", kv)
		}
		tags[kv[:eq]] = kv[eq+1:]
	}
	// A point outside the store's range is refused before its series
	// is resolved, so it never interns one: of a bad timestamp and a
	// bad series, the timestamp is reported.
	tsMS := tsdb.NormalizeMillis(ts)
	if !tsdb.ValidTimestamp(tsMS) {
		return dp, fmt.Errorf("%w: %d", tsdb.ErrBadTimestamp, tsMS)
	}
	dp = tsdb.DataPoint{
		Metric: fields[1],
		Tags:   tags,
		Point:  tsdb.Point{Timestamp: tsMS, Value: val},
	}
	if _, err := db.Intern(dp.Metric, dp.Tags); err != nil {
		return dp, err
	}
	return dp, nil
}

// fastPathLines are TestParsePutFastMatchesParseLine's table; they
// also seed FuzzParsePutLine.
var fastPathLines = []string{
	"put air.co2 1488326400 415.5 sensor=n01 city=trondheim",
	"put air.co2 1488326400123 415.5 sensor=n01", // already milliseconds
	"put air.co2 1488326400 -3.25 a=b",
	"get air.co2 1 2 a=b",
	"put air.co2",
	"put air.co2 notatime 415 a=b",
	"put air.co2 -5 415 a=b",
	"put air.co2 1488326400 notanumber a=b",
	"put air.co2 1488326400 NaN a=b",
	"put air.co2 1488326400 415 badtag",
	"put air.co2 1488326400 415 =v",
	"put air.co2 1488326400 415 k=",
	"put air.c$2 1488326400 415 a=b", // invalid metric char
	"put air.co2 1488326400 415 a=b c=",
}

// comparePutParsers parses line with both parsers — the reference
// interning into its own store, ref — and fails t unless they agree on
// the verdict, the exact error message, and the metric, tags,
// timestamp and value bits of an accepted point.
func comparePutParsers(t *testing.T, s *Server, st *connState, ref *tsdb.DB, line string) {
	t.Helper()
	st.refs = st.refs[:0]
	fastErr := s.parsePutFast([]byte(line), st)
	dp, slowErr := ParseLine(ref, line)
	if (fastErr == nil) != (slowErr == nil) {
		t.Fatalf("%q: fast err=%v, slow err=%v", line, fastErr, slowErr)
	}
	if fastErr != nil {
		if fastErr.Error() != slowErr.Error() {
			t.Fatalf("%q: message diverged:\n fast: %v\n slow: %v", line, fastErr, slowErr)
		}
		return
	}
	if len(st.refs) != 1 {
		t.Fatalf("%q: fast path produced %d points", line, len(st.refs))
	}
	rp := st.refs[0]
	if rp.Ref.Metric() != dp.Metric || rp.Point.Timestamp != dp.Timestamp ||
		math.Float64bits(rp.Point.Value) != math.Float64bits(dp.Value) {
		t.Fatalf("%q: fast point %+v (metric %s) != slow %+v", line, rp.Point, rp.Ref.Metric(), dp)
	}
	tags := rp.Ref.Tags()
	if len(tags) != len(dp.Tags) {
		t.Fatalf("%q: fast tags %v != slow %v", line, tags, dp.Tags)
	}
	for k, v := range dp.Tags {
		if tags[k] != v {
			t.Fatalf("%q: fast tags %v != slow %v", line, tags, dp.Tags)
		}
	}
}

// openSink opens an in-memory store behind a benchSink.
func openSink(tb testing.TB) *benchSink {
	tb.Helper()
	db, err := tsdb.Open("")
	if err != nil {
		tb.Fatal(err)
	}
	return &benchSink{db: db}
}

// TestParsePutFastMatchesParseLine: the zero-copy parser and the
// reference string parser agree on every accepted point and every
// rejection message, line for line.
func TestParsePutFastMatchesParseLine(t *testing.T) {
	sink, ref := openSink(t), openSink(t)
	defer sink.db.Close()
	defer ref.db.Close()
	s, st := New(sink, Config{}), &connState{}
	for _, line := range fastPathLines {
		comparePutParsers(t, s, st, ref.db, line)
	}
}

// FuzzParsePutLine holds the zero-copy parser to the reference on
// arbitrary lines. Series interned by earlier inputs stay in the
// stores, so a line can also hit a series another line created; the
// stores are replaced every 10000 inputs to bound a long run's memory.
func FuzzParsePutLine(f *testing.F) {
	for _, g := range parseLineGood {
		f.Add(g.line)
	}
	for _, line := range parseLineBad {
		f.Add(line)
	}
	for _, line := range fastPathLines {
		f.Add(line)
	}
	for _, line := range []string{
		"put\tair.co2\t1488326400\t415\tsensor=n01",
		"put air.co2 1488326400 415 sensor=n01\r",
		"put air.co2 1488326400 415 sensor=n01\r\n",
		"put  air.co2   1488326400    415     sensor=n01",
		"put air.co2 1488326400 415 sensor=a=b",
		"put air.co2 1488326400 415 sensor==b",
		"put air.co2 1488326400 415 a=c x=y",
		"put air.co2 1488326400 415 a=c a=c",
		"put air.co2 1488326400 415 a=b a=c",
		"put air.co2 1488326400000000000 415 sensor=n01",
		"put air.co2 9223372036854775807 415 sensor=n01",
		"put air.co2 9223372036854775808 415 sensor=n01",
		"put air.c$2 9223372036854775807 415 sensor=n01",
		"put air.co2 1488326400 -0 sensor=n01",
		"put air.co2 1488326400 0x1p-2 sensor=n01",
		"put air.co2 1488326400 1e400 sensor=n01",
		"put",
		"",
	} {
		f.Add(line)
	}
	sink, ref := openSink(f), openSink(f)
	f.Cleanup(func() {
		sink.db.Close()
		ref.db.Close()
	})
	s, st := New(sink, Config{}), &connState{}
	inputs := 0
	f.Fuzz(func(t *testing.T, line string) {
		if inputs++; inputs%10000 == 0 {
			for _, db := range []*benchSink{sink, ref} {
				db.db.Close()
				db.db = openSink(t).db
			}
		}
		comparePutParsers(t, s, st, ref.db, line)
	})
}
