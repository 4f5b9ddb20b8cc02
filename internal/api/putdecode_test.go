package api

// The /api/put decoder against the encoding/json decoder it replaced,
// which lives on here only as the reference. Run
//
//	go test -run '^$' -fuzz FuzzPutDecode ./internal/api
//
// to search for a body the two treat differently; the seed corpus
// runs in every plain `go test`.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tsdb"
)

// refPutPoint is the element shape the reference decodes into:
// reflection matches the keys, RawMessage keeps metric and tags raw.
type refPutPoint struct {
	Metric    json.RawMessage `json:"metric"`
	Timestamp refFlexInt64    `json:"timestamp"`
	Value     refFlexFloat64  `json:"value"`
	Tags      json.RawMessage `json:"tags"`
}

func refUnquoteNumber(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		inner := s[1 : len(s)-1]
		if !strings.Contains(inner, `"`) {
			return inner
		}
	}
	return s
}

type refFlexInt64 int64

func (v *refFlexInt64) UnmarshalJSON(b []byte) error {
	n, err := strconv.ParseInt(refUnquoteNumber(string(b)), 10, 64)
	if err != nil {
		return fmt.Errorf("bad integer %s", b)
	}
	*v = refFlexInt64(n)
	return nil
}

type refFlexFloat64 float64

func (v *refFlexFloat64) UnmarshalJSON(b []byte) error {
	f, err := strconv.ParseFloat(refUnquoteNumber(string(b)), 64)
	if err != nil {
		return fmt.Errorf("bad number %s", b)
	}
	*v = refFlexFloat64(f)
	return nil
}

// refDecoded is what the reference produces for one body.
type refDecoded struct {
	n        int
	pts      []tsdb.RefPoint
	failures []string
}

// refDecodePut is the reference decoder: json.Unmarshal for a single
// object, json.Decoder element by element for an array.
func refDecodePut(g *Gateway, body []byte) (refDecoded, error) {
	var d refDecoded
	i := 0
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	if i < len(body) && body[i] != '[' {
		var p refPutPoint
		if err := json.Unmarshal(body, &p); err != nil {
			return d, fmt.Errorf("bad JSON object: %v", err)
		}
		if err := d.appendPoint(g, &p, 0); err != nil {
			return d, fmt.Errorf("bad JSON object: %v", err)
		}
		d.n = 1
		return d, nil
	}
	dec := json.NewDecoder(bytes.NewReader(body[i:]))
	tok, err := dec.Token()
	if err != nil {
		return d, fmt.Errorf("bad JSON array: %v", err)
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '[' {
		return d, fmt.Errorf("bad JSON array: unexpected %v", tok)
	}
	for dec.More() {
		var p refPutPoint
		if err := dec.Decode(&p); err != nil {
			return d, fmt.Errorf("bad JSON array: %v", err)
		}
		if err := d.appendPoint(g, &p, d.n); err != nil {
			return d, fmt.Errorf("bad JSON array: %v", err)
		}
		d.n++
	}
	if _, err := dec.Token(); err != nil {
		return d, fmt.Errorf("bad JSON array: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return d, fmt.Errorf("bad JSON array: trailing data after ]")
	}
	return d, nil
}

func (d *refDecoded) appendPoint(g *Gateway, p *refPutPoint, i int) error {
	if p.Timestamp <= 0 {
		d.failures = append(d.failures, fmt.Sprintf("point %d: timestamp required", i))
		return nil
	}
	if math.IsNaN(float64(p.Value)) || math.IsInf(float64(p.Value), 0) {
		d.failures = append(d.failures, fmt.Sprintf("point %d: value must be finite", i))
		return nil
	}
	ts := normalizeMillis(int64(p.Timestamp))
	if !tsdb.ValidTimestamp(ts) {
		d.failures = append(d.failures, fmt.Sprintf("point %d: %v", i, fmt.Errorf("%w: %d", tsdb.ErrBadTimestamp, ts)))
		return nil
	}
	ref, perPoint, err := refResolveSeries(g, p)
	if err != nil {
		return err
	}
	if perPoint != nil {
		d.failures = append(d.failures, fmt.Sprintf("point %d: %v", i, perPoint))
		return nil
	}
	d.pts = append(d.pts, tsdb.RefPoint{Ref: ref, Point: tsdb.Point{Timestamp: ts, Value: float64(p.Value)}})
	return nil
}

func refResolveSeries(g *Gateway, p *refPutPoint) (ref *tsdb.Ref, perPoint, err error) {
	mraw, traw := []byte(p.Metric), []byte(p.Tags)
	if len(mraw) == 0 || string(mraw) == "null" {
		return nil, tsdb.ErrEmptyMetric, nil
	}
	if len(traw) == 0 || string(traw) == "null" {
		return nil, tsdb.ErrNoTags, nil
	}
	if bytes.IndexByte(mraw, '\\') >= 0 || bytes.IndexByte(traw, '\\') >= 0 {
		var metric string
		if uerr := json.Unmarshal(mraw, &metric); uerr != nil {
			return nil, nil, fmt.Errorf("metric must be a string")
		}
		tags := map[string]string{}
		if uerr := json.Unmarshal(traw, &tags); uerr != nil {
			return nil, nil, fmt.Errorf("tags must be an object of strings")
		}
		ref, ierr := g.db.Intern(metric, tags)
		return ref, ierr, nil
	}
	if len(mraw) < 2 || mraw[0] != '"' || mraw[len(mraw)-1] != '"' {
		return nil, nil, fmt.Errorf("metric must be a string")
	}
	kvs, serr := refScanTagsObject(traw)
	if serr != nil {
		return nil, nil, serr
	}
	ref, ierr := g.db.InternBytes(mraw[1:len(mraw)-1], kvs)
	return ref, ierr, nil
}

// refScanTagsObject is the second walk over an escape-free tags
// object the reference made after encoding/json had validated it.
func refScanTagsObject(raw []byte) ([][]byte, error) {
	errShape := fmt.Errorf("tags must be an object of strings")
	var kvs [][]byte
	i := skipJSONSpace(raw, 0)
	if i >= len(raw) || raw[i] != '{' {
		return kvs, errShape
	}
	i = skipJSONSpace(raw, i+1)
	if i < len(raw) && raw[i] == '}' {
		return kvs, nil
	}
	for {
		k, next, ok := refScanPlainJSONString(raw, i)
		if !ok {
			return kvs, errShape
		}
		i = skipJSONSpace(raw, next)
		if i >= len(raw) || raw[i] != ':' {
			return kvs, errShape
		}
		i = skipJSONSpace(raw, i+1)
		v, next, ok := refScanPlainJSONString(raw, i)
		if !ok {
			return kvs, errShape
		}
		kvs = append(kvs, k, v)
		i = skipJSONSpace(raw, next)
		switch {
		case i < len(raw) && raw[i] == ',':
			i = skipJSONSpace(raw, i+1)
		case i < len(raw) && raw[i] == '}':
			return kvs, nil
		default:
			return kvs, errShape
		}
	}
}

func refScanPlainJSONString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	j := i + 1
	for j < len(b) && b[j] != '"' {
		j++
	}
	if j >= len(b) {
		return nil, 0, false
	}
	return b[i+1 : j], j + 1, true
}

// checkPutDecode decodes body with both decoders against one store,
// so equal series resolve to the same *Ref, and fails on any
// difference: error or not (and which kind of body the error blames),
// element count, each point's ref, timestamp and value bits, and the
// per-point failure messages.
func checkPutDecode(t *testing.T, g *Gateway, body []byte) {
	t.Helper()
	want, wantErr := refDecodePut(g, body)
	sc := &putScratch{body: body}
	n, err := g.decodePutBody(sc)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("body %q:\n error %v\n reference %v", body, err, wantErr)
	}
	if err != nil {
		if kind, refKind := strings.SplitN(err.Error(), ":", 2)[0], strings.SplitN(wantErr.Error(), ":", 2)[0]; kind != refKind {
			t.Fatalf("body %q: error %q, reference %q", body, err, wantErr)
		}
		return
	}
	if n != want.n || len(sc.pts) != len(want.pts) {
		t.Fatalf("body %q: %d elements, %d points; reference %d, %d", body, n, len(sc.pts), want.n, len(want.pts))
	}
	for i, p := range sc.pts {
		w := want.pts[i]
		if p.Ref != w.Ref || p.Timestamp != w.Timestamp || math.Float64bits(p.Value) != math.Float64bits(w.Value) {
			t.Fatalf("body %q: point %d = %p %d %v, reference %p %d %v", body, i, p.Ref, p.Timestamp, p.Value, w.Ref, w.Timestamp, w.Value)
		}
	}
	if !slices.Equal(sc.failures, want.failures) {
		t.Fatalf("body %q: failures %q, reference %q", body, sc.failures, want.failures)
	}
}

// putDecodeSeeds covers what the scanner decides for itself: key
// matching, skipping, null, escapes, number shapes, whitespace,
// array framing and nesting depth.
func putDecodeSeeds() []string {
	pt := func(metric, ts, value, tags string) string {
		return `{"metric":` + metric + `,"timestamp":` + ts + `,"value":` + value + `,"tags":` + tags + `}`
	}
	ok := pt(`"air.co2"`, `1488326400`, `412.5`, `{"sensor":"n1","city":"trondheim"}`)
	seeds := []string{
		ok, "[" + ok + "]", "[" + ok + "," + ok + "]",
		// Case-folded and escaped keys; ſ folds to s as in encoding/json.
		`[{"METRIC":"air.co2","TimeStamp":1488326400,"Value":1,"TAGS":{"sensor":"a"}}]`,
		`{"\u006detric":"air.co2","time\u0073tamp":1488326400,"value":1,"t\u0061gs":{"sensor":"a"}}`,
		`{"metric":"air.co2","timeſtamp":1488326400,"value":1,"tagſ":{"sensor":"a"}}`,
		`{"metric":"air.co2","metrics":"x","timestamp":1488326400,"value":1,"tags":{"sensor":"a"}}`,
		// Unknown fields with nested values.
		`{"metric":"air.co2","x":{"a":[1,{"b":null,"c":[true,false,-1.5e-3]}],"d":{}},"timestamp":1488326400,"value":1,"tags":{"sensor":"a"},"z":[[[]]]}`,
		`[{"extra":[{"\"":"\\"}],"metric":"air.co2","timestamp":1488326400,"value":1,"tags":{"sensor":"a"}}]`,
		// Null and empty elements and fields.
		`[null]`, `null`, `{}`, `[{}]`, `[null,{},null]`,
		pt(`null`, `1488326400`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `1`, `null`),
		pt(`"air.co2"`, `null`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `null`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `1`, `{}`),
		// Repeated keys: the last one counts.
		`{"metric":"a","metric":"air.co2","tags":{"x":"y"},"timestamp":1,"timestamp":1488326400,"value":1,"tags":{"sensor":"a"}}`,
		`{"metric":"air.co2","timestamp":1488326400,"value":1,"tags":{"sensor":"a"},"tags":null}`,
		`{"metric":"air.co2","timestamp":1488326400,"value":1,"tags":{"sensor":"a"},"tags":{"sensor":1}}`,
		// Wrong shapes.
		pt(`5`, `1488326400`, `1`, `{"sensor":"a"}`),
		pt(`{"a":"b"}`, `1488326400`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `1`, `{"sensor":1}`),
		pt(`"air.co2"`, `1488326400`, `1`, `{"sensor":{"a":"b"}}`),
		pt(`"air.co2"`, `1488326400`, `1`, `["sensor"]`),
		pt(`"air.co2"`, `1488326400`, `1`, `"sensor"`),
		pt(`"air.co2"`, `{}`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `[1]`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `true`, `1`, `{"sensor":"a"}`),
		pt(`"bad metric!"`, `1488326400`, `1`, `{"sensor":"a"}`),
		pt(`""`, `1488326400`, `1`, `{"sensor":"a"}`),
		`[1]`, `["x"]`, `[true]`, `[[]]`, `"x"`, `5`, `true`, `[{}, 5]`,
		// Escaped metric and tag values take the stdlib route.
		pt(`"air.\u0063o2"`, `1488326400`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `1`, `{"sensor":"a\/b"}`),
		pt(`"air.co2"`, `1488326400`, `1`, `{"sen\u0073or":"a"}`),
		pt(`"air.co2"`, `1488326400`, `1`, `{"sensor":"\n"}`),
		pt(`"air\"co2"`, `1488326400`, `1`, `{"sensor":"a"}`),
		pt(`"air.\u0063o2"`, `1488326400`, `1`, `{"sensor":null}`),
		pt(`"air.\u0063o2"`, `1488326400`, `1`, `{"a":"b","a":"c"}`),
		pt(`"air.co2"`, `1488326400`, `1`, `{"a":"b","a":"c"}`),
		pt(`5`, `1488326400`, `1`, `{"sensor":"\t"}`),
		// Bad strings.
		pt(`"air.co2`+"\x01"+`"`, `1488326400`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2`+"\x1f"+`"`, `1488326400`, `1`, `{"sensor":"a"}`),
		pt(`"air co2`+"\x7f"+`"`, `1488326400`, `1`, `{"sensor":"a"}`),
		pt(`"air.\u00g3o2"`, `1488326400`, `1`, `{"sensor":"a"}`),
		pt(`"air.\xo2"`, `1488326400`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2`+"\xff\xfe"+`"`, `1488326400`, `1`, `{"sensor":"`+"\xc3"+`"}`),
		// Numbers.
		pt(`"air.co2"`, `"1488326400"`, `"412.5"`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `"+1488326400"`, `"+5"`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `+5`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `"NaN"`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `"Inf"`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `"-infinity"`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `1e3`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `1E+400`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `"0x1p-2"`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `"1_000"`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `"5."`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `".5"`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `"007.50"`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `-0`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `-0.000`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `999999999999.999`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `9999999999999.999`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `0.1000000000000001`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `12345678901234567890`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `01`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `1.`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `-`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400`, `1e`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `-0`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1e3`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1488326400.0`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `-1488326400`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `999999999999999999`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `1000000000000000000`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `"0001488326400000"`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `9223372036854775807`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `9223372036854775808`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `"14883\u00326400"`, `1`, `{"sensor":"a"}`),
		pt(`"air.co2"`, `4102444800`, `1`, `{"sensor":"a"}`),
		// Whitespace everywhere, and array framing.
		" \t\n[ \r{ \"metric\" : \"air.co2\" ,\n\"timestamp\"\t:\t1488326400 , \"value\" : 1 , \"tags\" : { \"sensor\" : \"a\" , \"city\" : \"b\" } } , null ] \r\n",
		ok + " \n\t", ok + " x", ok + ok, "[" + ok + ",]", "[" + ok + "] x", "[" + ok + "]]", "[" + ok + "] []",
		"[" + ok + " " + ok + "]", "[," + ok + "]", "[" + ok, "[", "]", "[]", " [ ] ", "[] ,", "", " \n", "{", "nul", "[nul]", "[nullx]",
		"\ufeff" + ok,
	}
	// Every TestFlexStrictQuoting token, as timestamp and as value.
	for _, c := range flexQuotingCases {
		seeds = append(seeds,
			pt(`"air.co2"`, c.raw, `1`, `{"sensor":"a"}`),
			pt(`"air.co2"`, `1488326400`, c.raw, `{"sensor":"a"}`))
	}
	// Deep nesting, at and one past encoding/json's limit of 10000
	// levels counted from the element.
	for _, k := range []int{maxJSONDepth - 1, maxJSONDepth} {
		nest := strings.Repeat("[", k) + strings.Repeat("]", k)
		seeds = append(seeds,
			`{"x":`+nest+`,"metric":"air.co2","timestamp":1488326400,"value":1,"tags":{"sensor":"a"}}`,
			`[{"x":`+nest+`}]`,
			pt(`"air.co2"`, `1488326400`, `1`, `{"sensor":`+nest[1:len(nest)-1]+`}`))
	}
	seeds = append(seeds, string(decodeBenchBody()))
	return seeds
}

func FuzzPutDecode(f *testing.F) {
	for _, s := range putDecodeSeeds() {
		f.Add([]byte(s))
	}
	db, err := tsdb.Open("")
	if err != nil {
		f.Fatal(err)
	}
	g := newGateway(db, nil, Config{})
	f.Cleanup(func() {
		g.Close()
		db.Close()
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkPutDecode(t, g, body)
	})
}

// decodeBenchBody is a 100-point batch shaped like ctt-bench's
// ingest_backfill fan-out: four metrics, one sensor tag, 13-digit
// millisecond timestamps and three-decimal values.
func decodeBenchBody() []byte {
	metrics := [...]string{"air.co2", "air.no2", "node.battery", "traffic.jamfactor"}
	b := []byte{'['}
	for i := 0; i < 100; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"metric":"%s","timestamp":%d,"value":%d.%03d,"tags":{"sensor":"bf-%06d"}}`,
			metrics[i%len(metrics)], 1488326400000+int64(i)*1000, 100+i*7%900, i*104729%1000, i*37%500)
	}
	return append(b, ']')
}

// BenchmarkDecodePut is the decode of one 100-point batch into
// interned RefPoints, series already known: the per-request cost of
// /api/put before the queue. Zero allocations per batch is asserted,
// not just reported.
func BenchmarkDecodePut(b *testing.B) {
	db, err := tsdb.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	g := newGateway(db, nil, Config{})
	defer g.Close()
	sc := &putScratch{body: decodeBenchBody()}
	decode := func() {
		sc.reset()
		if n, err := g.decodePutBody(sc); err != nil || n != 100 || len(sc.pts) != 100 {
			b.Fatalf("decoded %d elements, %d points: %v %q", n, len(sc.pts), err, sc.failures)
		}
	}
	decode() // intern the series, grow the scratch
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		b.Fatalf("%.1f allocations per decoded batch, want 0", allocs)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(sc.body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}
