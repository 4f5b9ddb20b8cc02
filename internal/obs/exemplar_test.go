package obs

import (
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestObserveExemplar(t *testing.T) {
	h := newHistogram("ctt_q", "", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "aaaaaaaaaaaaaaaa")
	h.ObserveExemplar(0.5, "bbbbbbbbbbbbbbbb")
	h.ObserveExemplar(0.6, "cccccccccccccccc") // replaces b's slot
	h.ObserveExemplar(5, "")                   // no trace: counts, no exemplar

	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	s := h.snapshot()
	if ex := s.exemplars[0]; ex == nil || ex.TraceID != "aaaaaaaaaaaaaaaa" || ex.Value != 0.05 {
		t.Fatalf("bucket 0 exemplar = %+v", s.exemplars[0])
	}
	if ex := s.exemplars[1]; ex == nil || ex.TraceID != "cccccccccccccccc" {
		t.Fatalf("bucket 1 exemplar not last-writer-wins: %+v", s.exemplars[1])
	}
	if s.exemplars[2] != nil {
		t.Fatalf("+Inf bucket grew an exemplar from empty trace ID: %+v", s.exemplars[2])
	}

	var nilH *Histogram
	nilH.ObserveExemplar(1, "x") // must not panic
}

// omExemplarLine pins the OpenMetrics exemplar syntax this package
// emits: bucket line, then " # {trace_id=\"...\"} value unix_ts".
var omExemplarLine = regexp.MustCompile(
	`^ctt_q_bucket\{le="[^"]+"\} \d+ # \{trace_id="[0-9a-f]{16}"\} [0-9.eE+-]+ \d+\.\d{3}$`)

func TestExposeOpenMetricsExemplars(t *testing.T) {
	r := NewRegistry()
	r.Counter("ctt_reqs_total").Inc()
	h := r.Histogram("ctt_q", "", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "0123456789abcdef")
	h.Observe(0.2)

	om := string(r.ExposeOpenMetrics())
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatalf("OpenMetrics body missing # EOF terminator:\n%s", om)
	}
	var exemplars int
	for _, line := range strings.Split(om, "\n") {
		if strings.Contains(line, "trace_id") {
			exemplars++
			if !omExemplarLine.MatchString(line) {
				t.Fatalf("exemplar line %q does not match pinned syntax", line)
			}
		}
	}
	if exemplars != 1 {
		t.Fatalf("got %d exemplar lines, want 1:\n%s", exemplars, om)
	}

	// The classic exposition stays exemplar-free and EOF-free, so
	// existing Prometheus text parsers are untouched.
	classic := string(r.Expose())
	if strings.Contains(classic, "trace_id") || strings.Contains(classic, "# EOF") {
		t.Fatalf("classic exposition leaked OpenMetrics syntax:\n%s", classic)
	}
}

func TestRegistryEach(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ctt_reqs_total")
	c.Add(3)
	r.Counter(`ctt_rej_total{reason="queue_full"}`).Inc()
	r.Gauge("ctt_depth", func() float64 { return 7.5 })
	h := r.Histogram("ctt_lat_seconds", `endpoint="query"`, []float64{1})
	h.Observe(0.5)
	h.Observe(2)
	r.Uint("ctt_open_windows", func() uint64 { return 4 })

	vals := map[string]float64{}
	r.Each(func(name string, v float64) { vals[name] = v })

	want := map[string]float64{
		"ctt_reqs_total":                          3,
		`ctt_rej_total{reason="queue_full"}`:      1,
		"ctt_depth":                               7.5,
		"ctt_open_windows":                        4,
		`ctt_lat_seconds_count{endpoint="query"}`: 2,
		`ctt_lat_seconds_sum{endpoint="query"}`:   2.5,
	}
	for name, v := range want {
		if got, ok := vals[name]; !ok || got != v {
			t.Fatalf("Each[%q] = %v (present=%v), want %v", name, got, ok, v)
		}
	}
}

func TestExemplarTimestampRendering(t *testing.T) {
	ex := &Exemplar{Value: 0.231, TraceID: "00000000000000ff",
		Time: time.UnixMilli(1520879607789)}
	got := string(appendExemplar(nil, ex))
	want := ` # {trace_id="00000000000000ff"} 0.231 1520879607.789`
	if got != want {
		t.Fatalf("appendExemplar = %q, want %q", got, want)
	}
}
