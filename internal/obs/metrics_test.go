package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	r.Gauge("test_gauge", func() float64 { return 42 })
	r.Gauge(`test_labeled{k="v"}`, func() float64 { return 1.5 })
	body := string(r.Expose())
	for _, want := range []string{"test_total 5\n", "test_gauge 42\n", `test_labeled{k="v"} 1.5` + "\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5, 0.05} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	body := string(r.Expose())
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.01"} 1` + "\n",
		`lat_seconds_bucket{le="0.1"} 3` + "\n",
		`lat_seconds_bucket{le="1"} 4` + "\n",
		`lat_seconds_bucket{le="+Inf"} 5` + "\n",
		"lat_seconds_count 5\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
	// The sum line parses to the observed total (within float noise).
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "lat_seconds_sum "); ok {
			sum, err := strconv.ParseFloat(rest, 64)
			if err != nil || sum < 5.6 || sum > 5.61 {
				t.Errorf("sum = %q (err %v), want ≈5.605", rest, err)
			}
			return
		}
	}
	t.Errorf("missing lat_seconds_sum in:\n%s", body)
}

func TestHistogramFamilyGrouping(t *testing.T) {
	r := NewRegistry()
	r.Histogram("req_seconds", `endpoint="query"`, []float64{1}).Observe(0.5)
	r.Histogram("other_seconds", "", []float64{1}).Observe(0.5)
	r.Histogram("req_seconds", `endpoint="put"`, []float64{1}).Observe(2)
	body := string(r.Expose())
	if n := strings.Count(body, "# TYPE req_seconds histogram"); n != 1 {
		t.Errorf("req_seconds TYPE lines = %d, want 1:\n%s", n, body)
	}
	// Both label variants must render under the one header, before the
	// next family starts.
	qi := strings.Index(body, `req_seconds_bucket{endpoint="query",le="1"} 1`)
	pi := strings.Index(body, `req_seconds_bucket{endpoint="put",le="1"} 0`)
	oi := strings.Index(body, "# TYPE other_seconds histogram")
	if qi < 0 || pi < 0 || oi < 0 {
		t.Fatalf("missing expected lines in:\n%s", body)
	}
	if !(qi < oi && pi < oi) {
		t.Errorf("req_seconds family split across other families:\n%s", body)
	}
}

// TestUintRendering: Uint values print as plain integers at any size,
// where a Gauge's shortest float switches to exponent form.
func TestUintRendering(t *testing.T) {
	r := NewRegistry()
	r.Uint("big_total", func() uint64 { return 2070203 })
	r.Uint(`open{tier="1m"}`, func() uint64 { return 7 })
	r.Gauge("big_gauge", func() float64 { return 2070203 })
	body := string(r.Expose())
	for _, want := range []string{"big_total 2070203\n", "open{tier=\"1m\"} 7\n", "big_gauge 2.070203e+06\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

// TestExposeConcurrent scrapes while observing from many goroutines;
// under -race this is the registry's snapshot-before-format guarantee,
// and every scrape must still satisfy bucket monotonicity.
func TestExposeConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", "", nil)
	c := r.Counter("conc_total")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.001)
					c.Inc()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		body := string(r.Expose())
		assertBucketsMonotonic(t, body)
	}
	close(stop)
	wg.Wait()
}

// assertBucketsMonotonic parses every _bucket line and checks the
// cumulative counts never decrease within a series.
func assertBucketsMonotonic(t *testing.T, body string) {
	t.Helper()
	last := map[string]uint64{}
	for _, line := range strings.Split(body, "\n") {
		i := strings.Index(line, "_bucket{")
		if i < 0 {
			continue
		}
		j := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseUint(line[j+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		// Series key: name plus labels minus the le pair.
		key := line[:i]
		if prev, ok := last[key]; ok && v < prev {
			t.Fatalf("bucket counts not monotonic at %q: %d after %d", line, v, prev)
		}
		last[key] = v
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 {
		t.Fatal("nil histogram count")
	}
}
