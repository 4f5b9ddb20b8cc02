package lineproto

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/rollup"
	"repro/internal/tsdb"
)

// parseLineGood and parseLineBad are TestParseLine's table; they also
// seed FuzzParsePutLine.
var parseLineGood = []struct {
	line   string
	metric string
	tsMS   int64
	value  float64
	tags   map[string]string
}{
	{"put air.co2 1488326400 412.5 sensor=s1", "air.co2", 1488326400000, 412.5,
		map[string]string{"sensor": "s1"}},
	{"put air.co2 1488326400123 412.5 sensor=s1 city=trondheim", "air.co2", 1488326400123, 412.5,
		map[string]string{"sensor": "s1", "city": "trondheim"}},
	{"  put   air.no2  1488326400  -7  sensor=s2  ", "air.no2", 1488326400000, -7,
		map[string]string{"sensor": "s2"}},
}

var parseLineBad = []string{
	"puts air.co2 1488326400 412.5 sensor=s1", // unknown command
	"put air.co2 1488326400 412.5",            // no tags
	"put air.co2 nope 412.5 sensor=s1",        // bad timestamp
	"put air.co2 -5 412.5 sensor=s1",          // negative timestamp
	"put air.co2 1488326400 abc sensor=s1",    // bad value
	"put air.co2 1488326400 NaN sensor=s1",    // non-finite value
	"put air.co2 1488326400 412.5 sensor=",    // empty tag value
	"put air.co2 1488326400 412.5 =s1",        // empty tag key
	"put bad metric 1488326400 412.5 a=b",     // field misalignment
}

func TestParseLine(t *testing.T) {
	ref := openSink(t)
	defer ref.db.Close()
	for _, g := range parseLineGood {
		dp, err := ParseLine(ref.db, g.line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", g.line, err)
		}
		if dp.Metric != g.metric || dp.Timestamp != g.tsMS || dp.Value != g.value {
			t.Fatalf("ParseLine(%q) = %+v", g.line, dp)
		}
		for k, v := range g.tags {
			if dp.Tags[k] != v {
				t.Fatalf("ParseLine(%q) tag %s = %q, want %q", g.line, k, dp.Tags[k], v)
			}
		}
	}
	for _, line := range parseLineBad {
		if _, err := ParseLine(ref.db, line); err == nil {
			t.Fatalf("ParseLine(%q) accepted", line)
		}
	}
}

// testStack assembles store → gateway → line listener.
func testStack(t *testing.T, cfg Config) (*tsdb.DB, *api.Gateway, *Server, net.Addr) {
	t.Helper()
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	gw := api.New(db, nil, api.Config{})
	srv := New(gw, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); gw.Close(); db.Close() })
	return db, gw, srv, addr
}

// TestTelnetPutQueryableOverHTTP is the acceptance e2e: points
// written over the telnet listener are readable through the HTTP
// gateway's /api/query.
func TestTelnetPutQueryableOverHTTP(t *testing.T) {
	_, gw, srv, addr := testStack(t, Config{})
	web := httptest.NewServer(gw.Handler())
	defer web.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1488326400) // 2017-03-01 00:00:00 UTC, seconds
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, "put air.co2 %d %d sensor=telnet-1 city=trondheim\n", base+int64(i)*60, 400+i)
	}
	sb.WriteString("this is not a put line\n")
	sb.WriteString("version\n")
	if _, err := conn.Write([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	// The server replies to the malformed line and to version.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("expected reply line %d: %v", i, err)
		}
	}
	conn.Close()

	// The queue drains asynchronously; poll the HTTP query until the
	// points land.
	url := web.URL + "/api/query?start=1488326400&end=1488327000&m=sum:air.co2{sensor=telnet-1}"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var out []struct {
			DPS map[string]float64 `json:"dps"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err == nil && len(out) == 1 && len(out[0].DPS) == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("telnet points never became queryable; last result %+v", out)
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := srv.Stats()
	if st.Points != 10 {
		t.Fatalf("points = %d, want 10", st.Points)
	}
	if st.Malformed != 1 {
		t.Fatalf("malformed = %d, want 1", st.Malformed)
	}
	if st.ConnsTotal != 1 {
		t.Fatalf("connsTotal = %d, want 1", st.ConnsTotal)
	}
}

// TestReadDeadline: an idle connection is closed by the server and
// counted as a timeout.
func TestReadDeadline(t *testing.T) {
	_, _, srv, addr := testStack(t, Config{ReadTimeout: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection stayed open past the read deadline")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Timeouts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timeout never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOversizedLine: a line beyond MaxLineLen is skipped and counted,
// and the connection keeps working.
func TestOversizedLine(t *testing.T) {
	db, _, srv, addr := testStack(t, Config{MaxLineLen: 64})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	long := "put air.co2 1488326400 1 sensor=" + strings.Repeat("x", 200) + "\n"
	ok := "put air.co2 1488326400 1 sensor=s1\n"
	if _, err := conn.Write([]byte(long + ok)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Points < 1 || srv.Stats().Malformed < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The valid point made it to the store.
	for db.PointCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("valid point after oversized line never stored")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTelnetAuth: with an API key configured, puts before a
// successful "auth <key>" line are refused and counted; after auth
// the connection behaves normally.
func TestTelnetAuth(t *testing.T) {
	db, _, srv, addr := testStack(t, Config{APIKey: "sekrit"})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	expectReply := func(want string) {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading reply: %v", err)
		}
		if !strings.Contains(line, want) {
			t.Fatalf("reply %q, want it to contain %q", line, want)
		}
	}

	send := func(s string) {
		t.Helper()
		if _, err := conn.Write([]byte(s + "\n")); err != nil {
			t.Fatal(err)
		}
	}

	send("put air.co2 1488326400 415 sensor=s1") // unauthenticated
	expectReply("auth required")
	send("auth wrongkey")
	expectReply("invalid key")
	send("version") // stays available without auth
	expectReply("line protocol")
	send("auth sekrit")
	expectReply("auth ok")
	send("put air.co2 1488326400 415 sensor=s1")

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Points < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("authenticated put never accepted: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.Stats(); st.AuthFails != 2 {
		t.Fatalf("authFails = %d, want 2 (refused put + bad key)", st.AuthFails)
	}
	for db.PointCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("authenticated point never stored")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTelnetAuthDefersToGateway: with no listener key configured, a
// keyed gateway's policy still protects the telnet edge — the
// listener defers to the sink's RequiresAPIKey/CheckAPIKey.
func TestTelnetAuthDefersToGateway(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	gw := api.New(db, nil, api.Config{APIKey: "gwkey"})
	srv := New(gw, Config{}) // no listener key of its own
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); gw.Close(); db.Close() })

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	send := func(s string) {
		t.Helper()
		if _, err := conn.Write([]byte(s + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want string) {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading reply: %v", err)
		}
		if !strings.Contains(line, want) {
			t.Fatalf("reply %q, want it to contain %q", line, want)
		}
	}

	send("put air.co2 1488326400 415 sensor=s1")
	expect("auth required")
	send("auth gwkey")
	expect("auth ok")
	send("put air.co2 1488326400 415 sensor=s1")
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Points < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("gateway-keyed put never accepted: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsOnRegistry: with a rollup engine and a started listener
// registered on the gateway's registry, /metrics prints each of their
// samples once and the self-scrape loop stores their counters as
// ctt.self.* series.
func TestMetricsOnRegistry(t *testing.T) {
	db, gw, srv, addr := testStack(t, Config{})
	eng, err := rollup.New(db, rollup.Config{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	eng.RegisterMetrics(gw.Registry())
	srv.RegisterMetrics(gw.Registry())
	scraper := api.NewSelfScraper(gw, api.SelfScrapeConfig{})
	web := httptest.NewServer(gw.Handler())
	defer web.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "put air.co2 %d 415 sensor=telnet-1\n", time.Now().Unix())
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Observed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("telnet point never reached the store: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(string(body), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if strings.HasPrefix(name, "ctt_rollup_") || strings.HasPrefix(name, "ctt_lineproto_") {
			seen[name]++
		}
	}
	want := []string{
		"ctt_rollup_points_observed_total",
		"ctt_rollup_late_dropped_total",
		"ctt_rollup_skipped_total",
		"ctt_rollup_windows_sealed_total",
		"ctt_rollup_points_written_total",
		"ctt_rollup_query_hits_total",
		"ctt_rollup_query_fallbacks_total",
		"ctt_rollup_query_tail_served_total",
		"ctt_rollup_retention_deleted_total",
		"ctt_rollup_retention_errors_total",
		`ctt_rollup_open_windows{tier="1m"}`,
		`ctt_rollup_lag_ms{tier="1m"}`,
		`ctt_rollup_open_windows{tier="1h"}`,
		`ctt_rollup_lag_ms{tier="1h"}`,
		"ctt_rollup_observe_seconds_sum",
		"ctt_rollup_observe_seconds_count",
		"ctt_lineproto_connections_total",
		"ctt_lineproto_connections_active",
		"ctt_lineproto_lines_total",
		"ctt_lineproto_points_total",
		"ctt_lineproto_malformed_total",
		"ctt_lineproto_dropped_total",
		"ctt_lineproto_degraded_dropped_total",
		"ctt_lineproto_read_timeouts_total",
		"ctt_lineproto_auth_failures_total",
		"ctt_lineproto_rate_points_per_second",
		"ctt_lineproto_flush_seconds_sum",
		"ctt_lineproto_flush_seconds_count",
	}
	for _, name := range want {
		if seen[name] != 1 {
			t.Errorf("%s printed %d times, want once", name, seen[name])
		}
		delete(seen, name)
	}
	for name, n := range seen {
		if !strings.Contains(name, "_seconds_bucket{le=") || n != 1 {
			t.Errorf("unexpected sample %s printed %d times", name, n)
		}
	}

	if scraper.ScrapeOnce() == 0 {
		t.Fatal("self-scrape stored nothing")
	}
	for _, metric := range []string{"ctt.self.rollup_points_observed_total", "ctt.self.lineproto_lines_total"} {
		resp, err := http.Get(web.URL + "/api/query?start=1h-ago&m=max:" + metric + "{src=self}")
		if err != nil {
			t.Fatal(err)
		}
		var out []struct {
			DPS map[string]float64 `json:"dps"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || len(out) != 1 || len(out[0].DPS) != 1 {
			t.Fatalf("%s: query answered %+v (err %v), want one point", metric, out, err)
		}
		for _, v := range out[0].DPS {
			if v < 1 {
				t.Errorf("%s = %v, want ≥ 1", metric, v)
			}
		}
	}
}
