package api

import (
	"net/http"
	"strings"
	"testing"
)

// flexQuotingCases are raw timestamp/value tokens and whether the
// number parsers accept them; FuzzPutDecode seeds from them too.
var flexQuotingCases = []struct {
	raw string
	ok  bool
}{
	{`1488326400`, true},
	{`"1488326400"`, true},
	{`""12""`, false},
	{`12"`, false},
	{`"12`, false},
	{`"`, false},
	{`""`, false},
	{`"12"12"`, false},
	{`"  12"`, false}, // inner whitespace is not a number
}

// TestFlexStrictQuoting: the flexible number parsers accept a bare
// number or one fully quoted one — nothing else. The old
// strings.Trim-based unquoting accepted malformed tokens like
// `""12""` (trimming both quote pairs) and `12"` (trimming the stray
// quote); both must now be 400s.
func TestFlexStrictQuoting(t *testing.T) {
	for _, c := range flexQuotingCases {
		if _, err := parseTimestamp([]byte(c.raw)); (err == nil) != c.ok {
			t.Errorf("parseTimestamp(%s): ok=%v, want %v", c.raw, err == nil, c.ok)
		}
		if _, err := parseValue([]byte(c.raw)); (err == nil) != c.ok {
			t.Errorf("parseValue(%s): ok=%v, want %v", c.raw, err == nil, c.ok)
		}
	}
	// Float-only shapes.
	if f, err := parseValue([]byte(`"412.5"`)); err != nil || f != 412.5 {
		t.Errorf("parseValue quoted float: %v %v", f, err)
	}
	if _, err := parseValue([]byte(`412.5"`)); err == nil {
		t.Error(`parseValue accepted 412.5"`)
	}
}

// TestPutRejectsMalformedQuotedNumbers: the strictness reaches the
// HTTP edge — a batch whose timestamp wears mismatched quotes is a
// 400, not a stored point.
func TestPutRejectsMalformedQuotedNumbers(t *testing.T) {
	g, srv := newTestGateway(t, Config{})

	body := `[{"metric":"air.co2","timestamp":"1488326400","value":"415","tags":{"sensor":"ok"}}]`
	resp, err := http.Post(srv.URL+"/api/put", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("fully-quoted numbers must still work: status %d", resp.StatusCode)
	}
	waitIngested(t, g, 1)

	bad := `[{"metric":"air.co2","timestamp":"1488326400\"","value":415,"tags":{"sensor":"bad"}}]`
	resp, err = http.Post(srv.URL+"/api/put", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed quoted timestamp accepted: status %d", resp.StatusCode)
	}
}
