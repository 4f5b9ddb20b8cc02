package api

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestPutEdgeAnswers posts real requests and checks what the client
// sees: the status and, where the handler answers with a put summary,
// the ?details body byte for byte. Every row is what the encoding/json
// decoder answered; a 400 for a malformed body is checked by its
// message prefix, since the offset detail is the decoder's own.
func TestPutEdgeAnswers(t *testing.T) {
	_, srv := newTestGateway(t, Config{})
	pt := `{"metric":"air.co2","timestamp":1488326400,"value":412.5,"tags":{"sensor":"edge"}}`
	cases := []struct {
		name, query, body string
		gzip              bool
		status            int
		want              string // exact body; "" for 204
		msgPrefix         string // for error envelopes: the message's start
	}{
		{name: "plain", body: "[" + pt + "]", status: 204},
		{name: "mixed-case keys", query: "?details",
			body:   `[{"Metric":"air.co2","TIMESTAMP":1488326401,"vAlUe":1.5,"Tags":{"sensor":"edge"}}]`,
			status: 200, want: `{"success":1,"failed":0,"errors":[]}`},
		{name: "unknown nested fields", query: "?details",
			body:   `{"metric":"air.co2","meta":{"a":[1,{"b":null}],"c":{}},"timestamp":1488326402,"value":2,"tags":{"sensor":"edge"},"x":[[]]}`,
			status: 200, want: `{"success":1,"failed":0,"errors":[]}`},
		{name: "null element", query: "?details", body: `[null]`,
			status: 400, want: `{"success":0,"failed":1,"errors":["point 0: timestamp required"]}`},
		{name: "null element, no details", body: `[null]`,
			status: 400, want: `{"success":0,"failed":1,"errors":["point 0: timestamp required"]}`},
		{name: "mixed batch", query: "?details", body: "[" + pt + `,null,{"metric":"air.co2","timestamp":1488326403,"value":"NaN","tags":{"sensor":"edge"}}]`,
			status: 200, want: `{"success":1,"failed":2,"errors":["point 1: timestamp required","point 2: value must be finite"]}`},
		{name: "empty array", body: `[]`, status: 400, msgPrefix: "no data points"},
		{name: "trailing comma", body: "[" + pt + ",]", status: 400, msgPrefix: "bad JSON array: "},
		{name: "trailing data after ]", body: "[" + pt + "] x", status: 400, msgPrefix: "bad JSON array: "},
		{name: "second object", body: pt + pt, status: 400, msgPrefix: "bad JSON object: "},
		{name: "metric of the wrong shape", body: `[{"metric":5,"timestamp":1488326400,"value":1,"tags":{"sensor":"edge"}}]`,
			status: 400, msgPrefix: "bad JSON array: "},
		{name: "single object, trailing whitespace", body: pt + " \r\n\t ", status: 204},
		{name: "gzip body", body: "[" + pt + "," + pt + "]", gzip: true, status: 204},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := []byte(c.body)
			if c.gzip {
				var zb bytes.Buffer
				zw := gzip.NewWriter(&zb)
				zw.Write(body)
				zw.Close()
				body = zb.Bytes()
			}
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/put"+c.query, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			if c.gzip {
				req.Header.Set("Content-Encoding", "gzip")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, c.status, got)
			}
			if c.msgPrefix != "" {
				var eb errorBody
				if err := json.Unmarshal(got, &eb); err != nil || eb.Error.Code != c.status || !strings.HasPrefix(eb.Error.Message, c.msgPrefix) {
					t.Fatalf("body %s, want an error envelope whose message starts %q", got, c.msgPrefix)
				}
				return
			}
			if string(bytes.TrimSuffix(got, []byte("\n"))) != c.want {
				t.Fatalf("body %q, want %q", got, c.want)
			}
		})
	}
}
