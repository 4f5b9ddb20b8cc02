package api

import (
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// formatMetricSpec renders a parsed subQuery back into m= syntax:
// aggregator, downsample, rate, metric and the tag filter in key
// order, wrapped in topk(…)/bottomk(…) when a count is set. A non-nil
// empty tag map prints as "{}": the braces keep a metric that ends in
// whitespace intact inside a wrapper, which trims its inner spec.
func formatMetricSpec(sq subQuery) string {
	var b strings.Builder
	b.WriteString(sq.Aggregator)
	if sq.Downsample != "" {
		b.WriteString(":" + sq.Downsample)
	}
	if sq.Rate {
		b.WriteString(":rate")
	}
	b.WriteString(":" + sq.Metric)
	if sq.Tags != nil {
		b.WriteByte('{')
		for i, k := range slices.Sorted(maps.Keys(sq.Tags)) {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k + "=" + sq.Tags[k])
		}
		b.WriteByte('}')
	}
	switch {
	case sq.TopK > 0:
		return "topk(" + strconv.Itoa(sq.TopK) + "," + b.String() + ")"
	case sq.BottomK > 0:
		return "bottomk(" + strconv.Itoa(sq.BottomK) + "," + b.String() + ")"
	}
	return b.String()
}

// sameSubQuery compares two parsed queries field by field; a nil and
// an empty tag map select the same series.
func sameSubQuery(a, b subQuery) bool {
	return a.Aggregator == b.Aggregator && a.Metric == b.Metric &&
		a.Downsample == b.Downsample && a.Rate == b.Rate &&
		a.TopK == b.TopK && a.BottomK == b.BottomK &&
		maps.Equal(a.Tags, b.Tags)
}

// metricSpecSeeds are m= edge cases beside the golden panel shapes:
// the malformed selections TestQueryStructuredErrors refuses, empty
// and repeated components, and "{", "}", "=" and "," where a naive
// splitter would misplace them.
var metricSpecSeeds = []string{
	"nope:air.x",
	"avg",
	"avg:1h-bogus:air.x",
	"sum:rate:air.co2{sensor=n1}",
	"avg:rate:1h-avg:rate:5m-max:air.co2",
	":",
	"avg:",
	"avg:{}",
	"avg:air.co2{}",
	"avg:air.co2{,}",
	"avg:air.co2{a=1,,b=2,a=3}",
	"avg:air.co2{a=b=c}",
	"avg:air.co2{=x}",
	"avg:air.co2{a}",
	"avg:air.co2{a={}",
	"avg:air.co2{}=1}",
	"avg:air.co2}",
	"avg:air.co2{sensor=*",
	"topk(",
	"topk()",
	"topk(2)",
	"topk(0,avg:air.x)",
	"topk(-2,avg:air.x)",
	"topk(x,avg:air.x)",
	"topk(+3, avg:air.x )",
	"topk(2,avg:air.x",
	"topk(2,nope:air.x)",
	"topk(2",
	"topk(2,avg:air.x {})",
	"topk(2,avg:air.x{a=1,b=2})",
	"bottomk(2,topk(2,avg:air.x))",
	"bottomk(1,sum:1h-avg:rate:air.x{k=*})",
	" topk(3,avg:air.x)",
	"topk(99999999999999999999,avg:air.x)",
}

// FuzzParseMetricSpec: parseMetricSpec never panics, and whatever it
// accepts prints back to a spec that parses to the same selection and
// the same cache key.
func FuzzParseMetricSpec(f *testing.F) {
	for _, s := range goldenShapes {
		f.Add(s.m)
	}
	for _, s := range metricSpecSeeds {
		f.Add(s)
	}
	g := &Gateway{}
	f.Fuzz(func(t *testing.T, spec string) {
		sq, err := parseMetricSpec(spec)
		if err != nil {
			return
		}
		canon := formatMetricSpec(sq)
		back, err := parseMetricSpec(canon)
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose canonical form %q fails: %v", spec, sq, canon, err)
		}
		if !sameSubQuery(sq, back) {
			t.Fatalf("%q parsed to %+v; canonical form %q parsed to %+v", spec, sq, canon, back)
		}
		if k1, k2 := g.cacheKey(0, 0, []subQuery{sq}, false), g.cacheKey(0, 0, []subQuery{back}, false); k1 != k2 {
			t.Fatalf("%q: cache key %q, canonical form %q: %q", spec, k1, canon, k2)
		}
	})
}
