package tsdb

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTopKPlansEachMemberOnce: a topk query asks the planner about each
// member once, when it is planned. The winners are served twice — to
// rank them and to materialize them — from the reads the plan already
// holds, not planned again.
func TestTopKPlansEachMemberOnce(t *testing.T) {
	db := mustOpen(t)
	seedRagged(t, db)
	planner := &countingPlanner{db: db}
	db.SetRollupPlanner(planner)
	defer db.SetRollupPlanner(nil)
	q := Query{Metric: "par.m", Tags: map[string]string{"sensor": "*"},
		Start: baseTS, End: baseTS + 12*3600*1000,
		Aggregator: AggAvg, Downsample: 10 * time.Minute, SeriesLimit: 3}
	p, err := db.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := planner.plans.Load(); n != 10 || p.Tiered != 10 || p.Raw != 0 {
		t.Fatalf("planning 10 members asked the planner %d times (%d tiered, %d raw)", n, p.Tiered, p.Raw)
	}
	n := 0
	if err := p.Run(func(ResultSeries) error { n++; return nil }); err != nil || n != 3 {
		t.Fatalf("run yielded %d series (%v), want 3", n, err)
	}
	if plans, serves := planner.plans.Load(), planner.calls.Load(); plans != 10 || serves != 13 {
		t.Fatalf("after the run: %d plans and %d serves, want 10 and 13 (10 scores + 3 winners)", plans, serves)
	}
}

// TestPlanNote: a traced query carries its plan as the trace's plan
// note, naming each member's source, estimate and, read raw, why.
func TestPlanNote(t *testing.T) {
	db := mustOpen(t)
	seedRagged(t, db)
	q := Query{Metric: "par.m", Tags: map[string]string{"sensor": "s01"},
		Start: baseTS, End: baseTS + 3600*1000, Aggregator: AggAvg}
	for _, c := range []struct {
		ds      time.Duration
		planner RollupPlanner
		want    string
	}{
		{0, nil, "raw est="},
		{0, nil, "(not downsampled)"},
		{time.Minute, nil, "(no rollup planner)"},
		{time.Minute, &countingPlanner{db: db}, "} counting est="},
	} {
		db.SetRollupPlanner(c.planner)
		q.Downsample, q.Trace = c.ds, obs.NewTrace("query", "plan-note")
		if err := db.ExecuteStream(q, func(ResultSeries) error { return nil }); err != nil {
			t.Fatal(err)
		}
		plans := q.Trace.Plans()
		if len(plans) != 1 || !strings.HasPrefix(plans[0].String(), "par.m est=") || !strings.Contains(plans[0].String(), c.want) {
			t.Errorf("downsample %v: plan note %v, want one plan naming %q", c.ds, plans, c.want)
		}
		q.Trace.Release()
	}
	db.SetRollupPlanner(nil)
}
