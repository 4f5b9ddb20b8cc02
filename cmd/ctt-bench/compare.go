package main

// -compare: two result files, or two comma-separated sets of them, side
// by side per workload and end-to-end metric, with the relative
// difference of the medians and the bound BENCHMARK.json allows.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// loadSide reads one side's result files and groups each workload's
// end-to-end values by metric.
func loadSide(arg string) (map[string]map[string][]float64, error) {
	side := map[string]map[string][]float64{}
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range rep.Workloads {
			if side[r.Workload] == nil {
				side[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.EndToEnd {
				side[r.Workload][name] = append(side[r.Workload][name], m.Value)
			}
		}
	}
	return side, nil
}

// worseBy is how much worse b is than a as a share of a, signed so
// that positive always means worse.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spreadText renders the interquartile range as a share of the median,
// the run-to-run spread the stability criterion is stated in; it needs
// at least four runs on the side.
func spreadText(xs []float64) string {
	if len(xs) < 4 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.1f%%", 100*(q3-q1)/median(xs))
}

func runCompare(sp *spec, argA, argB string) int {
	a, err := loadSide(argA)
	if err != nil {
		return fail(err)
	}
	b, err := loadSide(argB)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%-16s %-22s %14s %8s %14s %8s %9s %7s\n",
		"workload", "metric", "a (median)", "a iqr", "b (median)", "b iqr", "b worse", "bound")
	outside := 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worseBy(ma, mb, m.Better)
			flag := ""
			if worse > m.Bound {
				flag = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-16s %-22s %14.4f %8s %14.4f %8s %+8.1f%% %6.0f%%%s\n",
				w.Name, m.Name, ma, spreadText(va), mb, spreadText(vb), 100*worse, 100*m.Bound, flag)
		}
	}
	if outside > 0 {
		fmt.Printf("%d metric(s) outside their bound\n", outside)
		return 1
	}
	return 0
}
