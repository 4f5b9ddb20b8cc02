// ctt-bench is the repository's load benchmark: it builds the real
// ctt-server, launches a fresh disk-backed primary (and a follower
// where the workload has one) per workload, drives it over real
// sockets from this one process, verifies the answers and prints every
// metric by name with its unit. BENCHMARK.json at the repository root
// is its contract; README.md beside this file is the glossary.
//
//	go run ./cmd/ctt-bench                      all four workloads, then the ladder
//	go run ./cmd/ctt-bench -workload query_explore -seed 7 -seconds 12 -trace 0
//	go run ./cmd/ctt-bench -compare a.json b.json
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end_to_end metrics
// with -trace 0, the per_layer metrics with -trace 1. The exit status
// is non-zero on any correctness failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// spec is BENCHMARK.json: the harness prints exactly the metrics it
// lists and -compare takes its bounds from it.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// endToEndNames are the metrics every workload reports, under the same
// names, as BENCHMARK.json's end_to_end list promises.
var endToEndNames = []string{
	"setup_s", "op_p50_ms", "op2_p50_ms", "server_cpu_cores", "disk_bytes_per_point", "rss_mean_mb",
}

// report is one invocation's result file.
type report struct {
	Seed      int64             `json:"seed"`
	WindowS   float64           `json:"window_s"`
	BuildS    float64           `json:"build_s"`
	Workloads []*workloadResult `json:"workloads"`
	Ladder    map[string]Metric `json:"ladder,omitempty"`
}

// options is one invocation, as parsed from the command line.
type options struct {
	workload string // empty: all four
	seed     int64
	window   time.Duration
	ladder   bool
	outDir   string
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "run only this workload and end with the contract's JSON line (default: all four)")
		seed     = flag.Int64("seed", 1, "seeds the op schedule and the server's pilot simulation")
		seconds  = flag.Int("seconds", 0, "measured window per workload in seconds (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "1 adds the traced in-process ladder and prints per-layer metrics; default 0 with -workload, 1 without")
		compare  = flag.Bool("compare", false, "compare two result files (or comma-separated sets of them): -compare a.json b.json")
		outDir   = flag.String("out", "", "where result files and spans.json go (default cmd/ctt-bench/out)")
	)
	flag.Parse()
	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return runCompare(sp, flag.Arg(0), flag.Arg(1))
	}
	o := options{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, outDir: *outDir}
	if o.outDir == "" {
		o.outDir = filepath.Join(root, "cmd", "ctt-bench", "out")
	}
	if o.window <= 0 {
		o.window = time.Duration(sp.RunSeconds) * time.Second
	}
	o.ladder = *trace == 1 || (*trace < 0 && o.workload == "")

	// Children are killed by each workload's deferred stop; the signal
	// context makes an interrupted run take that path too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := execute(ctx, root, o)
	if err != nil {
		return fail(err)
	}
	if err := writeReport(rep, o.outDir); err != nil {
		return fail(err)
	}
	if o.workload != "" {
		if err := printContractLine(sp, rep, o.ladder); err != nil {
			return fail(err)
		}
	}
	if !rep.ok() {
		fmt.Fprintln(os.Stderr, "ctt-bench: correctness or validity failure, see above")
		return 1
	}
	return 0
}

// execute builds the server, runs the asked workloads and, when asked,
// the ladder, printing every metric as it goes.
func execute(ctx context.Context, root string, o options) (*report, error) {
	bin, buildTook, err := buildServer(ctx, root)
	if err != nil {
		return nil, err
	}
	e := &env{ctx: ctx, root: root, bin: bin, seed: o.seed, window: o.window, workers: min(2, runtime.NumCPU())}
	rep := &report{Seed: o.seed, WindowS: o.window.Seconds(), BuildS: buildTook.Seconds()}
	fmt.Printf("build_s %.3f s (informational)\n", rep.BuildS)
	for _, w := range workloads {
		if o.workload != "" && w.name != o.workload {
			continue
		}
		r, err := w.run(e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Workloads = append(rep.Workloads, r)
		printWorkload(r)
	}
	if len(rep.Workloads) == 0 {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.ladder {
		if rep.Ladder, err = runLadder(e, o.outDir); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		addUnattributed(rep)
		printMetrics("ladder", rep.Ladder)
	}
	return rep, nil
}

// ok reports whether every workload verified and none was bound by the
// generator.
func (rep *report) ok() bool {
	for _, r := range rep.Workloads {
		if r.Failed != 0 || r.Invalid != "" {
			return false
		}
	}
	return true
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "ctt-bench:", err)
	return 1
}

// printMetrics prints one map of metrics, sorted by name, one per line.
func printMetrics(scope string, ms map[string]Metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		if m.N > 0 {
			fmt.Printf("%-16s %-30s %14.4f %-6s n=%d\n", scope, name, m.Value, m.Unit, m.N)
		} else {
			fmt.Printf("%-16s %-30s %14.4f %s\n", scope, name, m.Value, m.Unit)
		}
	}
}

func printWorkload(r *workloadResult) {
	printMetrics(r.Workload, r.EndToEnd)
	printMetrics(r.Workload, r.Detail)
	printMetrics(r.Workload, r.Layer)
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-16s %-30s %14.6f ratio  (%d of %d)\n", r.Workload, "failed_ratio", ratio, r.Failed, r.Attempted)
	fmt.Printf("%-16s gen.schedule_sha %s\n", r.Workload, r.ScheduleSHA)
	for _, reason := range r.Failures {
		fmt.Printf("%-16s FAILED: %s\n", r.Workload, reason)
	}
	if r.Invalid != "" {
		fmt.Printf("%-16s INVALID: %s\n", r.Workload, r.Invalid)
	}
}

// writeReport saves the result under out/, named by seed and time so
// repeated runs of one commit sit side by side for -compare.
func writeReport(rep *report, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := "result"
	if len(rep.Workloads) == 1 {
		name = rep.Workloads[0].Workload
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%d.json", name, rep.Seed, time.Now().UnixNano()))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("result written to", path)
	return nil
}

// printContractLine ends a -workload run with the one JSON object the
// benchmark contract asks for. Every end_to_end metric must have been
// measured; a per_layer metric this workload has no source for (no
// follower, no puts) is printed as 0. per_layer names starting
// "client." are the workload's own client-seen numbers (Detail).
func printContractLine(sp *spec, rep *report, perLayer bool) error {
	r := rep.Workloads[0]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if !perLayer {
		for _, m := range sp.EndToEnd {
			got, ok := r.EndToEnd[m.Name]
			if !ok || got.Value == 0 {
				return fmt.Errorf("%s produced no %s", r.Workload, m.Name)
			}
			metrics[m.Name] = value{got.Value, m.Unit}
		}
	} else {
		for _, m := range sp.PerLayer {
			got, ok := r.Layer[m.Name]
			if client, isClient := strings.CutPrefix(m.Name, "client."); isClient {
				got, ok = r.Detail[client]
			}
			if !ok {
				got = rep.Ladder[m.Name]
			}
			metrics[m.Name] = value{got.Value, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Invalid == "", max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
