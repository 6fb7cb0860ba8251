// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time from a seed, checks the outputs against
// a reference, and prints every metric with its unit; the last line of
// standard output is the JSON result. See README.md for the workloads,
// the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are the command-line parameters.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // checkout root, holding the sources under test
	serve    string // espice-serve binary built from root
	work     string // scratch directory inside the checkout
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of every timed run (-trace 0), measured with
// tracing off and from outside the system under test.
var endToEnd = []metricDef{
	{"throughput_ev_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"cpu_us_per_ev", "us"},
	{"mem_peak_mb", "MiB"},
	{"setup_s", "s"},
	{"recall_pct", "%"},
	{"precision_pct", "%"},
	{"lb_met_pct", "%"},
}

// setupRuns is how many times a run sets the system up; setup_s is the
// median.
const setupRuns = 9

var workloads = []string{"wire-q1", "durable-tenants", "replay-shed"}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloads))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 10, "seconds of measured load")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced, in-process variant and reports per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.StringVar(&o.serve, "serve", "", "espice-serve binary built from the checkout")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if err := runMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(o options) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	o.work = filepath.Join(o.root, ".bench_build", "work")
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	var rep *report
	var err error
	switch {
	case o.workload == "replay-shed" && o.trace:
		rep, err = traceReplay(o)
	case o.workload == "replay-shed":
		rep, err = runReplay(o)
	case o.workload == "wire-q1" || o.workload == "durable-tenants":
		sp, serr := wireSpecFor(o.workload, o.seed)
		if serr != nil {
			return serr
		}
		if o.trace {
			rep, err = traceWire(sp, o)
		} else {
			rep, err = runWire(sp, o)
		}
	default:
		return fmt.Errorf("unknown -workload %q (want one of %v)", o.workload, workloads)
	}
	if err != nil {
		return err
	}
	return rep.print(o)
}

func wireSpecFor(name string, seed int64) (wireSpec, error) {
	if name == "wire-q1" {
		return wireQ1(seed)
	}
	return durableTenants(seed)
}

// report is one run's outcome before printing.
type report struct {
	t       tally
	metrics map[string]metric
	lines   []string // human-readable detail, printed before the result
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// print writes the detail lines, the machine stamp and, last, the
// result line; the stamped result is also stored under .bench_build.
func (r *report) print(o options) error {
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, d := range want {
		m, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("internal: metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("internal: metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	res := result{
		Correct:   r.t.failed == 0,
		Attempted: r.t.attempted,
		Failed:    r.t.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range want {
		res.Metrics[d.name] = r.metrics[d.name]
	}
	stamp := stampMachine(o.root)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, n := range r.t.notes {
		fmt.Println("failure:", n)
	}
	fmt.Printf("fail_pct %.4f (%d of %d operations and checks failed)\n", r.t.failPct(), r.t.failed, r.t.attempted)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	blob, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Printf("machine %s\n", blob)
	if err := storeResult(o, stamp, res, r.t.notes); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// storeResult keeps the stamped result of every run next to the build
// outputs, one file per workload, seed and mode.
func storeResult(o options, stamp machine, res result, notes []string) error {
	dir := filepath.Join(o.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds.Seconds(), "trace": o.trace,
		"machine": stamp, "result": res, "failures": notes, "time": time.Now().UTC().Format(time.RFC3339),
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	mode := "timed"
	if o.trace {
		mode = "traced"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", o.workload, o.seed, mode)), blob, 0o644)
}
