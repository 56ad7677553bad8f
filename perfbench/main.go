// Command perfbench is nanosim's benchmark: it runs one named workload
// for a fixed time, checks the workload's outputs, and prints its
// metrics. With -trace 0 it reports the end-to-end metrics (tracing
// off); with -trace 1 it runs the workload again with spans around every
// layer call and reports the per-layer split. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload tran_stepping --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metric glossary and how to read a
// traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks every workload to a seconds-long run at reduced size
	// (self-tests only; the shapes, paths and checks are the same).
	smoke bool
	// workDir holds run-time files (serve data dir, span dumps).
	workDir string
	// log receives the human-readable report.
	log io.Writer
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	// checkFailures lists every output check that failed.
	checkFailures []string
	// metrics holds the JSON metrics (end-to-end or per-layer by mode).
	metrics map[string]float64
}

// check records one output check; a failed check counts one failed
// operation and is never retried.
func (o *outcome) check(name string, err error) {
	if err != nil {
		o.failed++
		o.checkFailures = append(o.checkFailures, fmt.Sprintf("%s: %v", name, err))
	}
}

// workload is one named benchmark input set.
type workload struct {
	name string
	// why records the reason the workload exists.
	why string
	run func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{
		name: "hier_pipeline",
		why:  "deck set-up dominates: parse, stamp, partition and compile of a 50.5k-node hierarchical deck; the only workload where hier compile is the predicted gain",
		run:  runHierPipeline,
	},
	{
		name: "tran_stepping",
		why:  "stepping dominates (parse+compile under 1%): 2 threads step 256 never-dormant blocks, where parallel stepping and the transient engine show",
		run:  runTranStepping,
	},
	{
		name: "mc_yield",
		why:  "many small monolithic transients on the small-n solver plus vary's perturbation, scheduling and aggregation at 2 workers; no partition or compile",
		run:  runMCYield,
	},
	{
		name: "serve_mixed",
		why:  "the only workload through nanosimd's admission, queue, journal, deck cache, HTTP and streaming, under open-loop and closed-loop load",
		run:  runServeMixed,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, 1: traced per-layer run")
	smoke := fs.Bool("smoke", false, "reduced sizes (self-tests)")
	workDir := fs.String("workdir", ".bench_build", "directory for run-time files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	dir, err := filepath.Abs(*workDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{workload: w.name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, smoke: *smoke, workDir: dir, log: stdout}
	fmt.Fprintf(stdout, "# %s (seed %d, %gs, trace %d): %s\n", w.name, cfg.seed, cfg.seconds, *traceFlag, w.why)
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		for _, d := range perLayer {
			report(cfg, d.Name, out.metrics[d.Name], d.Unit, "")
		}
	}
	line, err := resultLine(out, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range out.checkFailures {
		fmt.Fprintf(stdout, "CHECK FAILED %s\n", f)
	}
	fmt.Fprintf(stdout, "fail_frac %.6g (%d failed of %d attempted)\n", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	fmt.Fprintln(stdout, line)
	return 0
}

// resultLine renders the final JSON object. It insists on exactly the
// metrics defs names, so a workload can never silently drop one.
func resultLine(out *outcome, defs []metricDef) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s not measured", d.Name)
		}
		ms[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range out.metrics {
		if _, ok := ms[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "", fmt.Errorf("metrics not in the schema: %s", strings.Join(extra, ", "))
	}
	if out.attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.checkFailures) == 0 && out.failed == 0, out.attempted, out.failed, ms})
	return string(b), err
}

// report prints one human-readable metric line.
func report(cfg config, name string, value float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(cfg.log, "%-28s %14.6g %-6s%s\n", name, value, unit, note)
}

// layerMetrics returns a per-layer metric map with every metric at 0, for
// a workload to fill in the layers its path calls.
func layerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}
