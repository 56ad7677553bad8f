package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"nanosim/internal/linsolve"
)

// TestGeneratorsDeterministic: the same seed gives byte-identical inputs,
// another seed gives other inputs.
func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(seed uint64) string{
		"hier_pipeline": func(s uint64) string { return hierDeck(s, hierSize{stages: 20, rows: 4, cols: 4}) },
		"tran_stepping": func(s uint64) string { return pipelineDeck(s, pipeSize{stages: 32, pulsed: 4, tstop: 10e-9}) },
		"mc_yield":      func(s uint64) string { return mcDeck(s, mcSize{stages: 4, trials: 16}) },
		"serve_pool": func(s uint64) string {
			pool := servePool(s)
			var b strings.Builder
			for _, c := range serveClasses {
				b.WriteString(pool[c])
			}
			return b.String()
		},
		"serve_schedule": func(s uint64) string {
			return fmt.Sprintf("%+v", schedule(s, "light", 50, 2, servePool(s)))
		},
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same input", name)
		}
	}
}

// TestScheduleMix: every block of len(serveMix) arrivals carries the mix
// proportions exactly, and every other submission repeats a pooled deck.
func TestScheduleMix(t *testing.T) {
	pool := servePool(3)
	sched := schedule(3, "heavy", 200, 5, pool)
	if len(sched) < 4*len(serveMix) {
		t.Fatalf("only %d arrivals", len(sched))
	}
	want := map[string]int{}
	for _, c := range serveMix {
		want[c]++
	}
	for start := 0; start+len(serveMix) <= len(sched); start += len(serveMix) {
		got := map[string]int{}
		for _, a := range sched[start : start+len(serveMix)] {
			got[a.Class]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("block at %d has mix %v, want %v", start, got, want)
		}
	}
	for i, a := range sched {
		if pooled := a.Deck == pool[a.Class]; pooled != (i%2 == 1) {
			t.Fatalf("arrival %d: pooled deck %v", i, pooled)
		}
	}
}

// TestTimedSolverTransparent: the solver timing wrapper leaves a small
// partitioned transient bit-identical, at one worker and at two, and
// counts the solves it timed.
func TestTimedSolverTransparent(t *testing.T) {
	src := pipelineDeck(5, pipeSize{stages: 24, pulsed: 3, tstop: 8e-9})
	for _, workers := range []int{1, 2} {
		plain, err := runTranDeck(src, nil, 0, workers, false)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		traced, err := runTranDeck(src, tr, 1, workers, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := identicalResults(plain.res, traced.res); err != nil {
			t.Fatalf("workers=%d: wrapped solver changed the result: %v", workers, err)
		}
		if plain.res.Stats.Blocks < 2 {
			t.Fatalf("deck did not partition (%d blocks)", plain.res.Stats.Blocks)
		}
		solves, secs := traced.timed.solveTotals()
		if solves < plain.res.Stats.BlockSolves || secs <= 0 {
			t.Fatalf("workers=%d: timed %d solves in %gs, engine reports %d block solves", workers, solves, secs, plain.res.Stats.BlockSolves)
		}
		for _, name := range []string{"netparse.parse", "stamp.system", "part.build", "core.warm", "core.run", "trace.ndjson"} {
			if len(tr.durations(name)) != 1 {
				t.Errorf("workers=%d: %d %s spans, want 1", workers, len(tr.durations(name)), name)
			}
		}
	}
	// The wrapper forwards the capabilities the core path asserts.
	var s linsolve.Solver = newTimedFactory(linsolve.NewSparse).factory(4, nil)
	if _, ok := s.(linsolve.Warmer); !ok {
		t.Error("wrapped solver is not a linsolve.Warmer")
	}
	if _, ok := s.(linsolve.Refactorable); !ok {
		t.Error("wrapped solver is not a linsolve.Refactorable")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames: names are well formed and unique, and BENCHMARK.json
// at the repository root declares exactly the metrics this program
// prints, with the same units.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(spec.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", spec.EndToEnd, endToEnd)
	}
	if fmt.Sprint(spec.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's")
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
}

// TestSmoke runs every workload once at reduced size, untraced and
// traced, through the command-line entry point, and checks the result
// line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds per workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--smoke", "--workdir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: %+v", d.Name, m)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestBadArguments: an unknown workload or trace mode exits non-zero
// without a result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mc_yield", "--trace", "2"},
		{"--workload", "mc_yield", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestLeafSum: an operation's layer times are its leaf spans; an
// enclosing span and the gaps between spans are in no term.
func TestLeafSum(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Op: 1, Name: "netparse.parse", Start: 0, End: 1},
		{ID: 2, Op: 1, Name: "core.compile", Start: 1, End: 4},
		{ID: 3, Parent: 2, Op: 1, Name: "stamp.system", Start: 1, End: 2},
		{ID: 4, Parent: 2, Op: 1, Name: "core.warm", Start: 2.5, End: 4},
		{ID: 5, Op: 2, Name: "core.run", Start: 5, End: 9},
	}
	if got := tr.leafSum(1); got != 3.5 {
		t.Errorf("leafSum(1) = %g, want 3.5", got)
	}
	if got := tr.leafSum(2); got != 4 {
		t.Errorf("leafSum(2) = %g, want 4", got)
	}
}

// TestCoverageCheck: layer times more than coverageTol away from the
// untraced wall fail the coverage check.
func TestCoverageCheck(t *testing.T) {
	walls := []float64{2, 2, 2}
	for _, c := range []struct {
		share float64
		fail  bool
	}{{1, false}, {0.95, false}, {0.85, true}, {1.15, true}} {
		layers := []float64{2 * c.share, 2 * c.share, 2 * c.share}
		o := &outcome{}
		m := map[string]float64{}
		coverage(config{log: io.Discard}, m, o, walls, walls, layers)
		if got := len(o.checkFailures) > 0; got != c.fail {
			t.Errorf("layers at %.2f of the wall: check failed %v, want %v", c.share, got, c.fail)
		}
		if math.Abs(m["traced.coverage"]-c.share) > 1e-12 {
			t.Errorf("traced.coverage %g, want %g", m["traced.coverage"], c.share)
		}
	}
}
