package main

// Tracing for the per-layer run. Spans are recorded by the benchmark's
// own code around each call into a layer's public functions; nothing
// inside the program is instrumented. A nil *tracer is tracing off: its
// methods cost a nil check and record nothing.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nanosim/internal/flop"
	"nanosim/internal/linsolve"
)

// span is one timed layer call. Spans of one operation share Op; Parent
// names the enclosing span (0 for a top-level span of the operation).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the tracer was created
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(op, parent int, name string) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0).Seconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0).Seconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// timed runs fn inside a span.
func (t *tracer) timed(op, parent int, name string, fn func() error) error {
	_, end := t.begin(op, parent, name)
	defer end()
	return fn()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations lists the durations of every span named name, in order,
// keeping only the given operations' spans when ops are given.
func (t *tracer) durations(name string, ops ...int) []float64 {
	keep := map[int]bool{}
	for _, op := range ops {
		keep[op] = true
	}
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name && (len(ops) == 0 || keep[s.Op]) {
			out = append(out, s.dur())
		}
	}
	return out
}

// leafSum adds up the layer times of one operation: the durations of
// its leaf spans (spans no other span encloses). Time the operation
// spends outside every leaf span is in no term.
func (t *tracer) leafSum(op int) float64 {
	spans := t.snapshot()
	inner := map[int]bool{}
	for _, s := range spans {
		inner[s.Parent] = true
	}
	total := 0.0
	for _, s := range spans {
		if s.Op == op && !inner[s.ID] {
			total += s.dur()
		}
	}
	return total
}

// write stores the spans as NDJSON under dir and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	return path, f.Close()
}

// timedFactory wraps a linsolve.Factory so every solver it builds times
// its Solve calls. It forwards linsolve.Warmer and linsolve.Refactorable,
// the two capabilities the core transient path asserts, so wrapping
// leaves results bit-identical. It must not be used where callers assert
// concrete solver types or unexported interfaces (internal/hier's
// TemplateOf, the multi-RHS lanes, vary's CarriesPivotOrder), because
// there a wrapper would change behaviour.
type timedFactory struct {
	base linsolve.Factory
	mu   sync.Mutex
	made []*timedSolver
}

func newTimedFactory(base linsolve.Factory) *timedFactory {
	return &timedFactory{base: base}
}

// factory is the linsolve.Factory to hand to core.Options.Solver.
func (f *timedFactory) factory(n int, fc *flop.Counter) linsolve.Solver {
	s := &timedSolver{Solver: f.base(n, fc)}
	f.mu.Lock()
	f.made = append(f.made, s)
	f.mu.Unlock()
	return s
}

// solveTotals sums the solve count and time over every built solver.
func (f *timedFactory) solveTotals() (solves int64, seconds float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ns int64
	for _, s := range f.made {
		solves += s.solves.Load()
		ns += s.ns.Load()
	}
	return solves, float64(ns) / 1e9
}

// stats sums the backends' factorization counters.
func (f *timedFactory) stats() linsolve.SolveStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var st linsolve.SolveStats
	for _, s := range f.made {
		st.Accumulate(s.SolveStats())
	}
	return st
}

// timedSolver counts per solver, so worker goroutines stepping different
// blocks never contend on one counter's cache line.
type timedSolver struct {
	linsolve.Solver
	solves atomic.Int64
	ns     atomic.Int64
}

func (s *timedSolver) Solve(b, x []float64) error {
	start := time.Now()
	err := s.Solver.Solve(b, x)
	s.ns.Add(int64(time.Since(start)))
	s.solves.Add(1)
	return err
}

// Warm forwards linsolve.Warmer. A backend without it is history-free
// and the engine skips its warm, which a no-op reproduces.
func (s *timedSolver) Warm() error {
	if w, ok := s.Solver.(linsolve.Warmer); ok {
		return w.Warm()
	}
	return nil
}

// SolveStats forwards linsolve.Refactorable.
func (s *timedSolver) SolveStats() linsolve.SolveStats {
	if r, ok := s.Solver.(linsolve.Refactorable); ok {
		return r.SolveStats()
	}
	return linsolve.SolveStats{}
}
