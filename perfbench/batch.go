package main

// The batch transient workloads (hier_pipeline, tran_stepping): deck
// text in, serialized result out, through the calls cmd/nanosim makes —
// netparse.Parse, core.CompileTransient, (*CompiledTransient).Run — and
// trace.WriteNDJSON to a discarding writer, nanosimd's wire format.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"nanosim/internal/core"
	"nanosim/internal/hier"
	"nanosim/internal/linsolve"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
	"nanosim/internal/stamp"
	"nanosim/internal/trace"
	"nanosim/internal/wave"
)

// tranOptions lowers a deck's first .tran card, .options partition and
// threads= exactly as cmd/nanosim does for the SWEC engine.
func tranOptions(deck *netparse.Deck) (core.Options, error) {
	var opt core.Options
	found := false
	for _, a := range deck.Analyses {
		if a.Kind == "tran" {
			opt = core.Options{TStop: a.TStop, HInit: a.TStep, RecordCurrents: true}
			found = true
			break
		}
	}
	if !found {
		return opt, fmt.Errorf("deck has no .tran card")
	}
	if o := deck.Options; o != nil {
		if o.Partition {
			opt.Partition = &part.Options{GCouple: o.GCouple, NoDormancy: o.NoDormancy}
		}
		opt.Workers = o.Threads
	}
	return opt, nil
}

// countWriter discards bytes and counts them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// tranOp is the outcome of one deck-to-result operation.
type tranOp struct {
	res           *core.Result
	setup, wall   float64 // seconds: Parse+CompileTransient, whole op
	alloc         uint64  // heap bytes allocated
	ndjsonBytes   int64
	blocks, tears int
	parseAlloc    uint64
	timed         *timedFactory
}

// runTranDeck runs one operation. With a tracer it records a span per
// layer call and splits CompileTransient into the calls it makes
// (stamp.NewSystem, part.Build, core.CompilePartition, WarmBlocks);
// with wrap it also hands every block solver the solve-timing wrapper.
// The results are bit-identical either way (checked by the traced run).
// workers >= 0 overrides the deck's threads= (the traced run's 1-worker
// comparison).
func runTranDeck(src string, tr *tracer, op int, workers int, wrap bool) (*tranOp, error) {
	out := &tranOp{}
	a0 := totalAlloc()
	start := time.Now()
	var deck *netparse.Deck
	err := tr.timed(op, 0, "netparse.parse", func() error {
		var err error
		deck, err = netparse.Parse(src)
		if tr != nil {
			out.parseAlloc = totalAlloc() - a0
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	opt, err := tranOptions(deck)
	if err != nil {
		return nil, err
	}
	if workers >= 0 {
		opt.Workers = workers
	}
	var ct *core.CompiledTransient
	if wrap {
		out.timed = newTimedFactory(linsolve.Auto)
		opt.Solver = out.timed.factory
	}
	if tr == nil {
		ct, err = core.CompileTransient(deck.Circuit, opt)
	} else {
		ct, err = tracedCompile(tr, op, deck, opt)
	}
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	out.setup = time.Since(start).Seconds()
	out.blocks = ct.NumBlocks()
	if ct.Par != nil {
		out.tears = len(ct.Par.Tears)
	}
	err = tr.timed(op, 0, "core.run", func() error {
		var err error
		out.res, err = ct.Run()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	var cw countWriter
	err = tr.timed(op, 0, "trace.ndjson", func() error {
		_, err := trace.WriteNDJSON(&cw, out.res.Waves, trace.DefaultChunkSamples)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("ndjson: %w", err)
	}
	out.ndjsonBytes = cw.n
	out.wall = time.Since(start).Seconds()
	out.alloc = totalAlloc() - a0
	return out, nil
}

// tracedCompile is core.CompileTransient split into its layer calls.
func tracedCompile(tr *tracer, op int, deck *netparse.Deck, opt core.Options) (*core.CompiledTransient, error) {
	parent, end := tr.begin(op, 0, "core.compile")
	defer end()
	ckt := deck.Circuit
	if opt.Partition == nil {
		var ct *core.CompiledTransient
		err := tr.timed(op, parent, "core.engine", func() error {
			var err error
			ct, err = core.NewCompiledTransient(ckt, opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		return ct, tr.timed(op, parent, "core.warm", func() error { return ct.WarmBlocks(nil) })
	}
	var sys *stamp.System
	if err := tr.timed(op, parent, "stamp.system", func() error {
		var err error
		sys, err = stamp.NewSystem(ckt)
		return err
	}); err != nil {
		return nil, err
	}
	var p *part.Partition
	if err := tr.timed(op, parent, "part.build", func() error {
		var err error
		p, err = part.Build(ckt, sys, *opt.Partition)
		return err
	}); err != nil {
		return nil, err
	}
	var ct *core.CompiledTransient
	err := tr.timed(op, parent, "core.engine", func() error {
		var err error
		if len(p.Blocks) > 1 {
			ct, err = core.CompilePartition(ckt, sys, p, opt)
		} else {
			// A degenerate partition runs the monolithic engine, which
			// CompileTransient builds from scratch.
			ct, err = core.NewCompiledTransient(ckt, opt)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return ct, tr.timed(op, parent, "core.warm", func() error { return ct.WarmBlocks(nil) })
}

// batchRun is the measured part of a batch workload.
type batchRun struct {
	ops    []*tranOp
	last   *tranOp // result of the final op, kept for the output checks
	peak   float64
	setups []float64 // the ops' set-up times, then the set-up-only ones
}

// setupShare is the share of a run's seconds given to set-up-only
// repetitions after the timed operations. Set-up takes milliseconds on
// tran_stepping, so the dozen operations of a run leave its median at
// the mercy of a few garbage collections; the repetitions add hundreds
// of samples taken the way an operation starts, after a collection.
const setupShare = 0.05

// measureBatch runs one warm-up op, then ops back to back for seconds.
// Each op starts from a collected heap, as a fresh CLI process would.
// Only the final op's result is retained, so two results are never
// live at once.
func measureBatch(src string, seconds float64, o *outcome) (*batchRun, error) {
	br := &batchRun{}
	runtime.GC()
	o.attempted++
	if _, err := runTranDeck(src, nil, 0, -1, false); err != nil {
		o.failed++
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(br.ops) == 0 || time.Now().Before(deadline) {
		br.last = nil
		runtime.GC()
		o.attempted++
		op, err := runTranDeck(src, nil, 0, -1, false)
		if err != nil {
			o.failed++
			return nil, err
		}
		br.last = op
		br.ops = append(br.ops, &tranOp{setup: op.setup, wall: op.wall, alloc: op.alloc})
		br.setups = append(br.setups, op.setup)
	}
	br.peak = peakRSSMB()
	end := time.Now().Add(time.Duration(setupShare * seconds * float64(time.Second)))
	for time.Now().Before(end) {
		runtime.GC()
		start := time.Now()
		deck, opt, err := parseTran(src)
		if err == nil {
			_, err = core.CompileTransient(deck.Circuit, opt)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		br.setups = append(br.setups, time.Since(start).Seconds())
	}
	return br, nil
}

// batchE2E derives the end-to-end metrics of a batch run.
func batchE2E(cfg config, br *batchRun) map[string]float64 {
	var wall, alloc []float64
	for _, op := range br.ops {
		wall = append(wall, op.wall)
		alloc = append(alloc, float64(op.alloc)/1e6)
	}
	m := map[string]float64{
		"setup_s":     median(br.setups),
		"wall_s_p50":  median(wall),
		"ops_per_s":   float64(len(wall)) / sum(wall),
		"alloc_mb":    median(alloc),
		"peak_rss_mb": br.peak,
	}
	n := fmt.Sprintf("n=%d ops", len(wall))
	report(cfg, "setup_s", m["setup_s"], "s", fmt.Sprintf("median Parse+CompileTransient, n=%d (the ops and set-up-only repetitions)", len(br.setups)))
	report(cfg, "wall_s_p50", m["wall_s_p50"], "s", fmt.Sprintf("median deck text to NDJSON result, %s, min %.4g max %.4g", n, quantile(wall, 0), quantile(wall, 1)))
	report(cfg, "ops_per_s", m["ops_per_s"], "1/s", "decks per second back to back")
	report(cfg, "alloc_mb", m["alloc_mb"], "MB", "median heap allocated per op")
	report(cfg, "peak_rss_mb", m["peak_rss_mb"], "MB", "process VmHWM after the timed ops")
	return m
}

// identicalWaves demands bitwise-equal waveform sets.
func identicalWaves(a, b *wave.Set) error {
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		return fmt.Errorf("signal counts differ: %d vs %d", len(an), len(bn))
	}
	for _, name := range an {
		sa, sb := a.Get(name), b.Get(name)
		if sb == nil {
			return fmt.Errorf("signal %s missing from one run", name)
		}
		if len(sa.T) != len(sb.T) {
			return fmt.Errorf("signal %s: %d vs %d samples", name, len(sa.T), len(sb.T))
		}
		for i := range sa.T {
			if math.Float64bits(sa.T[i]) != math.Float64bits(sb.T[i]) || math.Float64bits(sa.V[i]) != math.Float64bits(sb.V[i]) {
				return fmt.Errorf("signal %s diverges at sample %d: (%g, %g) vs (%g, %g)",
					name, i, sa.T[i], sa.V[i], sb.T[i], sb.V[i])
			}
		}
	}
	return nil
}

// identicalResults compares waveforms and the engine's work counters.
func identicalResults(a, b *core.Result) error {
	if err := identicalWaves(a.Waves, b.Waves); err != nil {
		return err
	}
	if a.Stats != b.Stats {
		return fmt.Errorf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	return nil
}

// parseTran parses src and lowers its transient options.
func parseTran(src string) (*netparse.Deck, core.Options, error) {
	deck, err := netparse.Parse(src)
	if err != nil {
		return nil, core.Options{}, err
	}
	opt, err := tranOptions(deck)
	return deck, opt, err
}

// hierReference compiles src through internal/hier and runs it.
func hierReference(src string) (*core.Result, *hier.Report, float64, error) {
	deck, opt, err := parseTran(src)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	ct, rep, err := hier.CompileTransient(deck.Circuit, opt)
	if err != nil {
		return nil, nil, 0, err
	}
	compile := time.Since(start).Seconds()
	res, err := ct.Run()
	return res, rep, compile, err
}

// tracedBatch is the traced run shared by the batch workloads.
// Untraced and span-traced operations alternate, so a slow stretch of
// the machine lands in both alike; spans cost a clock read per layer
// call, so the traced operations' layer times stand for the untraced
// ones. One more operation runs with the solve-timing wrapper, which
// costs two clock reads per solve, for the linsolve metrics, and one at
// 1 worker for the parallel speedup. extra adds workload-specific
// layers.
func tracedBatch(cfg config, src string, o *outcome, extra func(m map[string]float64, ref *core.Result)) (map[string]float64, error) {
	reps := tracedReps
	if cfg.smoke {
		reps = 1
	}
	o.attempted++
	if _, err := runTranDeck(src, nil, 0, -1, false); err != nil { // warm-up
		o.failed++
		return nil, err
	}
	tr := newTracer()
	var ref *core.Result
	var first *tranOp
	var untraced, traced, layers []float64
	var spanOps []int
	for i := 0; i < reps; i++ {
		for _, traceIt := range pairOrder(i) {
			runtime.GC()
			o.attempted++
			if !traceIt {
				u, err := runTranDeck(src, nil, 0, -1, false)
				if err != nil {
					o.failed++
					return nil, err
				}
				untraced = append(untraced, u.wall)
				if ref == nil {
					ref = u.res
				}
				continue
			}
			op, err := runTranDeck(src, tr, i+1, -1, false)
			if err != nil {
				o.failed++
				return nil, err
			}
			o.check("traced result bit-identical to untraced", identicalResults(ref, op.res))
			op.res = nil
			traced = append(traced, op.wall)
			layers = append(layers, tr.leafSum(i+1))
			spanOps = append(spanOps, i+1)
			if first == nil {
				first = op
			}
		}
	}
	runtime.GC()
	o.attempted++
	wrapOp := reps + 1
	wrapped, err := runTranDeck(src, tr, wrapOp, -1, true)
	if err != nil {
		o.failed++
		return nil, err
	}
	o.check("result with the solve-timing wrapper bit-identical to untraced", identicalResults(ref, wrapped.res))
	wrapped.res = nil
	runtime.GC()
	o.attempted++
	w1Op := reps + 2
	w1, err := runTranDeck(src, tr, w1Op, 1, false)
	if err != nil {
		o.failed++
		return nil, err
	}
	o.check("traced 1-worker result bit-identical to untraced", identicalResults(ref, w1.res))
	w1.res = nil

	m := layerMetrics()
	layer := func(name string) float64 { return median(tr.durations(name, spanOps...)) }
	m["netparse.parse_s"] = layer("netparse.parse")
	m["netparse.alloc_mb"] = float64(first.parseAlloc) / 1e6
	m["stamp.system_s"] = layer("stamp.system")
	m["part.build_s"] = layer("part.build")
	m["core.compile_s"] = layer("core.engine")
	m["core.warm_s"] = layer("core.warm")
	m["core.blocks"] = float64(first.blocks)
	m["core.tears"] = float64(first.tears)
	m["core.run_s"] = layer("core.run")
	m["core.run_s_w1"] = sum(tr.durations("core.run", w1Op))
	m["core.parallel_speedup"] = ratio(m["core.run_s_w1"], m["core.run_s"])
	st := ref.Stats
	m["core.steps"] = float64(st.Steps)
	m["core.rejected_frac"] = ratio(float64(st.Rejected), float64(st.Steps+st.Rejected))
	m["core.device_evals_per_step"] = ratio(float64(st.DeviceEvals), float64(st.Steps+st.Rejected))
	m["core.block_skip_frac"] = ratio(float64(st.BlockSkips), float64(st.BlockSolves+st.BlockSkips))
	solves, solveS := wrapped.timed.solveTotals()
	ls := wrapped.timed.stats()
	wrappedRun := sum(tr.durations("core.run", wrapOp))
	m["linsolve.solve_s"] = solveS
	m["linsolve.solves"] = float64(solves)
	m["linsolve.ns_per_solve"] = ratio(solveS*1e9, float64(solves))
	m["linsolve.refactor_frac"] = ratio(float64(ls.NumericRefactor), float64(ls.NumericRefactor+ls.FullFactor))
	m["linsolve.pattern_rebuilds"] = float64(ls.PatternRebuild)
	m["core.run_self_s"] = wrappedRun - solveS
	report(cfg, "wrapped core.run", wrappedRun, "s", fmt.Sprintf("solve-timing wrapper on, %+.1f%% vs core.run_s; run_self_s and linsolve.* come from this op",
		100*ratio(wrappedRun-m["core.run_s"], m["core.run_s"])))
	m["trace.ndjson_s"] = layer("trace.ndjson")
	m["trace.ndjson_mb"] = float64(first.ndjsonBytes) / 1e6
	if extra != nil {
		extra(m, ref)
	}
	coverage(cfg, m, o, untraced, traced, layers)
	writeSpans(cfg, tr)
	return m, nil
}

// tracedReps is how many untraced and traced operations a batch traced
// run alternates.
const tracedReps = 5

// pairOrder says which operation of pair i runs first: untraced (false)
// in even pairs, traced (true) in odd ones, so an order effect cancels
// in the medians. Pair 0 starts untraced and so yields the reference
// result the traced ones are checked against.
func pairOrder(i int) []bool {
	if i%2 == 0 {
		return []bool{false, true}
	}
	return []bool{true, false}
}

// coverageTol bounds how far the traced run's layer times may sum from
// the untraced wall.
const coverageTol = 0.10

// coverage fills the traced-run overhead and coverage metrics from
// paired operations: untraced[i] ran just before the traced operation
// whose wall is traced[i] and whose leaf layer times (tracer.leafSum)
// add up to layers[i]. Pairing keeps a slow stretch of the machine out
// of the comparison. The median layers/untraced ratio must be within
// coverageTol of 1: time spent between layer calls, or in a call no
// span wraps, lowers it, and tracing overhead raises it.
func coverage(cfg config, m map[string]float64, o *outcome, untraced, traced, layers []float64) {
	var over, cov []float64
	for i := range untraced {
		over = append(over, ratio(traced[i]-untraced[i], untraced[i]))
		cov = append(cov, ratio(layers[i], untraced[i]))
	}
	m["traced.overhead_frac"] = median(over)
	m["traced.coverage"] = median(cov)
	report(cfg, "untraced wall", median(untraced), "s", fmt.Sprintf("median of %d", len(untraced)))
	report(cfg, "traced wall", median(traced), "s", fmt.Sprintf("median of %d; overhead %.1f%% (median of pairs)", len(traced), 100*m["traced.overhead_frac"]))
	report(cfg, "leaf layer times", median(layers), "s", fmt.Sprintf("coverage %.3f of the untraced wall (median of pairs)", m["traced.coverage"]))
	// Smoke-sized operations last milliseconds, too short to resolve the
	// tolerance, so the self-tests report coverage without checking it.
	if c := m["traced.coverage"]; !cfg.smoke && math.Abs(c-1) > coverageTol {
		o.check("layer times cover the untraced wall", fmt.Errorf("leaf layer times cover %.3f of the untraced wall (tolerance %.2f)", c, coverageTol))
	}
}

// writeSpans dumps the traced run's spans next to the build output.
func writeSpans(cfg config, tr *tracer) {
	path, err := tr.write(cfg.workDir, fmt.Sprintf("spans-%s-%d.ndjson", cfg.workload, cfg.seed))
	if err != nil {
		fmt.Fprintf(cfg.log, "spans not written: %v\n", err)
		return
	}
	fmt.Fprintf(cfg.log, "spans: %s\n", path)
}

func hierSizeFor(cfg config) hierSize {
	if cfg.smoke {
		return hierSize{stages: 6, rows: 3, cols: 3}
	}
	return hierSize{stages: 500, rows: 10, cols: 10}
}

func runHierPipeline(cfg config) (*outcome, error) {
	src := hierDeck(cfg.seed, hierSizeFor(cfg))
	o := &outcome{}
	if cfg.trace {
		m, err := tracedBatch(cfg, src, o, func(m map[string]float64, ref *core.Result) {
			runtime.GC()
			o.attempted++
			res, rep, compile, err := hierReference(src)
			if err != nil {
				o.check("hier compile", err)
				return
			}
			m["hier.compile_s"] = compile
			m["hier.sharing_factor"] = rep.SharingFactor()
			o.check("hier ≡ flat", identicalResults(ref, res))
		})
		if err != nil {
			return nil, err
		}
		o.metrics = m
		return o, nil
	}
	br, err := measureBatch(src, cfg.seconds, o)
	if err != nil {
		return nil, err
	}
	o.metrics = batchE2E(cfg, br)
	flat := br.last.res
	br.last = nil
	runtime.GC()
	o.attempted++
	res, _, _, err := hierReference(src)
	if err != nil {
		o.check("hier compile", err)
	} else {
		o.check("hier ≡ flat", identicalResults(flat, res))
	}
	return o, nil
}

func pipeSizeFor(cfg config) pipeSize {
	if cfg.smoke {
		return pipeSize{stages: 16, pulsed: 2, tstop: 20e-9}
	}
	return pipeSize{stages: 256, pulsed: 8, tstop: 40e-9}
}

// monoTol is the partitioned-vs-monolithic bound of nanobench's
// partition bench.
const monoTol = 0.03

func runTranStepping(cfg config) (*outcome, error) {
	src := pipelineDeck(cfg.seed, pipeSizeFor(cfg))
	o := &outcome{}
	if cfg.trace {
		m, err := tracedBatch(cfg, src, o, nil)
		if err != nil {
			return nil, err
		}
		o.metrics = m
		return o, nil
	}
	br, err := measureBatch(src, cfg.seconds, o)
	if err != nil {
		return nil, err
	}
	o.metrics = batchE2E(cfg, br)
	ref := br.last.res
	br.last = nil

	// threads=1 ≡ threads=2.
	o.attempted++
	w1, err := runTranDeck(src, nil, 0, 1, false)
	if err != nil {
		o.check("threads=1 run", err)
	} else {
		o.check("threads=1 ≡ threads=2", identicalResults(ref, w1.res))
	}
	// Partitioned ≈ monolithic on the printed nodes.
	o.attempted++
	o.check("partitioned ≈ monolithic", monolithicDeviation(src, ref))
	return o, nil
}

// monolithicDeviation runs src on the monolithic engine and bounds the
// printed nodes' deviation from the partitioned result.
func monolithicDeviation(src string, got *core.Result) error {
	deck, opt, err := parseTran(src)
	if err != nil {
		return err
	}
	opt.Partition, opt.Workers = nil, 0
	mono, err := core.Transient(deck.Circuit, opt)
	if err != nil {
		return err
	}
	worst := 0.0
	for _, sig := range deck.Prints {
		a, b := mono.Waves.Get(sig), got.Waves.Get(sig)
		if a == nil || b == nil {
			return fmt.Errorf("signal %s missing", sig)
		}
		va, vb, err := wave.CompareOn(a, b, 400)
		if err != nil {
			return err
		}
		for i := range va {
			worst = math.Max(worst, math.Abs(va[i]-vb[i]))
		}
	}
	if worst > monoTol {
		return fmt.Errorf("printed nodes deviate by %.4g V (bound %g V)", worst, monoTol)
	}
	return nil
}
