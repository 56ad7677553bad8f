package main

// The mc_yield workload: a .mc deck parsed, lowered to vary options the
// way cmd/nanosim's runMC lowers them, run through nanosim.Vary, and its
// envelope set serialized as NDJSON.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"nanosim"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
	"nanosim/internal/trace"
	"nanosim/internal/vary"
	"nanosim/internal/wave"
)

// mcOptions lowers a deck's .mc/.vary/.limit/.print cards exactly as
// cmd/nanosim's runMC does with no command-line overrides.
func mcOptions(deck *netparse.Deck) (nanosim.VaryOptions, error) {
	var opt nanosim.VaryOptions
	if deck.MC == nil || len(deck.Varies) == 0 {
		return opt, fmt.Errorf("deck needs a .mc card and at least one .vary card")
	}
	var popt *nanosim.PartitionOptions
	threads := 0
	if o := deck.Options; o != nil {
		if o.Partition {
			popt = &part.Options{GCouple: o.GCouple, NoDormancy: o.NoDormancy}
		}
		threads = o.Threads
	}
	job := nanosim.VaryJob{Analysis: deck.MC.Analysis}
	if job.Analysis == "" {
		job.Analysis = "tran"
	}
	if job.Analysis != "tran" {
		return opt, fmt.Errorf(".mc %s: only tran batches are lowered here", job.Analysis)
	}
	tranFound := false
	for _, a := range deck.Analyses {
		if a.Kind == "tran" {
			job.Tran = nanosim.TranOptions{TStop: a.TStop, HInit: a.TStep, RecordCurrents: true, Partition: popt, Workers: threads}
			tranFound = true
			break
		}
	}
	if !tranFound {
		return opt, fmt.Errorf(".mc tran needs a .tran card")
	}
	opt = nanosim.VaryOptions{
		Job:     job,
		Signals: append([]string(nil), deck.Prints...),
		Trials:  deck.MC.Trials,
		Seed:    deck.MC.Seed,
		Workers: deck.MC.Workers,
	}
	for _, v := range deck.Varies {
		dist, err := nanosim.ParseVaryDist(v.Dist)
		if err != nil {
			return opt, fmt.Errorf("netlist line %d: %w", v.Line, err)
		}
		opt.Specs = append(opt.Specs, nanosim.VarySpec{
			Elem: v.Elem, Param: v.Param, Dist: dist,
			Sigma: v.Sigma, Rel: v.Rel, Lot: v.Lot,
		})
	}
	for _, l := range deck.Limits {
		opt.Limits = append(opt.Limits, nanosim.VaryLimit{Signal: l.Signal, Stat: l.Stat, Lo: l.Lo, Hi: l.Hi})
	}
	return opt, nil
}

// envelopeSet collects the mean and quantile-band series a .mc result
// streams.
func envelopeSet(res *vary.Result) (*wave.Set, error) {
	env := wave.NewSet()
	for _, sg := range res.Signals {
		for _, s := range []*wave.Series{sg.Mean, sg.QLo, sg.QHi} {
			if s != nil {
				if err := env.Add(s); err != nil {
					return nil, err
				}
			}
		}
	}
	return env, nil
}

// mcOp is one .mc deck-to-result operation.
type mcOp struct {
	res                  *vary.Result
	deck                 *netparse.Deck
	opt                  vary.Options
	setup, wall          float64
	alloc, parseAlloc    uint64
	ndjsonBytes          int64
	trials, failedTrials int
}

func runMCDeck(src string, tr *tracer, op int) (*mcOp, error) {
	out := &mcOp{}
	a0 := totalAlloc()
	start := time.Now()
	err := tr.timed(op, 0, "netparse.parse", func() error {
		var err error
		out.deck, err = netparse.Parse(src)
		if tr != nil {
			out.parseAlloc = totalAlloc() - a0
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	err = tr.timed(op, 0, "mc.lower", func() error {
		var err error
		out.opt, err = mcOptions(out.deck)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(start).Seconds()
	err = tr.timed(op, 0, "vary.montecarlo", func() error {
		var err error
		out.res, err = nanosim.Vary(out.deck.Circuit, out.opt)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("vary: %w", err)
	}
	var cw countWriter
	err = tr.timed(op, 0, "trace.ndjson", func() error {
		env, err := envelopeSet(out.res)
		if err != nil {
			return err
		}
		_, err = trace.WriteNDJSON(&cw, env, trace.DefaultChunkSamples)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("ndjson: %w", err)
	}
	out.ndjsonBytes = cw.n
	out.wall = time.Since(start).Seconds()
	out.alloc = totalAlloc() - a0
	out.trials, out.failedTrials = out.res.Trials, out.res.Failed
	return out, nil
}

// sameMC compares the deterministic fields of two batches: trial and
// failure counts, yield, and every signal's mean envelope, bit for bit.
func sameMC(a, b *vary.Result) error {
	if a.Trials != b.Trials || a.Failed != b.Failed || a.Passed != b.Passed {
		return fmt.Errorf("trials/failed/passed %d/%d/%d vs %d/%d/%d", a.Trials, a.Failed, a.Passed, b.Trials, b.Failed, b.Passed)
	}
	if math.Float64bits(a.Yield) != math.Float64bits(b.Yield) {
		return fmt.Errorf("yield %v vs %v", a.Yield, b.Yield)
	}
	if len(a.Signals) != len(b.Signals) {
		return fmt.Errorf("%d vs %d signals", len(a.Signals), len(b.Signals))
	}
	for i, sa := range a.Signals {
		sb := b.Signals[i]
		if sa.Name != sb.Name {
			return fmt.Errorf("signal %d: %s vs %s", i, sa.Name, sb.Name)
		}
		if (sa.Mean == nil) != (sb.Mean == nil) {
			return fmt.Errorf("signal %s: mean envelope present in one batch only", sa.Name)
		}
		if sa.Mean == nil {
			continue
		}
		set := func(s *wave.Series) *wave.Set {
			ws := wave.NewSet()
			_ = ws.Add(s) // a fresh set takes any one series
			return ws
		}
		if err := identicalWaves(set(sa.Mean), set(sb.Mean)); err != nil {
			return fmt.Errorf("mean envelope: %w", err)
		}
	}
	return nil
}

// mcChecks runs the output checks against the 2-worker result ref:
// workers=1 ≡ workers=2, and MergeShards over 32-aligned MonteCarloShard
// ranges ≡ the single-process batch. It returns the 1-worker vary time
// and the shard and merge times for the traced run.
func mcChecks(o *outcome, ref *mcOp) (w1S, shardS, mergeS float64) {
	opt := ref.opt
	opt.Workers = 1
	runtime.GC()
	o.attempted++
	start := time.Now()
	w1, err := nanosim.Vary(ref.deck.Circuit, opt)
	w1S = time.Since(start).Seconds()
	if err != nil {
		o.check("workers=1 batch", err)
	} else {
		o.check("workers=1 ≡ workers=2", sameMC(w1, ref.res))
	}

	o.attempted++
	var shards []*vary.ShardResult
	for _, rng := range vary.ShardRanges(ref.opt.Trials, 3) {
		start := time.Now()
		sh, err := vary.MonteCarloShard(ref.deck.Circuit, ref.opt, rng)
		shardS += time.Since(start).Seconds()
		if err != nil {
			o.check("MonteCarloShard "+rng.String(), err)
			return w1S, shardS, mergeS
		}
		shards = append(shards, sh)
	}
	start = time.Now()
	merged, err := vary.MergeShards(ref.deck.Circuit, ref.opt, shards)
	mergeS = time.Since(start).Seconds()
	if err != nil {
		o.check("MergeShards", err)
	} else {
		o.check("merged shards ≡ single process", sameMC(merged, ref.res))
	}
	return w1S, shardS, mergeS
}

func mcSizeFor(cfg config) mcSize {
	if cfg.smoke {
		return mcSize{stages: 3, trials: 40}
	}
	return mcSize{stages: 8, trials: 256}
}

func runMCYield(cfg config) (*outcome, error) {
	src := mcDeck(cfg.seed, mcSizeFor(cfg))
	o := &outcome{}
	if cfg.trace {
		return tracedMC(cfg, src, o)
	}
	runtime.GC()
	if _, err := countedMC(o, src, nil, 0); err != nil { // warm-up
		return nil, err
	}
	var setup, wall, alloc []float64
	trials := 0
	var last *mcOp
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(wall) == 0 || time.Now().Before(deadline) {
		last = nil
		runtime.GC()
		op, err := countedMC(o, src, nil, 0)
		if err != nil {
			return nil, err
		}
		last = op
		setup = append(setup, op.setup)
		wall = append(wall, op.wall)
		alloc = append(alloc, float64(op.alloc)/1e6)
		trials += op.trials
	}
	peak := peakRSSMB()
	o.metrics = map[string]float64{
		"setup_s":     median(setup),
		"wall_s_p50":  median(wall),
		"ops_per_s":   float64(trials) / sum(wall),
		"alloc_mb":    median(alloc),
		"peak_rss_mb": peak,
	}
	n := fmt.Sprintf("n=%d decks of %d trials", len(wall), last.trials)
	report(cfg, "setup_s", o.metrics["setup_s"], "s", "median Parse + option lowering, "+n)
	report(cfg, "wall_s_p50", o.metrics["wall_s_p50"], "s", fmt.Sprintf("median .mc deck text to NDJSON envelope, %s, min %.4g max %.4g", n, quantile(wall, 0), quantile(wall, 1)))
	report(cfg, "trials_per_s", o.metrics["ops_per_s"], "1/s", "reported as ops_per_s")
	report(cfg, "alloc_mb", o.metrics["alloc_mb"], "MB", "median heap allocated per deck")
	report(cfg, "peak_rss_mb", peak, "MB", "process VmHWM after the timed decks")
	mcChecks(o, last)
	return o, nil
}

// countedMC runs one deck and books its trials as attempted operations
// and its failed trials as failures.
func countedMC(o *outcome, src string, tr *tracer, op int) (*mcOp, error) {
	res, err := runMCDeck(src, tr, op)
	if err != nil {
		o.attempted++
		o.failed++
		return nil, err
	}
	o.attempted += res.trials
	o.failed += res.failedTrials
	return res, nil
}

// tracedMC alternates untraced and traced decks in pairs, as tracedBatch
// does, then runs the 1-worker and shard checks, timed at the call
// level.
func tracedMC(cfg config, src string, o *outcome) (*outcome, error) {
	reps := tracedReps
	if cfg.smoke {
		reps = 1
	}
	if _, err := countedMC(o, src, nil, 0); err != nil { // warm-up
		return nil, err
	}
	tr := newTracer()
	var untraced, traced, layers []float64
	var ops []int
	var ref, first *mcOp
	for i := 0; i < reps; i++ {
		for _, traceIt := range pairOrder(i) {
			runtime.GC()
			if !traceIt {
				u, err := countedMC(o, src, nil, 0)
				if err != nil {
					return nil, err
				}
				untraced = append(untraced, u.wall)
				if ref == nil {
					ref = u
				}
				continue
			}
			op, err := countedMC(o, src, tr, i+1)
			if err != nil {
				return nil, err
			}
			o.check("traced batch ≡ untraced", sameMC(ref.res, op.res))
			traced = append(traced, op.wall)
			layers = append(layers, tr.leafSum(i+1))
			ops = append(ops, i+1)
			if first == nil {
				first = op
			}
		}
	}
	w1S, shardS, mergeS := mcChecks(o, ref)
	m := layerMetrics()
	m["netparse.parse_s"] = median(tr.durations("netparse.parse", ops...))
	m["netparse.alloc_mb"] = float64(first.parseAlloc) / 1e6
	m["trace.ndjson_s"] = median(tr.durations("trace.ndjson", ops...))
	m["trace.ndjson_mb"] = float64(first.ndjsonBytes) / 1e6
	m["vary.run_s"] = median(tr.durations("vary.montecarlo", ops...))
	m["vary.shard_s"] = shardS
	m["vary.merge_s"] = mergeS
	m["vary.trials_per_s_w1"] = ratio(float64(ref.trials), w1S)
	m["vary.parallel_speedup"] = ratio(w1S, m["vary.run_s"])
	m["vary.failed_frac"] = ratio(float64(ref.failedTrials), float64(ref.trials))
	coverage(cfg, m, o, untraced, traced, layers)
	writeSpans(cfg, tr)
	o.metrics = m
	return o, nil
}
