package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the untraced metrics every workload reports (BENCHMARK.json
// "end_to_end"). Each has one meaning per workload, see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s_p50", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced-run metrics (BENCHMARK.json "per_layer").
// Every traced run reports all of them; a layer the workload's path
// never calls reports 0.
var perLayer = []metricDef{
	{"netparse.parse_s", "s", "lower"},
	{"netparse.alloc_mb", "MB", "lower"},
	{"stamp.system_s", "s", "lower"},
	{"part.build_s", "s", "lower"},
	{"core.compile_s", "s", "lower"},
	{"core.warm_s", "s", "lower"},
	{"core.blocks", "count", "lower"},
	{"core.tears", "count", "lower"},
	{"hier.compile_s", "s", "lower"},
	{"hier.sharing_factor", "ratio", "higher"},
	{"core.run_s", "s", "lower"},
	{"core.run_self_s", "s", "lower"},
	{"core.steps", "count", "lower"},
	{"core.rejected_frac", "ratio", "lower"},
	{"core.device_evals_per_step", "count", "lower"},
	{"core.block_skip_frac", "ratio", "higher"},
	{"core.run_s_w1", "s", "lower"},
	{"core.parallel_speedup", "ratio", "higher"},
	{"linsolve.solve_s", "s", "lower"},
	{"linsolve.solves", "count", "lower"},
	{"linsolve.ns_per_solve", "ns", "lower"},
	{"linsolve.refactor_frac", "ratio", "higher"},
	{"linsolve.pattern_rebuilds", "count", "lower"},
	{"trace.ndjson_s", "s", "lower"},
	{"trace.ndjson_mb", "MB", "lower"},
	{"vary.run_s", "s", "lower"},
	{"vary.shard_s", "s", "lower"},
	{"vary.merge_s", "s", "lower"},
	{"vary.trials_per_s_w1", "1/s", "higher"},
	{"vary.parallel_speedup", "ratio", "higher"},
	{"vary.failed_frac", "ratio", "lower"},
	{"serve.submit_ms_p99", "ms", "lower"},
	{"serve.queue_wait_ms_p99", "ms", "lower"},
	{"serve.engine_ms_p50.tran", "ms", "lower"},
	{"serve.engine_ms_p50.mc", "ms", "lower"},
	{"serve.engine_ms_p50.ac", "ms", "lower"},
	{"serve.engine_ms_p50.set", "ms", "lower"},
	{"serve.result_ms_p50", "ms", "lower"},
	{"serve.deck_cache_hit_frac", "ratio", "higher"},
	{"serve.warm_checkout_frac", "ratio", "higher"},
	{"serve.journal_mb", "MB", "lower"},
	{"serve.spill_mb", "MB", "lower"},
	{"serve.rejected_frac", "ratio", "lower"},
	{"serve.worker_util.light", "ratio", "lower"},
	{"serve.worker_util.heavy", "ratio", "lower"},
	{"serve.p50_ms.heavy", "ms", "lower"},
	{"serve.p99_ms.light", "ms", "lower"},
	{"serve.p99_ms.heavy", "ms", "lower"},
	{"load.lag_ms_p99", "ms", "lower"},
	{"acan.ac_s", "s", "lower"},
	{"setsim.kmc_s", "s", "lower"},
	{"setsim.events_per_s", "1/s", "higher"},
	{"traced.overhead_frac", "ratio", "lower"},
	{"traced.coverage", "ratio", "higher"},
}

// median returns the middle value (mean of the middle two), 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile, 0 if empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// totalAlloc reads the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB (1e6
// bytes, as every MB figure here). Where /proc
// is unavailable it falls back to the bytes the Go runtime obtained
// from the OS, an upper bound on the live heap's footprint.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
