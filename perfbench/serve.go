package main

// The serve_mixed workload: an in-process nanosimd (serve.New, 2
// workers, a durable data dir with fsync off, default admission) behind a
// loopback listener, driven over at most 2 connections by closed-loop
// clients (warm-up, saturation) and by an open-loop Poisson generator
// (light and heavy rates). HTTP/2 cleartext carries every in-flight
// request over those connections, so a long-polled result never holds
// back the next submission. Job latency runs from when the submission
// was due to when its result (and, for some tran jobs, its NDJSON
// stream) has been read in full.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"nanosim/internal/acan"
	"nanosim/internal/core"
	"nanosim/internal/netparse"
	"nanosim/internal/serve"
	"nanosim/internal/setsim"
	"nanosim/internal/vary"
	"nanosim/internal/wave"
)

// Load shape. The rates are fixed, never derived from the machine.
const (
	serveWorkers = 2
	// capacityJobsPerS is the mix's closed-loop saturation throughput
	// (this workload's ops_per_s) as measured on a 2-vCPU x86-64 Linux
	// VM with the data dir on ext4. The open-loop rates are fixed
	// fractions of it. The engine is about a third of a job's CPU time
	// (HTTP, JSON, journal, spill and the client take the rest), so at
	// saturation the workers spend about 35% of their time in the
	// engine, at heavy about 20% and at light about 6%. Every run prints
	// the utilization it measured at each rate.
	capacityJobsPerS = 330.0
	lightRate        = 0.2 * capacityJobsPerS
	heavyRate        = 0.6 * capacityJobsPerS
	// satClients is the closed-loop concurrency of the saturation phase.
	// It keeps both CPUs busy: 32 clients completed no more jobs per
	// second than 8.
	satClients = 8
	// rounds is how many times the saturation, light and heavy phases
	// take turns. Interleaving spreads each phase over the whole run, so
	// a machine slowdown of a few seconds lands in every phase alike
	// instead of in one of them.
	rounds = 5
	// warmJobs is the closed-loop warm-up's job count: more than the
	// 256 waveform payloads the spill ring keeps, so the timed phases see
	// the server's steady state, pruning included, and every run's
	// set-up replays a journal of the same jobs.
	warmJobs = 300
	// restarts is how many times set-up (journal replay to ready) is
	// measured per run.
	restarts = 15
)

// serveHarness is one running server and its client.
type serveHarness struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client
}

func startServe(dataDir string) (*serveHarness, float64, error) {
	start := time.Now()
	srv, err := serve.New(serve.Config{Workers: serveWorkers, DataDir: dataDir})
	if err != nil {
		return nil, 0, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	var sp http.Protocols
	sp.SetHTTP1(true)
	sp.SetUnencryptedHTTP2(true)
	h := &serveHarness{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), Protocols: &sp, HTTP2: &http.HTTP2Config{MaxConcurrentStreams: 4096}},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	var cp http.Protocols
	cp.SetUnencryptedHTTP2(true)
	h.client = &http.Client{Transport: &http.Transport{Protocols: &cp, MaxConnsPerHost: 2}}
	for {
		resp, err := h.client.Get(h.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			h.stop()
			return nil, 0, fmt.Errorf("server not ready after 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return h, time.Since(start).Seconds(), nil
}

// stop closes the listener and its connections, then the server, and
// waits for both. It is called between phases, with no request in
// flight, so nothing needs a graceful drain.
func (h *serveHarness) stop() {
	_ = h.hs.Close()
	<-h.done
	h.srv.Close()
	h.client.CloseIdleConnections()
}

// engineSeconds is the engine time the server has booked so far, over
// every analysis kind.
func engineSeconds(snap serve.MetricsSnapshot) float64 {
	ms := 0.0
	for _, b := range snap.EngineLatency {
		ms += b.TotalMs
	}
	return ms / 1e3
}

// jobOutcome is what the client saw of one submission.
type jobOutcome struct {
	class   string
	deck    string
	id      string
	latency float64 // seconds, from due to result (and stream) read
	lag     float64 // seconds the generator sent late
	refused bool
	err     error
	res     *serve.Result
	// Client stamps: request sent, 202 received, result headers
	// received, result (and stream) read.
	sent, accepted, headers, read time.Time
	// Server stamps from the job's status (traced run only).
	started, finished time.Time
}

func (j *jobOutcome) ok() bool { return j.err == nil && !j.refused }

// doJob submits one deck and reads its result in full.
func (h *serveHarness) doJob(a arrival, due time.Time, tr *tracer, op int) jobOutcome {
	out := jobOutcome{class: a.Class, deck: a.Deck}
	body, err := json.Marshal(serve.SubmitRequest{Deck: a.Deck, Fresh: true})
	if err != nil {
		out.err = err
		return out
	}
	var info serve.JobInfo
	out.sent = time.Now()
	out.lag = out.sent.Sub(due).Seconds()
	err = tr.timed(op, 0, "serve.submit", func() error {
		req, err := http.NewRequest(http.MethodPost, h.base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", "perfbench")
		resp, err := h.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			return json.NewDecoder(resp.Body).Decode(&info)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			out.refused = true
			return nil
		default:
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
	})
	out.accepted = time.Now()
	if err != nil || out.refused {
		out.err = err
		out.latency = time.Since(due).Seconds()
		return out
	}
	out.id = info.ID
	err = tr.timed(op, 0, "serve.result", func() error {
		resp, err := h.client.Get(h.base + "/v1/jobs/" + info.ID + "/result")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		out.headers = time.Now()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		var res serve.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return err
		}
		out.res = &res
		return nil
	})
	if err == nil && a.Stream {
		err = tr.timed(op, 0, "serve.stream", func() error {
			resp, err := h.client.Get(h.base + "/v1/jobs/" + info.ID + "/stream")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("stream: %s", resp.Status)
			}
			n, err := io.Copy(io.Discard, resp.Body)
			if err == nil && n == 0 {
				err = errors.New("stream: empty body")
			}
			return err
		})
	}
	out.read = time.Now()
	out.latency = out.read.Sub(due).Seconds()
	out.err = err
	if tr != nil && err == nil {
		// After the result is read, so the request adds no latency.
		st, err := h.status(info.ID)
		if err != nil {
			out.err = err
		}
		out.started, out.finished = st.Started, st.Finished
	}
	return out
}

func (h *serveHarness) status(id string) (serve.JobInfo, error) {
	var info serve.JobInfo
	resp, err := h.client.Get(h.base + "/v1/jobs/" + id)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("status %s: %s", id, resp.Status)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// phase is one stretch of load, open or closed loop.
type phase struct {
	rate float64 // offered jobs/s (open loop) or completed jobs/s (closed loop)
	jobs []jobOutcome
	// wall is the seconds from the phase start to its last job read;
	// engine is the engine time the server booked meanwhile.
	wall, engine float64
}

func (p *phase) latenciesMs() []float64 {
	var out []float64
	for _, j := range p.jobs {
		if j.ok() {
			out = append(out, 1e3*j.latency)
		}
	}
	return out
}

// utilization is the share of the workers' time spent in the engine.
func (p *phase) utilization() float64 { return ratio(p.engine, serveWorkers*p.wall) }

// add pools q's jobs and times into p.
func (p *phase) add(q *phase) {
	p.jobs = append(p.jobs, q.jobs...)
	p.wall += q.wall
	p.engine += q.engine
}

// runPhase sends the seeded schedule at rate for dur seconds, then waits
// for every job to finish, so phases never overlap.
func (h *serveHarness) runPhase(seed uint64, purpose string, rate, dur float64, pool map[string]string, tr *tracer, opBase int) *phase {
	sched := schedule(seed, purpose, rate, dur, pool)
	p := &phase{rate: rate, jobs: make([]jobOutcome, len(sched))}
	e0 := engineSeconds(h.srv.Metrics())
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(time.Duration(a.At * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			p.jobs[i] = h.doJob(a, due, tr, opBase+i)
		}(i, a)
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	p.engine = engineSeconds(h.srv.Metrics()) - e0
	return p
}

// closedLoop runs satClients clients, each submitting its next job as
// soon as it has read the previous one, for dur seconds or, when jobs >
// 0, until jobs submissions have been made. Its rate is the jobs done
// and read within the window per second: the service's capacity on the
// mix, measured without growing a backlog.
func (h *serveHarness) closedLoop(seed uint64, purpose string, dur float64, jobs int, pool map[string]string) *phase {
	// The schedule only supplies the deck sequence; its times are unused.
	sched := schedule(seed, purpose, 1e4, 1, pool)
	p := &phase{}
	var mu sync.Mutex
	next, inWindow := 0, 0
	e0 := engineSeconds(h.srv.Metrics())
	start := time.Now()
	deadline := start.Add(time.Duration(dur * float64(time.Second)))
	more := func() bool {
		if jobs > 0 {
			return next < jobs
		}
		return time.Now().Before(deadline)
	}
	var wg sync.WaitGroup
	for c := 0; c < satClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if !more() {
					mu.Unlock()
					return
				}
				a := sched[next%len(sched)]
				next++
				mu.Unlock()
				j := h.doJob(a, time.Now(), nil, 0)
				mu.Lock()
				p.jobs = append(p.jobs, j)
				if j.ok() && (jobs > 0 || j.read.Before(deadline)) {
					inWindow++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	p.engine = engineSeconds(h.srv.Metrics()) - e0
	if jobs > 0 {
		dur = p.wall
	}
	p.rate = float64(inWindow) / dur
	return p
}

// servePlan splits the run's seconds across the timed phases (totals
// over all rounds).
type servePlan struct{ saturate, light, heavy float64 }

func planFor(cfg config) servePlan {
	s := cfg.seconds
	return servePlan{saturate: 0.35 * s, light: 0.45 * s, heavy: 0.2 * s}
}

func runServeMixed(cfg config) (*outcome, error) {
	o := &outcome{}
	dataDir := filepath.Join(cfg.workDir, fmt.Sprintf("serve-data-%d-%d", os.Getpid(), cfg.seed))
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	pool := servePool(cfg.seed)
	plan := planFor(cfg)
	warmN := warmJobs
	if cfg.smoke {
		warmN = 30
	}

	h, _, err := startServe(dataDir)
	if err != nil {
		return nil, err
	}
	warm := h.closedLoop(cfg.seed, "warm", 0, warmN, pool)
	phases := []*phase{warm}
	h.stop()

	// Set-up: serve.New on the warm-up's data dir (a journal replay of
	// the same warm-up jobs on every run) until /readyz answers 200,
	// several times. The last restart serves the timed phases.
	var setups []float64
	for i := 0; i < restarts; i++ {
		runtime.GC()
		var ready float64
		h, ready, err = startServe(dataDir)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		setups = append(setups, ready)
		if i < restarts-1 {
			h.stop()
		}
	}
	o.attempted++
	o.check("warm-up jobs durable across restart", durableDone(h, phases))

	var m map[string]float64
	if cfg.trace {
		var traced []*phase
		m, traced = tracedServe(cfg, h, o, pool, plan)
		phases = append(phases, traced...)
	} else {
		var timed []*phase
		m, timed = untracedServe(cfg, h, pool, plan)
		phases = append(phases, timed...)
		m["setup_s"] = median(setups)
		report(cfg, "setup_s", m["setup_s"], "s", fmt.Sprintf("median serve.New on the warm-up's data dir to /readyz 200, n=%d", len(setups)))
	}
	h.stop()

	for _, p := range phases {
		for i := range p.jobs {
			j := &p.jobs[i]
			o.attempted++
			if !j.ok() {
				o.failed++
				if j.err != nil && len(o.checkFailures) < 8 {
					o.checkFailures = append(o.checkFailures, fmt.Sprintf("job %s (%s): %v", j.id, j.class, j.err))
				}
			}
		}
	}
	checkServeResults(o, phases)

	// After the run the server restarts on its data dir, and the last
	// done jobs must come back done.
	h2, _, err := startServe(dataDir)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	o.attempted++
	o.check("done jobs durable across restart", durableDone(h2, phases))
	h2.stop()
	o.metrics = m
	return o, nil
}

// untracedServe runs the timed phases: rounds of closed-loop saturation
// and of open-loop arrivals at the light and the heavy rate.
func untracedServe(cfg config, h *serveHarness, pool map[string]string, plan servePlan) (map[string]float64, []*phase) {
	runtime.GC()
	var satRates []float64
	var satJobs, satWindow float64
	var alloc uint64
	sat, light, heavy := &phase{}, &phase{rate: lightRate}, &phase{rate: heavyRate}
	for r := 0; r < rounds; r++ {
		s := h.closedLoop(cfg.seed, fmt.Sprintf("saturate%d", r), plan.saturate/rounds, 0, pool)
		satRates = append(satRates, s.rate)
		satJobs += s.rate * plan.saturate / rounds
		satWindow += plan.saturate / rounds
		a0 := totalAlloc()
		l := h.runPhase(cfg.seed, fmt.Sprintf("light%d", r), lightRate, plan.light/rounds, pool, nil, 0)
		hv := h.runPhase(cfg.seed, fmt.Sprintf("heavy%d", r), heavyRate, plan.heavy/rounds, pool, nil, 0)
		alloc += totalAlloc() - a0
		sat.add(s)
		light.add(l)
		heavy.add(hv)
	}
	satRate := satJobs / satWindow
	perJob := float64(alloc) / 1e6 / float64(len(light.jobs)+len(heavy.jobs))
	peak := peakRSSMB()
	m := map[string]float64{
		"wall_s_p50":  median(light.latenciesMs()) / 1e3,
		"ops_per_s":   satRate,
		"alloc_mb":    perJob,
		"peak_rss_mb": peak,
	}
	reportLatency(cfg, "light", light)
	reportLatency(cfg, "heavy", heavy)
	report(cfg, "saturation_jobs_per_s", satRate, "1/s", fmt.Sprintf("%d closed-loop clients, jobs read within %d windows / their length; per window %.4g; reported as ops_per_s", satClients, rounds, satRates))
	for _, u := range []struct {
		name string
		p    *phase
	}{{"saturation", sat}, {"light", light}, {"heavy", heavy}} {
		report(cfg, "worker_util."+u.name, u.p.utilization(), "ratio",
			fmt.Sprintf("engine time / (%d workers x phase wall), %d jobs in %.3gs", serveWorkers, len(u.p.jobs), u.p.wall))
	}
	report(cfg, "offered_load", lightRate/satRate, "ratio", fmt.Sprintf("light %.0f/s and heavy %.0f/s (%.2f) against this run's saturation rate", lightRate, heavyRate, heavyRate/satRate))
	report(cfg, "alloc_mb", perJob, "MB", "heap allocated per job, server and client")
	report(cfg, "peak_rss_mb", peak, "MB", "process VmHWM after the load")
	return m, []*phase{sat, light, heavy}
}

func reportLatency(cfg config, name string, p *phase) {
	lat := p.latenciesMs()
	n := fmt.Sprintf("n=%d at %.0f jobs/s", len(lat), p.rate)
	report(cfg, "p50_ms."+name, median(lat), "ms", n)
	report(cfg, "p99_ms."+name, quantile(lat, 0.99), "ms", n+"; nearest rank")
}

// durableDone checks, on a restarted server, that the most recently
// accepted done jobs (fewer than the job records it keeps) come back
// done.
func durableDone(h *serveHarness, phases []*phase) error {
	var done []jobOutcome
	for _, p := range phases {
		for _, j := range p.jobs {
			if j.ok() {
				done = append(done, j)
			}
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].accepted.Before(done[b].accepted) })
	if len(done) > 256 {
		done = done[len(done)-256:]
	}
	for _, j := range done {
		st, err := h.status(j.id)
		if err != nil {
			return err
		}
		if st.State != serve.StateDone {
			return fmt.Errorf("job %s restored as %s", j.id, st.State)
		}
	}
	return nil
}

// resultSummary is the deterministic part of a result document: the
// fields that must equal a library run of the same deck. Solver reuse
// counters are left out; they depend on which warm solver state a job
// checked out.
type resultSummary struct {
	Kind string
	Tran *serve.TranResult
	AC   *serve.ACSweepResult
	Set  *serve.SETJobResult
	MC   *mcSummary
}

type mcSummary struct {
	Trials, Failed int
	Yield          *serve.MCYield
	Stats          []serve.MCSignal
}

func summarize(r *serve.Result) resultSummary {
	s := resultSummary{Kind: r.Kind, Tran: r.Tran, AC: r.AC, Set: r.Set}
	if r.MC != nil {
		s.MC = &mcSummary{Trials: r.MC.Trials, Failed: r.MC.Failed, Yield: r.MC.Yield, Stats: r.MC.Stats}
	}
	return s
}

// libraryResult runs deck through the library the way nanosimd lowers
// it with no request overrides (1 batch worker, the deck's own options).
func libraryResult(src string) (resultSummary, error) {
	deck, err := netparse.Parse(src)
	if err != nil {
		return resultSummary{}, err
	}
	switch {
	case deck.MC != nil:
		opt, err := mcOptions(deck)
		if err != nil {
			return resultSummary{}, err
		}
		opt.Workers = 1
		r, err := vary.MonteCarlo(deck.Circuit, opt)
		if err != nil {
			return resultSummary{}, err
		}
		mc := &mcSummary{Trials: r.Trials, Failed: r.Failed}
		if len(opt.Limits) > 0 {
			mc.Yield = &serve.MCYield{Passed: r.Passed, Yield: r.Yield, YieldSE: r.YieldSE}
		}
		for _, sg := range r.Signals {
			st := serve.MCSignal{Name: sg.Name}
			st.Mean, st.Std = meanStd(sg.Final)
			st.Q05, _ = sg.Quantile(0.05)
			st.Median, _ = sg.Quantile(0.5)
			st.Q95, _ = sg.Quantile(0.95)
			mc.Stats = append(mc.Stats, st)
		}
		return resultSummary{Kind: "mc", MC: mc}, nil
	}
	a := deck.Analyses[0]
	switch a.Kind {
	case "tran":
		opt, err := tranOptions(deck)
		if err != nil {
			return resultSummary{}, err
		}
		r, err := core.Transient(deck.Circuit, opt)
		if err != nil {
			return resultSummary{}, err
		}
		return resultSummary{Kind: "tran", Tran: &serve.TranResult{
			Steps: r.Stats.Steps, Rejected: r.Stats.Rejected, Solves: r.Stats.Solves,
			Blocks: r.Stats.Blocks, Final: finals(r.Waves),
		}}, nil
	case "ac":
		r, err := runAC(deck)
		if err != nil {
			return resultSummary{}, err
		}
		return resultSummary{Kind: "ac", AC: &serve.ACSweepResult{
			Grid: a.ACGrid, Points: len(r.Freqs), FStart: a.From, FStop: a.To,
			NoiseSources: r.NoiseSources, OPIterations: r.OPIterations,
		}}, nil
	case "settran":
		r, err := runSET(deck)
		if err != nil {
			return resultSummary{}, err
		}
		return resultSummary{Kind: "set", Set: &serve.SETJobResult{
			Events: r.Events, EnvSolves: r.EnvSolves, Temp: r.Temp, Seed: a.Seed, Final: finals(r.Waves),
		}}, nil
	}
	return resultSummary{}, fmt.Errorf("no reference for analysis %q", a.Kind)
}

func runAC(deck *netparse.Deck) (*acan.Result, error) {
	a := deck.Analyses[0]
	threads := 0
	if deck.Options != nil {
		threads = deck.Options.Threads
	}
	return acan.AC(deck.Circuit, acan.Options{Grid: a.ACGrid, Points: a.Points, FStart: a.From, FStop: a.To, Workers: threads})
}

func runSET(deck *netparse.Deck) (*setsim.Result, error) {
	a := deck.Analyses[0]
	return setsim.Transient(deck.Circuit, setsim.Options{TStep: a.TStep, TStop: a.TStop, Temp: a.Temp, Seed: a.Seed})
}

// finals mirrors nanosimd's final-sample map (non-finite samples read 0).
func finals(set *wave.Set) map[string]float64 {
	out := map[string]float64{}
	for _, name := range set.Names() {
		out[name] = wave.Finite(set.Get(name).Final(), 0)
	}
	return out
}

// meanStd mirrors nanosimd's population mean and standard deviation of
// the finite entries (NaN marks a failed trial).
func meanStd(vals []float64) (mean, std float64) {
	n := 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			mean += v
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	mean /= float64(n)
	for _, v := range vals {
		if !math.IsNaN(v) {
			std += (v - mean) * (v - mean)
		}
	}
	return mean, math.Sqrt(std / float64(n))
}

// checkServeResults compares every done job's result with a library run
// of the same deck, computing one reference per distinct deck on
// serveWorkers goroutines.
func checkServeResults(o *outcome, phases []*phase) {
	var decks []string
	seen := map[string]bool{}
	for _, p := range phases {
		for _, j := range p.jobs {
			if j.ok() && !seen[j.deck] {
				seen[j.deck] = true
				decks = append(decks, j.deck)
			}
		}
	}
	type ref struct {
		sum resultSummary
		err error
	}
	refs := make([]ref, len(decks))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i].sum, refs[i].err = libraryResult(decks[i])
			}
		}()
	}
	for i := range decks {
		next <- i
	}
	close(next)
	wg.Wait()
	index := map[string]int{}
	for i, d := range decks {
		index[d] = i
	}
	mismatches := 0
	for _, p := range phases {
		for _, j := range p.jobs {
			if !j.ok() {
				continue
			}
			r := refs[index[j.deck]]
			var err error
			switch {
			case r.err != nil:
				err = fmt.Errorf("library run: %w", r.err)
			case j.res == nil:
				err = errors.New("no result document")
			case !reflect.DeepEqual(summarize(j.res), r.sum):
				got, _ := json.Marshal(summarize(j.res))
				want, _ := json.Marshal(r.sum)
				err = fmt.Errorf("result differs from the library run:\n  got  %s\n  want %s", got, want)
			}
			if err != nil {
				o.failed++
				mismatches++
				if mismatches <= 4 {
					o.checkFailures = append(o.checkFailures, fmt.Sprintf("job %s (%s): %v", j.id, j.class, err))
				}
			}
		}
	}
	if mismatches > 4 {
		o.checkFailures = append(o.checkFailures, fmt.Sprintf("%d more result mismatches", mismatches-4))
	}
}

// tracedServe runs a light phase untraced (the reference for the
// tracing overhead), then a light and a heavy phase traced, each drawing
// its own fresh decks, and times netparse, acan and setsim on the mix's
// pooled .ac and .set decks. The server's counters are read as deltas
// over the traced phases.
func tracedServe(cfg config, h *serveHarness, o *outcome, pool map[string]string, plan servePlan) (map[string]float64, []*phase) {
	m := layerMetrics()
	untraced := h.runPhase(cfg.seed, "light_ref", lightRate, plan.light, pool, nil, 0)
	tr := newTracer()
	m0 := h.srv.Metrics()
	light := h.runPhase(cfg.seed, "light_traced", lightRate, plan.light, pool, tr, 1)
	m1 := h.srv.Metrics()
	heavy := h.runPhase(cfg.seed, "heavy_traced", heavyRate, plan.heavy, pool, tr, 1+len(light.jobs))
	m2 := h.srv.Metrics()
	phases := []*phase{untraced, light, heavy}

	var submits, results, lags []float64
	refused, total := 0, 0
	for _, p := range phases[1:] {
		for _, j := range p.jobs {
			total++
			if j.refused {
				refused++
			}
			lags = append(lags, 1e3*j.lag)
			if !j.ok() {
				continue
			}
			submits = append(submits, 1e3*j.accepted.Sub(j.sent).Seconds())
			results = append(results, 1e3*j.read.Sub(j.finished).Seconds())
		}
	}
	m["serve.submit_ms_p99"] = quantile(submits, 0.99)
	m["serve.queue_wait_ms_p99"] = m2.Admission.QueueWait.P99Ms
	for _, kind := range []string{"tran", "mc", "ac", "set"} {
		m["serve.engine_ms_p50."+kind] = m2.EngineLatency[kind].P50Ms
	}
	m["serve.result_ms_p50"] = median(results)
	hits, compiles := m2.DeckCache.Hits-m0.DeckCache.Hits, m2.DeckCache.Compiles-m0.DeckCache.Compiles
	m["serve.deck_cache_hit_frac"] = ratio(float64(hits), float64(hits+compiles))
	m["serve.warm_checkout_frac"] = ratio(float64(m2.Solver.Warm-m0.Solver.Warm), float64(m2.Solver.Checkouts-m0.Solver.Checkouts))
	if m2.Store != nil {
		m["serve.journal_mb"] = float64(m2.Store.JournalBytes) / 1e6
		m["serve.spill_mb"] = float64(m2.Store.WaveSpillBytes) / 1e6
	}
	m["serve.rejected_frac"] = ratio(float64(refused), float64(total))
	m["serve.worker_util.light"] = light.utilization()
	m["serve.worker_util.heavy"] = heavy.utilization()
	m["serve.p50_ms.heavy"] = median(heavy.latenciesMs())
	m["serve.p99_ms.light"] = quantile(light.latenciesMs(), 0.99)
	m["serve.p99_ms.heavy"] = quantile(heavy.latenciesMs(), 0.99)
	m["load.lag_ms_p99"] = quantile(lags, 0.99)

	// netparse, acan and setsim, timed directly on the mix's decks.
	var parseS, parseMB, acS, kmcS []float64
	parse := func(src string) (*netparse.Deck, error) {
		a0, start := totalAlloc(), time.Now()
		deck, err := netparse.Parse(src)
		parseS = append(parseS, time.Since(start).Seconds())
		parseMB = append(parseMB, float64(totalAlloc()-a0)/1e6)
		return deck, err
	}
	events := 0
	for i := 0; i < 20; i++ {
		o.attempted++
		deck, err := parse(pool[classAC])
		if err == nil {
			start := time.Now()
			_, err = runAC(deck)
			acS = append(acS, time.Since(start).Seconds())
		}
		o.check("acan.AC on the mix's .ac deck", err)
		o.attempted++
		deck, err = parse(pool[classSET])
		if err == nil {
			start := time.Now()
			var r *setsim.Result
			r, err = runSET(deck)
			kmcS = append(kmcS, time.Since(start).Seconds())
			if err == nil {
				events = r.Events
			}
		}
		o.check("setsim.Transient on the mix's .set deck", err)
	}
	m["netparse.parse_s"] = median(parseS)
	m["netparse.alloc_mb"] = median(parseMB)
	m["acan.ac_s"] = median(acS)
	m["setsim.kmc_s"] = median(kmcS)
	m["setsim.events_per_s"] = ratio(float64(events), m["setsim.kmc_s"])

	// Coverage of the traced light phase. Per job: the generator's
	// lateness, the submit (POST to 202), the wait from the 202 to the
	// server's start stamp (negative when an idle worker starts the job
	// before the 202 arrives), the commit from the server's finish stamp
	// to the result headers (journal, waveform spill and prune), and the
	// result and stream transfer; plus the engine time the server booked
	// over the phase. What a worker does between its start and finish
	// stamps outside the engine is in no layer.
	var layerS, latS float64
	for _, j := range light.jobs {
		if !j.ok() {
			continue
		}
		layerS += j.lag + j.accepted.Sub(j.sent).Seconds() + j.started.Sub(j.accepted).Seconds() +
			j.headers.Sub(j.finished).Seconds() + j.read.Sub(j.headers).Seconds()
		latS += j.latency
	}
	layerS += engineSeconds(m1) - engineSeconds(m0)
	uw := median(untraced.latenciesMs()) / 1e3
	tw := median(light.latenciesMs()) / 1e3
	m["traced.overhead_frac"] = ratio(tw-uw, uw)
	m["traced.coverage"] = ratio(layerS, latS)
	report(cfg, "untraced light p50", uw, "s", fmt.Sprintf("n=%d", len(untraced.jobs)))
	report(cfg, "traced light p50", tw, "s", fmt.Sprintf("overhead %.1f%%", 100*m["traced.overhead_frac"]))
	report(cfg, "light layer times", layerS, "s", fmt.Sprintf("coverage %.3f of the traced light jobs' summed latency %.4gs", m["traced.coverage"], latS))
	if c := m["traced.coverage"]; !cfg.smoke && math.Abs(c-1) > coverageTol {
		o.check("layer times cover the job latency", fmt.Errorf("layer times cover %.3f of the traced light latency (tolerance %.2f)", c, coverageTol))
	}
	writeSpans(cfg, tr)
	return m, phases
}
