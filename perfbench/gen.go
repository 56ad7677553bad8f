package main

// Seeded input generators. Every workload's inputs are a pure function
// of (workload, seed): sizes are fixed, the seed moves only element
// values, drive timing and (for serve_mixed) arrival times and deck
// choice. The seeded ranges are narrow so that a new seed gives new
// inputs without changing how much work they take, since the benchmark
// compares runs made with different seeds: adaptive time stepping
// reacts to supply and edge-timing changes of a percent with several
// percent more steps, so supplies stay fixed and drive timing moves by
// picoseconds, while passive values move by up to a few percent. The program under test receives nothing but the deck text and
// the HTTP requests built here.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
)

// newRand returns the generator stream for one (seed, purpose) pair.
// Distinct purposes draw independent streams, so adding a draw to one
// generator never shifts another's inputs.
func newRand(seed uint64, purpose string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(purpose); i++ {
		h ^= uint64(purpose[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// between draws uniformly from [lo, hi).
func between(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// num renders a value with enough digits to round-trip the draw.
func num(v float64) string { return fmt.Sprintf("%.6g", v) }

// hierSize fixes the hier_pipeline shape: stages of a rows x cols mesh.
type hierSize struct{ stages, rows, cols int }

// hierDeck generates a hierarchical .subckt RTD-mesh pipeline, shaped
// like exp.HierPipelineDeck: every stage is one X instance of a single
// master (so the hierarchical compiler can share it), each stage a mesh
// of RTD cells off a local rail, stages coupled by a weak resistor. The
// seed moves the master's element values, the supply, the load and the
// drive pulse timing; all instances stay congruent.
func hierDeck(seed uint64, sz hierSize) string {
	r := newRand(seed, "hier_pipeline")
	var b strings.Builder
	fmt.Fprintf(&b, "* hier pipeline: %d stages of a %dx%d RTD mesh (seed %d)\n", sz.stages, sz.rows, sz.cols, seed)
	b.WriteString("VDD vdd 0 0.55\n")
	fmt.Fprintf(&b, "VIN drv 0 PULSE(0.1 0.9 %sn 0.5n 0.5n 3n 8n)\n", num(between(r, 0.499, 0.501)))
	prev := "drv"
	for i := 0; i < sz.stages; i++ {
		out := fmt.Sprintf("s%d", i)
		fmt.Fprintf(&b, "X%d vdd %s %s stage\n", i, prev, out)
		prev = out
	}
	fmt.Fprintf(&b, "RL %s 0 %s\n", prev, num(between(r, 0.95e6, 1.05e6)))
	b.WriteString(".subckt stage vdd in out\n")
	fmt.Fprintf(&b, "RS vdd rail %s\n", num(between(r, 49, 51)))
	fmt.Fprintf(&b, "RC in n0x0 %s\n", num(between(r, 245e3, 255e3)))
	node := func(row, col int) string {
		if row == sz.rows-1 && col == sz.cols-1 {
			return "out"
		}
		return fmt.Sprintf("n%dx%d", row, col)
	}
	rMesh, cCell := between(r, 297, 303), between(r, 9.9e-15, 10.1e-15)
	for row := 0; row < sz.rows; row++ {
		for col := 0; col < sz.cols; col++ {
			nd := node(row, col)
			fmt.Fprintf(&b, "R%dx%d rail %s %s\n", row, col, nd, num(rMesh+10*float64((row+col)%4)))
			fmt.Fprintf(&b, "N%dx%d %s 0 rtd\n", row, col, nd)
			fmt.Fprintf(&b, "C%dx%d %s 0 %s\n", row, col, nd, num(cCell))
			if col > 0 {
				fmt.Fprintf(&b, "RH%dx%d %s %s %s\n", row, col, node(row, col-1), nd, num(rMesh))
			}
			if row > 0 {
				fmt.Fprintf(&b, "RV%dx%d %s %s %s\n", row, col, node(row-1, col), nd, num(rMesh))
			}
		}
	}
	b.WriteString(".ends\n.model rtd RTD\n")
	b.WriteString(".options partition threads=2\n")
	b.WriteString(".tran 0.1n 2n\n")
	b.WriteString(".end\n")
	return b.String()
}

// pipeSize fixes the tran_stepping shape.
type pipeSize struct {
	stages, pulsed int
	tstop          float64 // seconds
}

// pipelineDeck generates a flat RTD pipeline, shaped like
// exp.RTDPipeline: RC-loaded RTD stages off a shared rail, the first
// `pulsed` stages driven by their own pulse sources, neighbours coupled
// through weak resistors. The deck asks for the partitioned engine with
// dormancy off and two threads, so every block steps every step. The
// seed moves the stage values and the pulse timing.
func pipelineDeck(seed uint64, sz pipeSize) string {
	r := newRand(seed, "tran_stepping")
	var b strings.Builder
	fmt.Fprintf(&b, "* rtd pipeline: %d stages, %d pulsed (seed %d)\n", sz.stages, sz.pulsed, seed)
	b.WriteString("VDD vdd 0 0.55\n")
	for i := 0; i < sz.stages; i++ {
		rail := "vdd"
		if i < sz.pulsed {
			rail = fmt.Sprintf("pn%d", i)
			fmt.Fprintf(&b, "VP%d %s 0 PULSE(0.1 0.9 %sn 0.5n 0.5n 3n 8n)\n", i, rail, num(between(r, 1.999, 2.001)))
		}
		fmt.Fprintf(&b, "R%d %s n%d %s\n", i, rail, i, num(300+float64(i%7)*20+between(r, -1, 1)))
		fmt.Fprintf(&b, "N%d n%d 0 rtd\n", i, i)
		fmt.Fprintf(&b, "C%d n%d 0 %s\n", i, i, num(between(r, 9.9e-15, 10.1e-15)))
		if i > 0 {
			fmt.Fprintf(&b, "RC%d n%d n%d %s\n", i, i-1, i, num(between(r, 245e3, 255e3)))
		}
	}
	b.WriteString(".model rtd RTD\n")
	b.WriteString(".options partition nodormancy threads=2\n")
	fmt.Fprintf(&b, ".tran 0.1n %sn\n", num(sz.tstop*1e9))
	fmt.Fprintf(&b, ".print v(n0) v(n%d) v(n%d) v(n%d)\n", sz.pulsed, sz.stages/2, sz.stages-1)
	b.WriteString(".end\n")
	return b.String()
}

// mcSize fixes the mc_yield shape.
type mcSize struct{ stages, trials int }

// mcDeck generates a `.mc tran` deck: a chain of FET-RTD inverters
// (series RTD pair with an NMOS pull-down, as in
// testdata/mc_rtd_inverter.sp), each stage's output driving the next
// gate, with .vary on RTD area and FET threshold and .limit yield specs
// on the last stage. The deck fixes the trial count and WORKERS=2; the
// seed moves the nominal values, the input pulse and the .mc seed.
func mcDeck(seed uint64, sz mcSize) string {
	r := newRand(seed, "mc_yield")
	var b strings.Builder
	fmt.Fprintf(&b, "* FET-RTD inverter chain: %d stages, RTD area + VTO Monte Carlo (seed %d)\n", sz.stages, seed)
	b.WriteString("VDD vdd 0 1.2\n")
	fmt.Fprintf(&b, "VIN in0 0 PULSE(0 1.2 %sn 1n 1n 40n)\n", num(between(r, 4.999, 5.001)))
	for i := 1; i <= sz.stages; i++ {
		fmt.Fprintf(&b, "NL%d vdd o%d rtdload\n", i, i)
		fmt.Fprintf(&b, "ND%d o%d 0 rtdmod\n", i, i)
		fmt.Fprintf(&b, "M%d o%d %s 0 nmod\n", i, i, inName(i))
		fmt.Fprintf(&b, "CL%d o%d 0 %sf\n", i, i, num(between(r, 19.5, 20.5)))
	}
	fmt.Fprintf(&b, "CIN in0 0 1f\n")
	b.WriteString(".model rtdmod RTD\n")
	fmt.Fprintf(&b, ".model rtdload RTD AREA=%s\n", num(between(r, 1.49, 1.51)))
	fmt.Fprintf(&b, ".model nmod NMOS KP=5m VTO=%s W=1 L=1\n", num(between(r, 0.498, 0.502)))
	b.WriteString(".tran 0.5n 60n\n")
	fmt.Fprintf(&b, ".mc %d tran SEED=%d WORKERS=2\n", sz.trials, r.Uint32())
	b.WriteString(".vary N*(A) DEV=5%\n")
	b.WriteString(".vary M*(VTO) DEV=3%\n")
	fmt.Fprintf(&b, ".limit v(o%d) final 0.8 *\n", sz.stages-1)
	fmt.Fprintf(&b, ".limit v(o%d) final * 0.4\n", sz.stages)
	fmt.Fprintf(&b, ".print v(o%d) v(o%d)\n", sz.stages-1, sz.stages)
	b.WriteString(".end\n")
	return b.String()
}

func inName(stage int) string {
	if stage == 1 {
		return "in0"
	}
	return fmt.Sprintf("o%d", stage-1)
}

// Serve job classes. Each class is a small deck of one analysis kind;
// the serve mix draws classes by weight.
const (
	classTran   = "tran"
	classSubckt = "subckt"
	classMC     = "mc"
	classAC     = "ac"
	classSET    = "set"
)

// serveMix is one block of the serve mix: every run of len(serveMix)
// consecutive arrivals holds exactly these classes, in a seeded order,
// so each phase sees the same proportions whatever the seed.
var serveMix = []string{
	classTran, classTran, classTran, classTran, classTran, classTran, classTran, classTran,
	classSubckt, classSubckt, classSubckt,
	classMC, classMC, classMC,
	classAC, classAC, classAC,
	classSET, classSET, classSET,
}

// serveClasses lists the distinct classes.
var serveClasses = []string{classTran, classSubckt, classMC, classAC, classSET}

// kindOf maps a class to the analysis kind nanosimd resolves for it.
func kindOf(class string) string {
	if class == classSubckt {
		return "tran"
	}
	return class
}

// serveDeck generates one small deck of the given class; the values are
// drawn from r, so distinct draws give distinct decks (compile-cache
// misses) and a replayed draw gives the same text (cache hits).
func serveDeck(r *rand.Rand, class string) string {
	var b strings.Builder
	switch class {
	case classTran:
		fmt.Fprintf(&b, "* rtd divider tran\n")
		fmt.Fprintf(&b, "V1 in 0 PULSE(0 1.5 %sn 2n 2n 20n)\n", num(between(r, 2.9, 3.1)))
		fmt.Fprintf(&b, "R1 in d %s\nN1 d 0 rtd\nCD d 0 %sf\n", num(between(r, 98, 102)), num(between(r, 9.8, 10.2)))
		fmt.Fprintf(&b, "R2 d e %s\nN2 e 0 rtd\nCE e 0 %sf\n", num(between(r, 196, 204)), num(between(r, 9.8, 10.2)))
		b.WriteString(".model rtd RTD\n.tran 0.2n 30n\n.end\n")
	case classSubckt:
		fmt.Fprintf(&b, "* rtd cell chain (subckt)\n")
		fmt.Fprintf(&b, "VDD vdd 0 %s\n", num(between(r, 0.545, 0.555)))
		fmt.Fprintf(&b, "VIN a0 0 PULSE(0.1 0.9 %sn 0.5n 0.5n 3n 8n)\n", num(between(r, 0.95, 1.05)))
		for i := 0; i < 6; i++ {
			fmt.Fprintf(&b, "X%d vdd a%d a%d cell\n", i, i, i+1)
		}
		b.WriteString("RL a6 0 1meg\n.subckt cell vdd in out\n")
		fmt.Fprintf(&b, "RS vdd out %s\nRC in out %s\nN1 out 0 rtd\nC1 out 0 %sf\n.ends\n",
			num(between(r, 306, 314)), num(between(r, 245e3, 255e3)), num(between(r, 9.8, 10.2)))
		b.WriteString(".model rtd RTD\n.options partition\n.tran 0.1n 10n\n.end\n")
	case classMC:
		fmt.Fprintf(&b, "* FET-RTD inverter Monte Carlo\n")
		b.WriteString("VDD vdd 0 1.2\nVIN in 0 1.2\nNL vdd out rtdload\nND out 0 rtdmod\nM1 out in 0 nmod\n")
		fmt.Fprintf(&b, "CL out 0 %sf\nCIN in 0 1f\n", num(between(r, 19.5, 20.5)))
		fmt.Fprintf(&b, ".model rtdmod RTD\n.model rtdload RTD AREA=%s\n", num(between(r, 1.49, 1.51)))
		b.WriteString(".model nmod NMOS KP=5m VTO=0.5 W=1 L=1\n.tran 1n 20n\n")
		fmt.Fprintf(&b, ".mc 8 tran SEED=%d\n", r.Uint32())
		b.WriteString(".vary N*(A) DEV=5%\n.vary M1(VTO) DEV=3%\n.limit v(out) final * 0.4\n.print v(out)\n.end\n")
	case classAC:
		fmt.Fprintf(&b, "* RC lowpass with noisy bias\n")
		fmt.Fprintf(&b, "VIN in 0 DC 0 AC 1 0\nR1 in out %s\nC1 out 0 %sn\n", num(between(r, 0.98e3, 1.02e3)), num(between(r, 0.98, 1.02)))
		fmt.Fprintf(&b, "R2 out o2 %s\nC2 o2 0 %sp\n", num(between(r, 9.8e3, 10.2e3)), num(between(r, 98, 102)))
		b.WriteString("IB 0 out DC 10u NOISE=0.5n\n.ac dec 20 1k 10meg\n.print vdb(o2) onoise(o2)\n.end\n")
	case classSET:
		fmt.Fprintf(&b, "* double tunnel junction kMC\n")
		fmt.Fprintf(&b, "Vdd vdd 0 %s\nRL vdd d 1meg\nJ1 d m tj\nJ2 m 0 tj\n", num(between(r, 0.298, 0.302)))
		b.WriteString(".model tj TJ C=1a R=1meg\n.island m\n")
		fmt.Fprintf(&b, ".set tran 0.2n 10n SEED=%d TEMP=4.2\n.print i(d) n(m)\n.end\n", r.Uint32())
	default:
		panic("unknown serve class " + class)
	}
	return b.String()
}

// arrival is one scheduled serve submission.
type arrival struct {
	At     float64 // seconds after the phase start
	Class  string
	Deck   string
	Stream bool // also read the NDJSON stream
}

// servePool is the per-run set of repeated decks, one per class.
func servePool(seed uint64) map[string]string {
	r := newRand(seed, "serve_pool")
	pool := map[string]string{}
	for _, c := range serveClasses {
		pool[c] = serveDeck(r, c)
	}
	return pool
}

// schedule draws an open-loop Poisson arrival schedule at rate jobs/s
// over dur seconds. purpose separates the phases' streams. Every other
// submission reuses the class's pooled deck (a compile-cache hit); the
// rest are fresh decks (misses).
func schedule(seed uint64, purpose string, rate, dur float64, pool map[string]string) []arrival {
	r := newRand(seed, "serve_"+purpose)
	var out []arrival
	block := append([]string(nil), serveMix...)
	t := 0.0
	for n := 0; ; n++ {
		t += -math.Log(1-r.Float64()) / rate
		if t >= dur {
			return out
		}
		if n%len(block) == 0 {
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		class := block[n%len(block)]
		a := arrival{At: t, Class: class, Deck: pool[class]}
		if n%2 == 0 {
			a.Deck = serveDeck(r, class)
		}
		a.Stream = kindOf(class) == "tran" && n%4 == 0
		out = append(out, a)
	}
}
