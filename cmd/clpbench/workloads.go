package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"

	"github.com/clp-sim/tflex"
	"github.com/clp-sim/tflex/internal/arch"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/experiments"
	"github.com/clp-sim/tflex/internal/fuzz"
)

// workload is one of the benchmark's job lists.
type workload struct {
	name string
	why  string
	// setup does everything that precedes the first timed pass: it makes
	// the inputs from the seed and runs the untimed warm-up pass, whose
	// outputs become the reference every later pass must reproduce.
	setup func(cfg config) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// pass runs the whole job list once through the entry points a user
	// would call, checking every output.
	pass() passResult
	// traced runs the per-layer passes (layers.go) and fills the ledger.
	traced(tr *tracer, led *ledger)
}

// passResult is what one pass did.
type passResult struct {
	ops, failed int
	blocks      uint64 // committed EDGE blocks
	cycles      uint64 // simulated cycles, summed over processors
	// outs is one output word per job in canonical job order (cycles, or
	// a digest of rendered text); a pass must reproduce the warm-up's.
	outs []uint64
	errs []string
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// sameAs fails every job whose output differs from the reference pass;
// a zero output marks a job that did not run or already failed.
func (p *passResult) sameAs(ref []uint64, what string) {
	for i, v := range p.outs {
		if ref != nil && v != 0 && v != ref[i] {
			p.fail("job %d: output differs from %s", i, what)
		}
	}
}

// warmUp runs the reference pass of a workload's set-up.
func warmUp(pass func() passResult) ([]uint64, error) {
	p := pass()
	if p.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %s", strings.Join(p.errs, "; "))
	}
	return p.outs, nil
}

// workloads is the benchmark's fixed list; BENCHMARK.json names the same
// five with the same reasons (main_test.go holds the two together).
var workloads = []workload{
	{"paper_eval", "tflexexp -exp all -scale 2, what users run: 410 short jobs, so kernel build and chip set-up are a sixth of the pass", setupPaperEval},
	{"steady", "8 kernels x 1, 8, 32 cores and TRIPS at scale 32: set-up is 2 percent, so only event loop, NoC, memory path and predictor matter", setupSteady},
	{"multiprog", "RunMulti, 4 programs per chip: several event domains, lockstep windows and shared-L2 sections tax the merged scheduler", setupMultiprog},
	{"fuzz_corpus", "250 generated programs through 8 executors: asm, edgegen, exec, conv and the Reference engine work here and not in steady", setupFuzz},
	{"observed", "the 8- and 32-core steady jobs with every tap armed: its wall over steady's is the price of observability", setupObserved},
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// shuffled returns 0..n-1 in the seed's order: the order jobs run in.
// Outputs are always kept in canonical order, so checks do not depend
// on it.
func shuffled(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// digestOf folds words into one.
func digestOf(vals ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// nproc is the worker count of the cross-configuration checks
// (SetJobs(nproc), ParallelDomains nproc): at least 2, so the concurrent
// paths run even on a one-CPU host.
func nproc() int { return max(runtime.NumCPU(), 2) }

// ---- steady and observed: single-program kernel jobs ----

// kjob is one kernel on one composition; cores 0 is the TRIPS baseline.
type kjob struct {
	kernel string
	cores  int
}

func (j kjob) String() string {
	if j.cores == 0 {
		return j.kernel + "/trips"
	}
	return fmt.Sprintf("%s/%dc", j.kernel, j.cores)
}

// steadyKernels spans the suite's behaviours: hand-optimized (conv, ct),
// pointer-chasing (mcf), branchy (gcc, bzip2), FP (ammp, art), serial
// (8b10b).
var steadyKernels = []string{"conv", "ct", "mcf", "gcc", "ammp", "8b10b", "art", "bzip2"}

func kernelJobs(cfg config, sizes []int) []kjob {
	ks := steadyKernels
	if cfg.smoke {
		ks = ks[:2]
	}
	var jobs []kjob
	for _, k := range ks {
		for _, n := range sizes {
			jobs = append(jobs, kjob{k, n})
		}
	}
	return jobs
}

// taps selects which observers a kernel job arms.
type taps struct {
	telemetry, critpath, flight bool
	inbox                       bool // decomposed drives only: watch the deferred-invalidation inbox
}

var allTaps = taps{telemetry: true, critpath: true, flight: true}

// runConfig renders a job as the public RunConfig.  A fresh ChromeTrace
// per job keeps memory bounded.
func (j kjob) runConfig(t taps) tflex.RunConfig {
	cfg := tflex.RunConfig{Cores: j.cores}
	if j.cores == 0 {
		cfg = tflex.RunConfig{TRIPS: true}
	}
	if t.telemetry {
		cfg.CollectMetrics = true
		cfg.ChromeTrace = tflex.NewTrace()
		cfg.SampleEvery = 64
	}
	cfg.CritPath = t.critpath
	cfg.Flight = t.flight
	return cfg
}

// kernelWorkload runs kjobs through tflex.RunKernel.
type kernelWorkload struct {
	scale int
	jobs  []kjob
	order []int
	taps  taps
	ref   []uint64 // per-job cycles of the warm-up pass
	probe *hostProbe
}

func (w *kernelWorkload) pass() passResult { return w.passWith(w.taps, 0) }

// passWith runs the job list with the given taps; onlyCores, if set,
// keeps the jobs of that composition size.
func (w *kernelWorkload) passWith(t taps, onlyCores int) passResult {
	p := passResult{outs: make([]uint64, len(w.jobs))}
	for _, i := range w.order {
		j := w.jobs[i]
		if onlyCores != 0 && j.cores != onlyCores {
			continue
		}
		p.ops++
		// RunKernel validates the outputs with Instance.Check.
		res, err := tflex.RunKernel(j.kernel, w.scale, j.runConfig(t))
		if err != nil {
			p.fail("%s: %v", j, err)
			continue
		}
		p.outs[i] = res.Cycles
		p.cycles += res.Cycles
		p.blocks += res.Stats.BlocksCommitted
		w.probe.tick()
	}
	p.sameAs(w.ref, "the untapped warm-up pass")
	return p
}

func newKernelWorkload(cfg config, sizes []int, t taps) (instance, error) {
	w := &kernelWorkload{scale: cfg.scale(32), jobs: kernelJobs(cfg, sizes), taps: t, probe: cfg.probe}
	w.order = shuffled(len(w.jobs), cfg.seed)
	// The warm-up runs untapped whatever the workload: its cycles are the
	// reference, so an observed pass that simulates different cycles from
	// the plain engine fails job for job.
	var err error
	w.ref, err = warmUp(func() passResult { return w.passWith(taps{}, 0) })
	return w, err
}

func setupSteady(cfg config) (instance, error) {
	return newKernelWorkload(cfg, []int{1, 8, 32, 0}, taps{})
}

func setupObserved(cfg config) (instance, error) {
	return newKernelWorkload(cfg, []int{8, 32}, allTaps)
}

// ---- multiprog: several programs per chip ----

// mjob is one multiprogrammed chip: which kernels, on which partition.
type mjob struct {
	kernels []string
	sizes   []int // composition size per program
}

func (j mjob) String() string { return strings.Join(j.kernels, "+") }

// partition places the job's processors on the core array.
func (j mjob) partition() ([]tflex.Processor, error) {
	if j.sizes[0] == j.sizes[len(j.sizes)-1] {
		return tflex.Partition(j.sizes[0], len(j.sizes))
	}
	return tflex.PartitionAsymmetric(j.sizes)
}

// multiprogMixes are four heterogeneous chips on the asymmetric
// partition of the paper's section 7: a high-ILP kernel on 16 cores, a
// medium one on 8, two serial ones on 4 each, so processors halt far
// apart and domains differ in event rate.
var multiprogMixes = [][]string{
	{"ct", "autcor", "mcf", "8b10b"},
	{"ammp", "conv", "gcc", "dither"},
	{"swim", "802.11b", "bzip2", "tblook"},
	{"art", "bezier", "parser", "genalg"},
}

func multiprogJobs(cfg config) []mjob {
	ks, mixes := tflex.KernelNames(), multiprogMixes
	if cfg.smoke {
		ks, mixes = ks[:2], mixes[:1]
	}
	var jobs []mjob
	for _, k := range ks {
		jobs = append(jobs, mjob{[]string{k, k, k, k}, []int{8, 8, 8, 8}})
	}
	for _, m := range mixes {
		jobs = append(jobs, mjob{m, []int{16, 8, 4, 4}})
	}
	return jobs
}

type multiprogWorkload struct {
	scale int
	jobs  []mjob
	order []int
	ref   []uint64 // per-job digest of per-processor cycles
	probe *hostProbe
}

func (w *multiprogWorkload) pass() passResult { return w.passWith(1) }

// passWith runs the job list at the given ParallelDomains setting.
func (w *multiprogWorkload) passWith(domains int) passResult {
	p := passResult{outs: make([]uint64, len(w.jobs))}
	for _, i := range w.order {
		p.ops++
		if err := w.runJob(w.jobs[i], domains, &p, i); err != nil {
			p.fail("%s: %v", w.jobs[i], err)
		}
		w.probe.tick()
	}
	p.sameAs(w.ref, "the warm-up pass")
	return p
}

func (w *multiprogWorkload) runJob(j mjob, domains int, p *passResult, i int) error {
	procs, err := j.partition()
	if err != nil {
		return err
	}
	specs := make([]tflex.ProgramSpec, len(j.kernels))
	insts := make([]*tflex.KernelInstance, len(j.kernels))
	for n, k := range j.kernels {
		if insts[n], err = tflex.BuildKernel(k, w.scale); err != nil {
			return err
		}
		specs[n] = tflex.ProgramSpec{Prog: insts[n].Prog, Cores: procs[n], Init: insts[n].Init}
	}
	results, err := tflex.RunMulti(specs, tflex.RunConfig{ParallelDomains: domains})
	if err != nil {
		return err
	}
	cycles := make([]uint64, len(results))
	for n, res := range results {
		if err := insts[n].Check(&res.Regs, res.Mem); err != nil {
			return fmt.Errorf("proc %d: %w", n, err)
		}
		cycles[n] = res.Cycles
		p.cycles += res.Cycles
		p.blocks += res.Stats.BlocksCommitted
	}
	p.outs[i] = digestOf(cycles...)
	return nil
}

func setupMultiprog(cfg config) (instance, error) {
	w := &multiprogWorkload{scale: cfg.scale(8), jobs: multiprogJobs(cfg), probe: cfg.probe}
	w.order = shuffled(len(w.jobs), cfg.seed)
	var err error
	w.ref, err = warmUp(w.pass)
	return w, err
}

// ---- paper_eval: the experiment suite ----

// experiment is one table or figure of the evaluation; out is the text
// tflexexp prints for it.
type experiment struct {
	name string
	fn   func(*experiments.Suite) (data any, out string, err error)
}

// paperExperiments lists the evaluation in tflexexp's order.
func paperExperiments(cfg config) []experiment {
	all := []experiment{
		{"table1", func(*experiments.Suite) (any, string, error) { return nil, experiments.Table1(), nil }},
		{"fig5", func(s *experiments.Suite) (any, string, error) { return s.Fig5() }},
		{"fig6", func(s *experiments.Suite) (any, string, error) { return s.Fig6() }},
		{"table2", func(s *experiments.Suite) (any, string, error) { out, err := s.Table2(); return nil, out, err }},
		{"fig7", func(s *experiments.Suite) (any, string, error) { return s.Fig7() }},
		{"fig8", func(s *experiments.Suite) (any, string, error) { return s.Fig8() }},
		{"fig9", func(s *experiments.Suite) (any, string, error) { return s.Fig9() }},
		{"fig9x", func(s *experiments.Suite) (any, string, error) { return s.Fig9x() }},
		{"handshake", func(s *experiments.Suite) (any, string, error) { return s.Handshake() }},
		{"fig10", func(s *experiments.Suite) (any, string, error) { return s.Fig10(10) }},
		{"ablations", func(s *experiments.Suite) (any, string, error) { return s.Ablations(8) }},
	}
	if cfg.smoke {
		return all[:2] // table1 and fig5: 52 jobs
	}
	return all
}

type paperWorkload struct {
	cfg   config
	scale int
	exps  []experiment
	order []int
	ref   []uint64 // per-experiment digest of the rendered text
}

func (w *paperWorkload) pass() passResult {
	p, _, _ := w.passSuite(1, nil, nil)
	return p
}

// passSuite runs every experiment on a fresh suite with the given worker
// count.  Each experiment is one op, and its rendered text must be
// byte-identical to the warm-up pass.  prep, if set, sees the suite
// before the first experiment; around wraps each experiment call.
func (w *paperWorkload) passSuite(jobs int, prep func(*experiments.Suite), around func(name string, call func())) (passResult, *experiments.Suite, []any) {
	p := passResult{outs: make([]uint64, len(w.exps))}
	data := make([]any, len(w.exps))
	s := experiments.NewSuite(w.scale)
	s.SetJobs(jobs)
	if prep != nil {
		prep(s)
	}
	for _, i := range w.order {
		e := w.exps[i]
		p.ops++
		var out string
		var err error
		call := func() { data[i], out, err = e.fn(s) }
		if around != nil {
			around(e.name, call)
		} else {
			call()
		}
		w.cfg.probe.tick()
		if err != nil {
			p.fail("%s: %v", e.name, err)
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(out))
		p.outs[i] = h.Sum64()
	}
	p.sameAs(w.ref, fmt.Sprintf("the warm-up pass (at -jobs %d)", jobs))
	// Every timing job validated its outputs inside the suite; its
	// registry snapshot carries the blocks it committed (the Core2 model
	// of Figure 5 runs on the functional trace and has none).
	for _, snap := range s.MetricsByJob() {
		p.blocks += uint64(snap.Get("proc0.blocks.committed"))
	}
	p.cycles = s.Summary().SimCycles
	return p, s, data
}

func setupPaperEval(cfg config) (instance, error) {
	w := &paperWorkload{cfg: cfg, scale: cfg.scale(2), exps: paperExperiments(cfg)}
	w.order = shuffled(len(w.exps), cfg.seed)
	var err error
	w.ref, err = warmUp(w.pass)
	return w, err
}

// ---- fuzz_corpus: generated programs through every executor ----

// corpusShape is how many programs of the corpus retire 2, 3, ... blocks
// on the functional executor: edgegen's own distribution over 20000
// seeds, scaled to 250 programs (868 blocks).  Seeds are taken in order
// from the seed's range until every class is full, so each seed draws
// different programs but the same amount of work.  A pass costs mostly
// per program (eight executors, six chips); with a plain run of 250
// seeds the block count, and every per-block metric with it, moved 3 %
// from seed to seed.
var corpusShape = []int{2: 84, 3: 69, 4: 41, 5: 27, 6: 16, 7: 8, 8: 3, 9: 2}

var smokeCorpusShape = []int{2: 4, 3: 3, 4: 2, 5: 1}

type fuzzWorkload struct {
	harness *fuzz.Harness
	seeds   []int64 // edgegen seeds, in drawing order
	order   []int
	blocks  uint64 // functional blocks over the corpus
	probe   *hostProbe
}

// drawCorpus scans edgegen seeds from base upward and keeps those that
// fit the shape.
func drawCorpus(base int64, shape []int) (seeds []int64, blocks uint64, err error) {
	want := append([]int(nil), shape...)
	left := 0
	for _, n := range want {
		left += n
	}
	for s := base; left > 0; s++ {
		if s-base >= 10000 {
			return nil, 0, fmt.Errorf("fuzz_corpus: seeds %d..%d do not fill the corpus shape", base, s)
		}
		spec := edgegen.GenSpec(s)
		p, err := spec.Build()
		if err != nil {
			return nil, 0, fmt.Errorf("fuzz_corpus: seed %d: %w", s, err)
		}
		st, err := arch.Functional{}.Run(p, spec.Input())
		if err != nil {
			return nil, 0, fmt.Errorf("fuzz_corpus: seed %d: %w", s, err)
		}
		if b := int(st.Blocks); b < len(want) && want[b] > 0 {
			want[b]--
			left--
			seeds = append(seeds, s)
			blocks += st.Blocks
		}
	}
	return seeds, blocks, nil
}

func (w *fuzzWorkload) pass() passResult {
	p := passResult{outs: make([]uint64, len(w.seeds))}
	for _, i := range w.order {
		p.ops++
		d, err := w.harness.CheckSeed(w.seeds[i])
		switch {
		case err != nil:
			p.fail("seed %d: %v", w.seeds[i], err)
		case d != nil:
			p.fail("seed %d: %s diverges: %s", w.seeds[i], d.Exec, d.Report())
		}
		w.probe.tick()
	}
	// No divergence means every executor retired the functional block
	// count, so the pass committed blocks x executors.
	p.blocks = w.blocks * uint64(len(w.harness.Execs))
	return p
}

func setupFuzz(cfg config) (instance, error) {
	shape := corpusShape
	if cfg.smoke {
		shape = smokeCorpusShape
	}
	w := &fuzzWorkload{harness: fuzz.New(1, 2, 4), probe: cfg.probe}
	var err error
	if w.seeds, w.blocks, err = drawCorpus(cfg.seed*10000, shape); err != nil {
		return nil, err
	}
	w.order = shuffled(len(w.seeds), cfg.seed)
	_, err = warmUp(w.pass)
	return w, err
}
