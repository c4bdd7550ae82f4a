// Package experiments regenerates every table and figure of the paper's
// evaluation: the Core2-baseline comparison (Figure 5), the composition
// performance sweep (Figure 6), area and power efficiency (Table 2,
// Figures 7 and 8), the distributed-protocol overhead analysis (Figure 9
// and the §6.4 instantaneous-handshake ablation), and the multiprogrammed
// weighted-speedup comparison against fixed CMPs (Figure 10).
//
// Every experiment is two-phase: it first enqueues its full set of
// declarative job specs on the suite's concurrent runner (internal/runner),
// which fans the independent cycle-level simulations out across a worker
// pool and memoizes each result by job key; it then renders its tables
// from the warmed store.  Because the simulator is deterministic and the
// render phase is serial over stable kernel/size orders, the output is
// byte-identical at any worker count (see determinism_test.go).
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/conv"
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/obs"
	"github.com/clp-sim/tflex/internal/power"
	"github.com/clp-sim/tflex/internal/runner"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/telemetry"
	"github.com/clp-sim/tflex/internal/trips"
)

// MaxCycles bounds every simulation.
const MaxCycles = 2_000_000_000

// Machine-configuration names used in job specs.
const (
	cfgTFlex  = "tflex"
	cfgTRIPS  = "trips"
	cfgCore2  = "core2"
	cfgZeroHS = "zero-handshake"
	cfgCrit   = "critpath"
	cfgAblate = "ablate:" // prefix; full config is "ablate:<name>"
)

// RunResult captures one timing-simulator run.
type RunResult struct {
	Cycles   uint64
	Stats    sim.Stats
	Counters power.Counters
	Metrics  telemetry.Snapshot // end-of-run registry capture, for export (MetricsByJob)
}

// Suite runs and caches the experiment simulations.  All Run methods are
// safe for concurrent use: results live in concurrency-safe memoized
// stores, and each simulation builds its own private chip.
type Suite struct {
	Scale int   // kernel input scale
	Sizes []int // TFlex composition sizes

	engine *runner.Engine
	obs    *obs.Server // nil unless SetObserver armed live observability

	tflex  runner.Store[sizedKey, RunResult] // kernel × cores
	tripsR runner.Store[string, RunResult]
	core2  runner.Store[string, conv.Result]
	zeroHS runner.Store[string, RunResult]    // 32-core zero-handshake runs
	ablate runner.Store[sizedKey, RunResult]  // ablation variants, key = {"<ablation>/<kernel>", cores}
	crit   runner.Store[sizedKey, CritResult] // attribution-enabled runs, kernel × cores
}

// CritResult is one attribution-enabled timing run: the ordinary run
// result plus the chip's critical-path summary.
type CritResult struct {
	Run RunResult
	Sum critpath.Summary
}

type sizedKey struct {
	name  string
	cores int
}

// NewSuite returns a suite at the given kernel scale, running jobs on
// GOMAXPROCS workers (see SetJobs).
func NewSuite(scale int) *Suite {
	s := &Suite{
		Scale:  scale,
		Sizes:  compose.Sizes(),
		engine: &runner.Engine{},
	}
	s.engine.Exec = s.exec
	return s
}

// SetJobs caps the number of concurrently running simulations; n <= 0
// restores the GOMAXPROCS default.
func (s *Suite) SetJobs(n int) { s.engine.Workers = n }

// SetProgress routes per-job progress lines (completion-ordered, with
// wall-clock timing) to w; nil silences them.
func (s *Suite) SetProgress(w io.Writer) { s.engine.Progress = w }

// SetTrace records one Chrome trace span per executed simulation job on
// the runner's worker tracks (real time, 1µs units).
func (s *Suite) SetTrace(t *telemetry.Trace) { s.engine.Trace = t }

// SetObserver wires a live observability server into every subsequent
// simulation: each run enables critical-path attribution feeding the
// server's rolling /critpath aggregate, and publishes periodic registry
// snapshots and sampler rows for /metrics and /events.  Call before the
// first experiment; the tables on stdout are unaffected (recording is
// passive), but -metrics exports gain critpath histogram entries.
func (s *Suite) SetObserver(o *obs.Server) { s.obs = o }

// MetricsByJob returns every completed timing run's registry snapshot,
// keyed by the runner job key (the Core2 model runs on the functional
// trace and carries no registry).
func (s *Suite) MetricsByJob() map[string]telemetry.Snapshot {
	out := map[string]telemetry.Snapshot{}
	s.tflex.Each(func(k sizedKey, r RunResult) { out[s.TFlexSpec(k.name, k.cores).Key()] = r.Metrics })
	s.tripsR.Each(func(k string, r RunResult) { out[s.TRIPSSpec(k).Key()] = r.Metrics })
	s.zeroHS.Each(func(k string, r RunResult) { out[s.ZeroHSSpec(k).Key()] = r.Metrics })
	s.ablate.Each(func(k sizedKey, r RunResult) {
		abl, kern, _ := strings.Cut(k.name, "/")
		out[s.AblateSpec(abl, kern, k.cores).Key()] = r.Metrics
	})
	s.crit.Each(func(k sizedKey, r CritResult) { out[s.CritSpec(k.name, k.cores).Key()] = r.Run.Metrics })
	return out
}

// WriteMetrics serializes MetricsByJob as indented JSON.  Map keys
// marshal in sorted order at both levels, so the file is deterministic
// at any worker count.
func (s *Suite) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.MetricsByJob())
}

// exec dispatches one declarative job spec to the matching run method.
// Results land in the memoized stores keyed by spec, so the runner's
// merge is simply the warmed cache.
func (s *Suite) exec(sp runner.Spec) error {
	var err error
	switch {
	case sp.Config == cfgTFlex:
		_, err = s.TFlexRun(sp.Kernel, sp.Cores)
	case sp.Config == cfgTRIPS:
		_, err = s.TRIPSRun(sp.Kernel)
	case sp.Config == cfgCore2:
		_, err = s.Core2Run(sp.Kernel)
	case sp.Config == cfgZeroHS:
		_, err = s.ZeroHandshakeRun(sp.Kernel)
	case sp.Config == cfgCrit:
		_, err = s.CritRun(sp.Kernel, sp.Cores)
	case strings.HasPrefix(sp.Config, cfgAblate):
		_, err = s.ablationRun(strings.TrimPrefix(sp.Config, cfgAblate), sp.Kernel, sp.Cores)
	default:
		err = fmt.Errorf("unknown job config %q", sp.Config)
	}
	return err
}

// Prefetch fans the job specs out across the worker pool and blocks
// until every job has run; results are memoized in the suite's stores,
// so subsequent Run-method calls for the same specs are cache hits.
// Duplicate specs collapse onto one job.  All jobs run to completion;
// the returned error is the first failure in submission order.
func (s *Suite) Prefetch(specs []runner.Spec) error {
	_, err := s.engine.Run(specs)
	return err
}

// TFlexSpec is the job spec for kernel on an n-core TFlex composition.
func (s *Suite) TFlexSpec(kernel string, cores int) runner.Spec {
	return runner.Spec{Kernel: kernel, Config: cfgTFlex, Cores: cores, Scale: s.Scale}
}

// TRIPSSpec is the job spec for kernel on the TRIPS baseline.
func (s *Suite) TRIPSSpec(kernel string) runner.Spec {
	return runner.Spec{Kernel: kernel, Config: cfgTRIPS, Scale: s.Scale}
}

// Core2Spec is the job spec for kernel on the conventional-core model.
func (s *Suite) Core2Spec(kernel string) runner.Spec {
	return runner.Spec{Kernel: kernel, Config: cfgCore2, Scale: s.Scale}
}

// ZeroHSSpec is the job spec for kernel's 32-core zero-handshake run.
func (s *Suite) ZeroHSSpec(kernel string) runner.Spec {
	return runner.Spec{Kernel: kernel, Config: cfgZeroHS, Cores: 32, Scale: s.Scale}
}

// CritSpec is the job spec for kernel's attribution-enabled run on an
// n-core composition.
func (s *Suite) CritSpec(kernel string, cores int) runner.Spec {
	return runner.Spec{Kernel: kernel, Config: cfgCrit, Cores: cores, Scale: s.Scale}
}

// AblateSpec is the job spec for kernel under the named design ablation.
func (s *Suite) AblateSpec(ablation, kernel string, cores int) runner.Spec {
	return runner.Spec{Kernel: kernel, Config: cfgAblate + ablation, Cores: cores, Scale: s.Scale}
}

// SweepSpecs lists every composition size (plus the 1-core baseline
// implied by Speedups) for one kernel.
func (s *Suite) SweepSpecs(kernel string) []runner.Spec {
	specs := []runner.Spec{s.TFlexSpec(kernel, 1)}
	for _, n := range s.Sizes {
		specs = append(specs, s.TFlexSpec(kernel, n))
	}
	return specs
}

// Summary aggregates suite activity: jobs run, cache hits, simulated
// cycles and wall time — the harness-throughput numbers for BENCH_*.json.
type Summary struct {
	JobsRun   int           // simulations executed by the runner
	CacheHits uint64        // store lookups served from memo
	SimCycles uint64        // total simulated cycles across all timing runs
	Wall      time.Duration // real elapsed time inside runner batches
	CPUTime   time.Duration // summed per-job wall time
}

func (s Summary) String() string {
	return fmt.Sprintf("suite: %d jobs, %d cache hits, %d sim cycles, wall %.2fs (in-job %.2fs)",
		s.JobsRun, s.CacheHits, s.SimCycles, s.Wall.Seconds(), s.CPUTime.Seconds())
}

// Parallel renders the suite's parallel-efficiency line: how well the
// job pool filled the machine (in-job time over wall time).
func (s *Suite) Parallel() string {
	es := s.engine.Summary()
	if es.Wall <= 0 {
		return "parallel: no jobs run"
	}
	return fmt.Sprintf("parallel: %.2fx job concurrency (in-job %.2fs / wall %.2fs)",
		es.CPUTime.Seconds()/es.Wall.Seconds(), es.CPUTime.Seconds(), es.Wall.Seconds())
}

// Summary reports cumulative runner and cache activity.
func (s *Suite) Summary() Summary {
	es := s.engine.Summary()
	sum := Summary{
		JobsRun: es.JobsRun,
		Wall:    es.Wall,
		CPUTime: es.CPUTime,
	}
	addHits := func(hits uint64) { sum.CacheHits += hits }
	h, _ := s.tflex.Stats()
	addHits(h)
	h, _ = s.tripsR.Stats()
	addHits(h)
	h, _ = s.core2.Stats()
	addHits(h)
	h, _ = s.zeroHS.Stats()
	addHits(h)
	h, _ = s.ablate.Stats()
	addHits(h)
	h, _ = s.crit.Stats()
	addHits(h)
	s.tflex.Each(func(_ sizedKey, r RunResult) { sum.SimCycles += r.Cycles })
	s.tripsR.Each(func(_ string, r RunResult) { sum.SimCycles += r.Cycles })
	s.zeroHS.Each(func(_ string, r RunResult) { sum.SimCycles += r.Cycles })
	s.ablate.Each(func(_ sizedKey, r RunResult) { sum.SimCycles += r.Cycles })
	s.crit.Each(func(_ sizedKey, r CritResult) { sum.SimCycles += r.Run.Cycles })
	s.core2.Each(func(_ string, r conv.Result) { sum.SimCycles += r.Cycles })
	return sum
}

// collect gathers a finished run: the processor's statistics, the power
// model's activity counts read off the processor, meshes, caches and
// DRAM, and the registry snapshot -metrics exports.
func collect(chip *sim.Chip, proc *sim.Proc, cores, fpus int) RunResult {
	st := proc.Stats
	pc := power.Counters{
		Cycles: st.Cycles,
		Cores:  cores,
		FPUs:   fpus,

		BlockFetches: st.BlocksFetched,
		Predictions:  proc.Pred.Stats.Predictions,
		IntOps:       st.InstsFired - st.FPFired,
		FPOps:        st.FPFired,
		RegReads:     st.RegReads,
		RegWrites:    st.RegWrites,
		L1DAccesses:  chip.L1DStats().Accesses,
		LSQOps:       st.Loads + st.Stores,
		RouterFlits:  chip.Opn.Stats().Hops + chip.Ctl.Stats().Hops,
		L2Accesses:   chip.L2.Stats.Accesses,
		DRAMAccesses: chip.DRAM.Stats.Requests,
	}
	return RunResult{Cycles: st.Cycles, Stats: st, Counters: pc, Metrics: chip.Telemetry().Snapshot()}
}

// runKernel builds the named kernel at the suite's scale, executes it
// on a chip/processor pair and validates the outputs against the
// reference.  When an observer is set (SetObserver), the run
// additionally enables critical-path attribution into the server's
// rolling aggregate and publishes registry snapshots mid-run; both are
// passive, so the architectural results are identical with or without
// observation.
func (s *Suite) runKernel(name string, chip *sim.Chip, procCores compose.Processor, fpus int) (RunResult, error) {
	k, ok := kernels.ByName(name)
	if !ok {
		return RunResult{}, fmt.Errorf("unknown kernel %q", name)
	}
	inst, err := k.Build(s.Scale)
	if err != nil {
		return RunResult{}, err
	}
	chip.Telemetry() // arm metrics pre-run so histograms observe the blocks
	if s.obs != nil {
		s.obs.Attach(chip, chip.SampleEvery(16384))
	}
	proc, err := chip.AddProc(procCores, inst.Prog)
	if err != nil {
		return RunResult{}, err
	}
	inst.Init(&proc.Regs, proc.Mem)
	if err := chip.Run(MaxCycles); err != nil {
		return RunResult{}, err
	}
	if s.obs != nil {
		s.obs.PublishChip(chip)
	}
	if err := inst.Check(&proc.Regs, proc.Mem); err != nil {
		return RunResult{}, fmt.Errorf("output validation: %w", err)
	}
	return collect(chip, proc, procCores.N(), fpus), nil
}

// TFlexRun returns (cached) the kernel's run on an n-core composition.
func (s *Suite) TFlexRun(name string, n int) (RunResult, error) {
	return s.tflex.Get(sizedKey{name, n}, func() (RunResult, error) {
		chip := sim.New(sim.DefaultOptions())
		r, err := s.runKernel(name, chip, compose.MustRect(0, 0, n), n)
		if err != nil {
			return RunResult{}, fmt.Errorf("%s on %d cores: %w", name, n, err)
		}
		return r, nil
	})
}

// TRIPSRun returns (cached) the kernel's run on the TRIPS baseline.
func (s *Suite) TRIPSRun(name string) (RunResult, error) {
	return s.tripsR.Get(name, func() (RunResult, error) {
		chip := trips.NewChip()
		r, err := s.runKernel(name, chip, trips.Processor(), trips.NumTiles)
		if err != nil {
			return RunResult{}, fmt.Errorf("%s on TRIPS: %w", name, err)
		}
		// Clock-tree power scales with latch counts (paper §6.3): the TRIPS
		// processor's tiles carry roughly the latch count of 8 TFlex cores,
		// plus one FPU per execution tile (twice the FPUs of an equal-width
		// TFlex composition — the paper's idle-FPU asymmetry).
		r.Counters.Cores = 8
		r.Counters.FPUs = trips.NumTiles
		return r, nil
	})
}

// Core2Run returns (cached) the kernel's run on the conventional
// superscalar model, via the linearized functional trace.
func (s *Suite) Core2Run(name string) (conv.Result, error) {
	return s.core2.Get(name, func() (conv.Result, error) {
		k, ok := kernels.ByName(name)
		if !ok {
			return conv.Result{}, fmt.Errorf("unknown kernel %q", name)
		}
		inst, err := k.Build(s.Scale)
		if err != nil {
			return conv.Result{}, err
		}
		m := exec.NewMachine(inst.Prog)
		m.Trace = &exec.Trace{}
		inst.Init(&m.Regs, m.Mem.(*exec.PageMem))
		if _, err := m.Run(50_000_000); err != nil {
			return conv.Result{}, err
		}
		if err := inst.Check(&m.Regs, m.Mem.(*exec.PageMem)); err != nil {
			return conv.Result{}, err
		}
		return conv.Run(m.Trace.Entries, conv.DefaultConfig()), nil
	})
}

// ZeroHandshakeRun returns the kernel's 32-core run with instantaneous
// distributed handshakes (§6.4).
func (s *Suite) ZeroHandshakeRun(name string) (RunResult, error) {
	return s.zeroHS.Get(name, func() (RunResult, error) {
		opts := sim.DefaultOptions()
		opts.ZeroHandshake = true
		chip := sim.New(opts)
		return s.runKernel(name, chip, compose.MustRect(0, 0, 32), 32)
	})
}

// CritRun returns (cached) the kernel's run on an n-core composition
// with critical-path attribution enabled.  It simulates separately from
// TFlexRun — same deterministic timing (recording is passive; the
// differential test in the root package pins this), but the result
// additionally carries the chip's attribution summary.
func (s *Suite) CritRun(name string, n int) (CritResult, error) {
	return s.crit.Get(sizedKey{name, n}, func() (CritResult, error) {
		chip := sim.New(sim.DefaultOptions())
		chip.EnableCritPath()
		r, err := s.runKernel(name, chip, compose.MustRect(0, 0, n), n)
		if err != nil {
			return CritResult{}, fmt.Errorf("%s on %d cores (critpath): %w", name, n, err)
		}
		return CritResult{Run: r, Sum: chip.CritPath()}, nil
	})
}

// Speedups returns the kernel's cores→speedup curve relative to one core.
func (s *Suite) Speedups(name string) (map[int]float64, error) {
	base, err := s.TFlexRun(name, 1)
	if err != nil {
		return nil, err
	}
	curve := map[int]float64{}
	for _, n := range s.Sizes {
		r, err := s.TFlexRun(name, n)
		if err != nil {
			return nil, err
		}
		curve[n] = float64(base.Cycles) / float64(r.Cycles)
	}
	return curve, nil
}

// Power evaluates the power model over a run.
func Power(r RunResult) power.Breakdown {
	return power.Default().Breakdown(r.Counters)
}
