// Package experiments regenerates every table and figure of the paper's
// evaluation: the Core2-baseline comparison (Figure 5), the composition
// performance sweep (Figure 6), area and power efficiency (Table 2,
// Figures 7 and 8), the distributed-protocol overhead analysis (Figure 9
// and the §6.4 instantaneous-handshake ablation), and the multiprogrammed
// weighted-speedup comparison against fixed CMPs (Figure 10).
//
// The paper evaluates one engine under many configurations, and so does
// this package: a job is a runner.Spec, its Config names a row of the
// machine table (machines.go), one function simulates any spec by looking
// its row up, and one store keyed by the spec remembers every result.
//
// Every experiment is two-phase: it first enqueues its full set of job
// specs on the suite's concurrent runner (internal/runner), which fans the
// independent cycle-level simulations out across a worker pool; it then
// renders its tables from the batch it prefetched.  Because the simulator
// is deterministic and the render phase is serial over stable kernel/size
// orders, the output is byte-identical at any worker count (see
// determinism_test.go).
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/obs"
	"github.com/clp-sim/tflex/internal/power"
	"github.com/clp-sim/tflex/internal/runner"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// MaxCycles bounds every simulation.
const MaxCycles = 2_000_000_000

// RunResult captures one job: a timing-simulator run, or the
// conventional-core model's cycle count (which fills Cycles only).
type RunResult struct {
	Cycles   uint64
	Stats    sim.Stats
	Counters power.Counters
	Crit     critpath.Summary   // zero unless the machine (or an observer) arms attribution
	Metrics  telemetry.Snapshot // end-of-run registry capture, for export (MetricsByJob); nil without a chip
}

// Suite runs and remembers the experiment simulations.  A job's identity
// is its runner.Spec: the machine it runs on is the machines row its
// Config names, and its result lives in the one store under the spec
// itself.  Every simulation is a job of the suite's runner.Engine, whose
// own record of completed keys is bookkeeping (job counts, progress
// lines, trace spans), not a second result cache.  All methods are safe
// for concurrent use: the store is concurrency-safe and each simulation
// builds its own private chip.
type Suite struct {
	Scale int   // kernel input scale
	Sizes []int // TFlex composition sizes

	engine  *runner.Engine
	obs     *obs.Server // nil unless SetObserver armed live observability
	results runner.Store[runner.Spec, RunResult]
}

// NewSuite returns a suite at the given kernel scale, running jobs on
// GOMAXPROCS workers (see SetJobs).
func NewSuite(scale int) *Suite {
	s := &Suite{
		Scale:  scale,
		Sizes:  compose.Sizes(),
		engine: &runner.Engine{},
	}
	s.engine.Exec = func(sp runner.Spec) error {
		_, err := s.get(sp)
		return err
	}
	return s
}

// get returns the spec's remembered result, simulating it on first use.
func (s *Suite) get(sp runner.Spec) (RunResult, error) {
	return s.results.Get(sp, func() (RunResult, error) { return s.simulate(sp) })
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
	s.results.Each(func(sp runner.Spec, r RunResult) {
		if r.Metrics != nil {
			out[sp.Key()] = r.Metrics
		}
	})
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

// Prefetch fans the job specs out across the worker pool and blocks
// until every job has run and its result is in the store.  Duplicate
// specs, and specs an earlier batch ran, collapse onto one job.  All
// jobs run to completion; the returned error is the first failure in
// submission order, wrapped with its job key.
func (s *Suite) Prefetch(specs []runner.Spec) error {
	_, err := s.engine.Run(specs)
	return err
}

// have returns the result of a spec a successful Prefetch covered, which
// leaves no error to return: rendering a spec whose job failed is a bug
// in the figure.
func (s *Suite) have(sp runner.Spec) RunResult {
	r, err := s.get(sp)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s rendered without a successful Prefetch: %v", sp.Key(), err))
	}
	return r
}

// spec is the job spec for kernel on the named machine at the suite's
// scale; cores is 0 where the machine fixes its own size.
func (s *Suite) spec(config, kernel string, cores int) runner.Spec {
	return runner.Spec{Kernel: kernel, Config: config, Cores: cores, Scale: s.Scale}
}

// SweepSpecs lists every composition size (plus the 1-core baseline
// implied by Speedups) for one kernel.
func (s *Suite) SweepSpecs(kernel string) []runner.Spec {
	specs := []runner.Spec{s.spec(cfgTFlex, kernel, 1)}
	for _, n := range s.Sizes {
		specs = append(specs, s.spec(cfgTFlex, kernel, n))
	}
	return specs
}

// TFlexRun returns the kernel's run on an n-core composition, simulating
// it as a one-job batch on first use.
func (s *Suite) TFlexRun(kernel string, n int) (RunResult, error) {
	sp := s.spec(cfgTFlex, kernel, n)
	if err := s.Prefetch([]runner.Spec{sp}); err != nil {
		return RunResult{}, err
	}
	return s.have(sp), nil
}

// Speedups returns the kernel's cores→speedup curve relative to one core.
func (s *Suite) Speedups(kernel string) (map[int]float64, error) {
	if err := s.Prefetch(s.SweepSpecs(kernel)); err != nil {
		return nil, err
	}
	return s.speedups(kernel), nil
}

// speedups is Speedups over a sweep the caller has prefetched.
func (s *Suite) speedups(kernel string) map[int]float64 {
	base := s.have(s.spec(cfgTFlex, kernel, 1))
	curve := map[int]float64{}
	for _, n := range s.Sizes {
		curve[n] = float64(base.Cycles) / float64(s.have(s.spec(cfgTFlex, kernel, n)).Cycles)
	}
	return curve
}

// Summary aggregates suite activity: jobs run, cache hits, simulated
// cycles and wall time — the harness-throughput numbers for BENCH_*.json.
type Summary struct {
	JobsRun   int           // simulations executed by the runner
	CacheHits uint64        // store lookups served from memo
	SimCycles uint64        // total simulated cycles across all runs
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

// Summary reports cumulative runner and store activity.
func (s *Suite) Summary() Summary {
	es := s.engine.Summary()
	sum := Summary{JobsRun: es.JobsRun, Wall: es.Wall, CPUTime: es.CPUTime}
	sum.CacheHits, _ = s.results.Stats()
	s.results.Each(func(_ runner.Spec, r RunResult) { sum.SimCycles += r.Cycles })
	return sum
}

// Power evaluates the power model over a run.
func Power(r RunResult) power.Breakdown {
	return power.Default().Breakdown(r.Counters)
}
