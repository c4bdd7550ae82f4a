// Package experiments regenerates every table and figure of the paper's
// evaluation: the Core2-baseline comparison (Figure 5), the composition
// performance sweep (Figure 6), area and power efficiency (Table 2,
// Figures 7 and 8), the distributed-protocol overhead analysis (Figure 9
// and the §6.4 instantaneous-handshake ablation), and the multiprogrammed
// weighted-speedup comparison against fixed CMPs (Figure 10).
//
// The paper evaluates one engine under many configurations, and so does
// this package: a job is a Spec, its Config names a row of the machine
// table (machines.go), one function simulates any spec by looking its row
// up, and the suite's job map, keyed by the spec, remembers every result.
//
// Every experiment is two-phase: it first prefetches its full set of job
// specs, which the suite fans out across a bounded worker pool (jobs.go);
// it then renders its tables from the results.  Because the simulator is
// deterministic and the render phase is serial over stable kernel/size
// orders, the output is byte-identical at any worker count (see
// TestExperimentsDeterministicAcrossWorkerCounts in the root package).
//
// Concurrency-safety audit (why fan-out is sound): each job runs on a
// sim.Chip no other job holds while it runs, and every package the jobs
// touch was audited for shared mutable state.  Package-level state is
// read-only after init except for two pools, each safe for concurrent
// use, whose entries one job holds alone between taking and returning:
//
//   - sim.pool, the chip pool (sim.Acquire, sim.Release, under
//     sim.poolMu); all other simulation state, attribution records
//     included, hangs off the chip.  A chip goes back only after the job
//     has copied its results out and Chip.Reset has returned it to
//     sim.New's state, so a job cannot tell it from a new one
//     (TestSuiteReuseMatchesFresh, root package).
//   - conv.idle (under conv.idleMu), the only pool that is not the
//     chips': idle Core2 model states; a state goes back reset and serves
//     only its Config.
//   - kernels: the package-level registry/order maps are mutated only by
//     init-time register() calls, which Go runs single-threaded before
//     main; afterwards they are read-only (kernels.TestRegistryConcurrentReads
//     exercises this under -race).
//   - kernel Instances: the suite builds each (kernel, scale) once and
//     every job of the pair shares the one *kernels.Instance.  It is
//     read-only: Init and Check write only the job's own registers and
//     memory, and no executor writes the program or its linked form
//     (kernels.TestInstanceIsReadOnly proves both, on both engines and
//     exec; TestSuiteBuildsEachKernelOnce runs the sharing under -race).
//   - telemetry: the metric-name memo (Name, Indexed) is process-wide,
//     append-only and behind a read-write lock; a name, once handed out,
//     never changes.  Each registry belongs to one job's chip.
//   - compose, isa, asm, exec: package-level tables (shapes, opcodeNames,
//     binOps, errTwoValues) are initialized once and never written again.
//   - mem, noc, predictor, power, area, alloc, stats: no package state.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/obs"
	"github.com/clp-sim/tflex/internal/power"
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
	Crit     critpath.Summary   // zero unless the machine (the tflex row) or an observer arms attribution
	Metrics  telemetry.Snapshot // end-of-run registry capture, for export (MetricsByJob); nil without a chip
}

// Suite runs and remembers the experiment simulations.  A job's identity
// is its Spec: the machine it runs on is the machines row its Config
// names, and the job map, keyed by the spec itself, is the one record of
// the job and its result (jobs.go).  All methods are safe for concurrent
// use: the job map, the build memo and the idle traces are guarded by
// mu, each kernel is built once per (kernel, scale) and shared read-only,
// and each simulation holds its chip, or its Core2 trace, alone until it
// returns it.  Chips come from the sim pool and outlive the suite; idle
// traces live as long as the suite, one per concurrently running Core2
// job.
type Suite struct {
	Scale int   // kernel input scale
	Sizes []int // TFlex composition sizes

	workers  int              // SetJobs; <= 0 means GOMAXPROCS
	progress io.Writer        // SetProgress
	trace    *telemetry.Trace // SetTrace
	obs      *obs.Server      // nil unless SetObserver armed live observability

	mu     sync.Mutex
	jobs   map[Spec]*job
	builds map[buildKey]*build // one kernel build per (kernel, scale)
	traces []*exec.Trace       // idle Core2 functional traces
	hits   uint64              // have lookups
	wall   time.Duration       // summed Prefetch wall time
	inJob  time.Duration       // summed per-job wall time
	epoch  time.Time           // the first Prefetch's start: job span time zero
	tracks int                 // worker tracks named so far
}

// NewSuite returns a suite at the given kernel scale, running jobs on
// GOMAXPROCS workers (see SetJobs).
func NewSuite(scale int) *Suite {
	return &Suite{Scale: scale, Sizes: compose.Sizes(), jobs: map[Spec]*job{}, builds: map[buildKey]*build{}}
}

// SetJobs caps the number of concurrently running simulations; n <= 0
// restores the GOMAXPROCS default.
func (s *Suite) SetJobs(n int) { s.workers = n }

// SetProgress routes per-job progress lines (completion-ordered, with
// wall-clock timing) to w; nil silences them.
func (s *Suite) SetProgress(w io.Writer) { s.progress = w }

// SetTrace records one Chrome trace span per executed simulation job on
// its worker's track (real time, 1µs units).
func (s *Suite) SetTrace(t *telemetry.Trace) { s.trace = t }

// SetObserver wires a live observability server into every subsequent
// simulation: each run enables critical-path attribution feeding the
// server's rolling /critpath aggregate, and publishes periodic registry
// snapshots and sampler rows for /metrics and /events.  Call before the
// first experiment; the tables on stdout are unaffected (recording is
// passive); -metrics exports of the non-tflex chip rows gain critpath
// entries (the tflex row records attribution anyway).
func (s *Suite) SetObserver(o *obs.Server) { s.obs = o }

// MetricsByJob returns every completed timing run's registry snapshot,
// keyed by the job key (the Core2 model runs on the functional trace and
// carries no registry).
func (s *Suite) MetricsByJob() map[string]telemetry.Snapshot {
	out := map[string]telemetry.Snapshot{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for sp, j := range s.jobs {
		if j.finished() && j.res.Metrics != nil {
			out[sp.Key()] = j.res.Metrics
		}
	}
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

// spec is the job spec for kernel on the named machine at the suite's
// scale; cores is 0 where the machine fixes its own size.
func (s *Suite) spec(config, kernel string, cores int) Spec {
	return Spec{Kernel: kernel, Config: config, Cores: cores, Scale: s.Scale}
}

// SweepSpecs lists every composition size (plus the 1-core baseline
// implied by Speedups) for one kernel.
func (s *Suite) SweepSpecs(kernel string) []Spec {
	specs := []Spec{s.spec(cfgTFlex, kernel, 1)}
	for _, n := range s.Sizes {
		specs = append(specs, s.spec(cfgTFlex, kernel, n))
	}
	return specs
}

// TFlexRun returns the kernel's run on an n-core composition, simulating
// it as a one-job batch on first use.
func (s *Suite) TFlexRun(kernel string, n int) (RunResult, error) {
	sp := s.spec(cfgTFlex, kernel, n)
	if err := s.Prefetch([]Spec{sp}); err != nil {
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
	JobsRun   int           // simulations executed: the job map's size
	CacheHits uint64        // result lookups by the render phase
	SimCycles uint64        // total simulated cycles across all runs
	Wall      time.Duration // real elapsed time inside Prefetch calls
	CPUTime   time.Duration // summed per-job wall time
}

func (s Summary) String() string {
	return fmt.Sprintf("suite: %d jobs, %d cache hits, %d sim cycles, wall %.2fs (in-job %.2fs)",
		s.JobsRun, s.CacheHits, s.SimCycles, s.Wall.Seconds(), s.CPUTime.Seconds())
}

// Parallel renders the suite's parallel-efficiency line: how well the
// job pool filled the machine (in-job time over wall time).
func (s *Suite) Parallel() string {
	sum := s.Summary()
	if sum.Wall <= 0 {
		return "parallel: no jobs run"
	}
	return fmt.Sprintf("parallel: %.2fx job concurrency (in-job %.2fs / wall %.2fs)",
		sum.CPUTime.Seconds()/sum.Wall.Seconds(), sum.CPUTime.Seconds(), sum.Wall.Seconds())
}

// Summary reports cumulative job activity.
func (s *Suite) Summary() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := Summary{JobsRun: len(s.jobs), CacheHits: s.hits, Wall: s.wall, CPUTime: s.inJob}
	for _, j := range s.jobs {
		if j.finished() {
			sum.SimCycles += j.res.Cycles
		}
	}
	return sum
}

// Power evaluates the power model over a run.
func Power(r RunResult) power.Breakdown {
	return power.Default().Breakdown(r.Counters)
}
