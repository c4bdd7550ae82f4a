// Package runner is the deterministic concurrent job engine behind the
// experiment suite.  It takes declarative simulation job specs — {kernel,
// config, cores, scale} — fans them out across a bounded worker pool
// (each job constructs its own sim.Chip, so no simulator state is
// shared), and merges results deterministically by job key regardless of
// completion order.
//
// Concurrency-safety audit (why fan-out is sound): every package the
// jobs touch was audited for shared mutable state.
//
//   - sim, mem, noc, predictor: all state hangs off the *sim.Chip built
//     inside the job; there are no package-level variables.
//   - kernels: the package-level registry/order maps are mutated only by
//     init-time register() calls, which Go runs single-threaded before
//     main; afterwards they are read-only (kernels.TestRegistryConcurrentReads
//     exercises this under -race).
//   - compose, isa, asm: package-level tables (shapes, opcodeNames,
//     binOps) are initialized once and never written again.
//   - exec, conv, power, area, alloc, stats: no package-level state.
//
// Determinism: the simulator itself is deterministic (event-driven with a
// total (cycle, insertion-order) ordering), every job is a pure function
// of its spec, and Run returns results in submission order — so any
// worker count, including 1, produces identical merged results.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"github.com/clp-sim/tflex/internal/telemetry"
)

// Spec declaratively identifies one simulation job.
type Spec struct {
	Kernel string // benchmark name
	Config string // machine configuration: a row name of the executor's machine table (experiments.machines)
	Cores  int    // composition size (TFlex configs; 0 where fixed by the config)
	Scale  int    // kernel input scale
}

// Key is the spec's unique, deterministic job identity.
func (sp Spec) Key() string {
	if sp.Cores > 0 {
		return fmt.Sprintf("%s/%s-%dc/scale%d", sp.Kernel, sp.Config, sp.Cores, sp.Scale)
	}
	return fmt.Sprintf("%s/%s/scale%d", sp.Kernel, sp.Config, sp.Scale)
}

// Result reports one completed job.
type Result struct {
	Spec Spec
	Err  error
	Wall time.Duration // wall-clock time spent executing the job
}

// Summary aggregates engine activity across Run calls.
type Summary struct {
	JobsRun  int           // jobs executed (after dedup)
	Deduped  int           // submitted specs merged with in-batch duplicates or earlier runs
	Batches  int           // Run invocations
	Wall     time.Duration // real elapsed time across batches
	CPUTime  time.Duration // sum of per-job wall times (≈ cpu-seconds at full utilization)
	Slowest  Spec          // slowest single job
	SlowWall time.Duration
}

func (s Summary) String() string {
	out := fmt.Sprintf("runner: %d jobs in %d batches, wall %.2fs, in-job %.2fs",
		s.JobsRun, s.Batches, s.Wall.Seconds(), s.CPUTime.Seconds())
	if s.Deduped > 0 {
		out += fmt.Sprintf(", %d duplicate specs merged", s.Deduped)
	}
	if s.SlowWall > 0 {
		out += fmt.Sprintf(", slowest %s (%.2fs)", s.Slowest.Key(), s.SlowWall.Seconds())
	}
	return out
}

// Engine fans job specs out over a worker pool.  The zero value is ready
// to use (GOMAXPROCS workers, no progress output, no executor — set Exec
// before Run).
type Engine struct {
	// Workers caps concurrent jobs; <= 0 means GOMAXPROCS(0).
	Workers int
	// Exec executes one spec.  It must be safe to call from concurrent
	// goroutines; in the experiment suite it builds a private chip and
	// records the result in a concurrency-safe Store keyed by the spec.
	Exec func(Spec) error
	// Progress, if non-nil, receives one line per finished job
	// ("[done/total] key wall").  Lines are serialized but their order
	// follows completion, so route Progress to stderr (or nowhere) when
	// byte-stable output matters.
	Progress io.Writer
	// Trace, if non-nil, records one Chrome span per executed job on its
	// worker's track (pid runnerTracePID, tid = worker index, named the
	// first time that worker runs a job).  Runner spans use real
	// microseconds since the engine's first Run, unlike the simulator's
	// cycle-denominated block spans.
	Trace *telemetry.Trace

	mu        sync.Mutex
	sum       Summary
	epoch     time.Time         // first Run's start; trace span time zero
	completed map[string]Result // the engine's record of what it ran, by key (the jobs' outputs live with Exec)
	named     map[int]bool      // workers whose trace track has its name
}

// runnerTracePID groups runner job spans in the trace viewer, well away
// from the simulator's proc-id process groups (which start at 0).
const runnerTracePID = 1000

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the specs and merges results deterministically: the
// returned slice is ordered by submission order (duplicate keys collapse
// onto their first occurrence), independent of completion order.  Specs
// whose key already completed in an earlier Run return their merged
// result without re-executing, so experiments sharing jobs (Fig6's sweep
// feeds Fig7/8/9) pay for each simulation once.  All pending jobs run to
// completion even if some fail; the returned error is the first failure
// in submission order.
func (e *Engine) Run(specs []Spec) ([]Result, error) {
	if e.Exec == nil {
		return nil, fmt.Errorf("runner: Engine.Exec is nil")
	}
	start := time.Now()
	e.mu.Lock()
	if e.epoch.IsZero() {
		e.epoch = start
		e.Trace.NameProcess(runnerTracePID, "runner")
	}
	epoch := e.epoch
	e.mu.Unlock()

	// Dedupe by key, preserving first-occurrence order.
	seen := make(map[string]bool, len(specs))
	unique := make([]Spec, 0, len(specs))
	for _, sp := range specs {
		if k := sp.Key(); !seen[k] {
			seen[k] = true
			unique = append(unique, sp)
		}
	}
	deduped := len(specs) - len(unique)

	// Split into already-completed (merged from earlier batches) and
	// pending indices.
	results := make([]Result, len(unique))
	var pending []int
	e.mu.Lock()
	if e.completed == nil {
		e.completed = map[string]Result{}
		e.named = map[int]bool{}
	}
	for i, sp := range unique {
		if r, ok := e.completed[sp.Key()]; ok {
			results[i] = r
			deduped++
		} else {
			pending = append(pending, i)
		}
	}
	e.mu.Unlock()

	idxCh := make(chan int)
	var wg sync.WaitGroup
	var done int
	workers := e.workers()
	if workers > len(pending) {
		workers = len(pending)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idxCh {
				sp := unique[i]
				t0 := time.Now()
				err := e.Exec(sp)
				wall := time.Since(t0)
				results[i] = Result{Spec: sp, Err: err, Wall: wall}
				e.Trace.Span(runnerTracePID, w, sp.Key(), "job",
					uint64(t0.Sub(epoch).Microseconds()),
					uint64(t0.Add(wall).Sub(epoch).Microseconds()))
				e.mu.Lock()
				if !e.named[w] {
					e.named[w] = true
					e.Trace.NameThread(runnerTracePID, w, fmt.Sprintf("worker%d", w))
				}
				done++
				if e.Progress != nil {
					status := ""
					if err != nil {
						status = "  FAILED: " + err.Error()
					}
					fmt.Fprintf(e.Progress, "[%*d/%d] %-40s %8.3fs%s\n",
						width(len(pending)), done, len(pending), sp.Key(), wall.Seconds(), status)
				}
				e.mu.Unlock()
			}
		}(w)
	}
	for _, i := range pending {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	e.mu.Lock()
	e.sum.JobsRun += len(pending)
	e.sum.Deduped += deduped
	e.sum.Batches++
	e.sum.Wall += time.Since(start)
	for _, i := range pending {
		r := results[i]
		e.completed[r.Spec.Key()] = r
		e.sum.CPUTime += r.Wall
		if r.Wall > e.sum.SlowWall {
			e.sum.SlowWall = r.Wall
			e.sum.Slowest = r.Spec
		}
	}
	e.mu.Unlock()

	for _, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("%s: %w", r.Spec.Key(), r.Err)
		}
	}
	return results, nil
}

// Summary reports cumulative engine activity.
func (e *Engine) Summary() Summary {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sum
}

func width(n int) int {
	w := 1
	for n >= 10 {
		n /= 10
		w++
	}
	return w
}
