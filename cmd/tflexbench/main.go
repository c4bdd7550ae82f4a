// Command tflexbench measures simulator performance and writes the
// results to a JSON file (BENCH_sim.json at the repository root, via
// `ci.sh bench`).
//
// The workload is the Figure 6 job grid — every suite kernel on every
// TFlex composition size plus the TRIPS baseline — run five times on a
// single goroutine: on the default optimized engine, on the reference
// slow path (Options.Reference: container/heap event queue, no block
// pooling, per-fetch decode), on the optimized engine with the full
// telemetry stack armed (metric registry, latency histograms, Chrome
// trace, 64-cycle sampler), on the optimized engine with critical-path
// attribution enabled, and on the optimized engine with the flight
// recorder armed.  All runs simulate the exact same cycles, so
// reference/optimized isolates the engine optimizations,
// telemetry/optimized ("telemetry_overhead") prices the instrumentation,
// critpath/optimized ("critpath_overhead") prices the per-block
// dataflow recording and walk — ci.sh gates the latter at 1.10x — and
// flight/optimized ("flight_overhead") prices the per-event ring writes,
// gated at 1.05x.  The absolute wall seconds of each pass are also
// exported at top level so regressions in the instrumented paths are
// visible without arithmetic.
//
// A sixth pass ("multiprog") measures the engine on multiprogrammed
// chips: four copies of every suite kernel on four 8-core partitions,
// sharing the chip's one event queue.
//
// Each pass runs -reps times (default 8), interleaved round-robin with
// the others in alternating (ABBA) order, and the fastest repetition is
// reported for absolute numbers: wall-clock minima isolate the code's
// cost from GC pauses and noisy neighbours, which single-shot ratios
// conflate with the instrumentation being measured.  The overhead
// ratios are instead the median of per-round ratios (see overheadOf),
// which cancels both slow load drift and within-round positional bias.
//
// Usage:
//
//	tflexbench [-scale 1] [-out BENCH_sim.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/clp-sim/tflex"
	"github.com/clp-sim/tflex/internal/profiling"
)

// engineResult is one engine's measurement over the full job grid.
type engineResult struct {
	WallSeconds     float64 `json:"wall_seconds"`
	SimCycles       uint64  `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	BlocksCommitted uint64  `json:"blocks_committed"`
	Allocs          uint64  `json:"allocs"`
	AllocsPerBlock  float64 `json:"allocs_per_block"`
}

// report is the BENCH_sim.json schema.
type report struct {
	Workload  string       `json:"workload"`
	Scale     int          `json:"scale"`
	Jobs      int          `json:"jobs"`
	CPUs      int          `json:"cpus"`
	GoVersion string       `json:"go_version"`
	Optimized engineResult `json:"optimized"`
	Reference engineResult `json:"reference"`
	Telemetry engineResult `json:"telemetry"`
	CritPath  engineResult `json:"critpath"`
	Flight    engineResult `json:"flight"`
	Speedup   float64      `json:"speedup"`
	// MultiWorkload is the multiprogrammed job grid measured by the
	// multiprog pass, and Multiprogram its measurement.
	MultiWorkload string       `json:"multi_workload"`
	Multiprogram  engineResult `json:"multiprogram"`
	// Absolute per-pass wall clock, duplicated from the engineResult
	// blocks: the instrumented passes' raw times, recorded explicitly so
	// trend tooling reads them without dividing ratios back out.
	OptimizedWallSeconds float64 `json:"optimized_wall_seconds"`
	TelemetryWallSeconds float64 `json:"telemetry_wall_seconds"`
	CritPathWallSeconds  float64 `json:"critpath_wall_seconds"`
	FlightWallSeconds    float64 `json:"flight_wall_seconds"`
	// TelemetryOverhead is telemetry-on wall over telemetry-off wall on
	// the optimized engine, as the median per-round ratio (see overheadOf).
	TelemetryOverhead float64 `json:"telemetry_overhead"`
	// CritPathOverhead is attribution-on wall over plain optimized wall,
	// as the median per-round ratio; ci.sh fails the bench if it exceeds
	// 1.10x.
	CritPathOverhead float64 `json:"critpath_overhead"`
	// FlightOverhead is flight-recorder-on wall over plain optimized
	// wall, as the median per-round ratio; ci.sh fails the bench if it
	// exceeds 1.05x.
	FlightOverhead float64 `json:"flight_overhead"`
}

// job is one simulation of the Figure 6 grid.
type job struct {
	kernel string
	cores  int // 0: TRIPS baseline
}

func grid() []job {
	var jobs []job
	for _, k := range tflex.Kernels() {
		for _, n := range tflex.CompositionSizes() {
			jobs = append(jobs, job{k.Name, n})
		}
		jobs = append(jobs, job{k.Name, 0})
	}
	return jobs
}

// pass is one engine configuration measured by the benchmark.
type pass struct {
	reference, telemetry, critpath, flight bool
	// multi switches the pass to the multiprogrammed workload (see
	// measureMulti).
	multi bool
	runs  []engineResult // one per round
	best  engineResult   // fastest round
}

// measureBest runs every pass reps times, interleaved round-robin, and
// keeps each pass's fastest run plus the full per-round history.  All
// reps of one pass back to back would let slow drift in machine load
// (GC from another process, thermal throttling) land entirely on one
// side of an overhead ratio; round-robin gives every pass the same
// exposure, and the per-round pairing lets overheadOf cancel what
// drift remains.
//
// Odd rounds run the passes in reverse (the ABBA scheme): within a
// round the later pass is systematically measured on a slightly more
// tired machine (turbo decay, accumulated GC debt), so a fixed order
// would bias every per-round ratio the same way.  Alternating the
// order flips the sign of that positional bias each round, and the
// median in overheadOf then straddles it.  Keep reps even so both
// orders occur equally often.
func measureBest(reps int, jobs []job, scale int, passes []*pass) error {
	for i := 0; i < reps; i++ {
		order := passes
		if i%2 == 1 {
			order = make([]*pass, len(passes))
			for j, ps := range passes {
				order[len(passes)-1-j] = ps
			}
		}
		for _, ps := range order {
			r, err := ps.measure(jobs, scale)
			if err != nil {
				return err
			}
			ps.runs = append(ps.runs, r)
			if i == 0 || r.WallSeconds < ps.best.WallSeconds {
				ps.best = r
			}
		}
	}
	return nil
}

// overheadOf prices pass a against baseline b, combining two estimators
// that machine noise contaminates in different ways.  Noise on a shared
// host is one-sided — it only ever adds time — so each estimator bounds
// the true ratio from above and the smaller is the better estimate:
//
//   - The median per-round ratio.  The two passes run seconds apart
//     within a round, so a round's ratio cancels slow load drift, the
//     ABBA ordering (see measureBest) cancels positional bias, and the
//     median discards rounds a burst split — but a burst spanning
//     several rounds still drags the median up.
//
//   - The ratio of the fastest reps.  Each pass's minimum over all
//     rounds is its least-contaminated measurement — but the two minima
//     may come from rounds minutes apart, so a burst covering every rep
//     of one pass skews this one instead.
func overheadOf(a, b *pass) float64 {
	ratios := make([]float64, len(a.runs))
	for i := range a.runs {
		ratios[i] = a.runs[i].WallSeconds / b.runs[i].WallSeconds
	}
	sort.Float64s(ratios)
	n := len(ratios)
	if n == 0 {
		return 0
	}
	median := ratios[n/2]
	if n%2 == 0 {
		median = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	return min(median, a.best.WallSeconds/b.best.WallSeconds)
}

func (ps *pass) measure(jobs []job, scale int) (engineResult, error) {
	if ps.multi {
		return measureMulti(scale)
	}
	return measureGrid(jobs, scale, ps.reference, ps.telemetry, ps.critpath, ps.flight)
}

func measureGrid(jobs []job, scale int, reference, telemetry, critpath, flight bool) (engineResult, error) {
	opts := tflex.DefaultOptions()
	opts.Reference = reference
	// Start from a collected heap: without this, each pass is timed in
	// the GC wake of the previous one (the reference pass alone leaves
	// millions of dead objects), and the contamination lands asymmetrically
	// on whichever pass runs next in the round.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var r engineResult
	for _, j := range jobs {
		cfg := tflex.RunConfig{Cores: j.cores, Options: &opts}
		if j.cores == 0 {
			cfg = tflex.RunConfig{TRIPS: true}
			if reference {
				trips := tflex.TRIPSOptions()
				trips.Reference = true
				cfg.Options = &trips
			}
		}
		if telemetry {
			// Full stack: registry + histograms, block spans, sampler.
			// A fresh trace per job keeps memory bounded.
			cfg.CollectMetrics = true
			cfg.ChromeTrace = tflex.NewTrace()
			cfg.SampleEvery = 64
		}
		cfg.CritPath = critpath
		cfg.Flight = flight
		res, err := tflex.RunKernel(j.kernel, scale, cfg)
		if err != nil {
			return r, fmt.Errorf("%s/%dc: %w", j.kernel, j.cores, err)
		}
		r.SimCycles += res.Cycles
		r.BlocksCommitted += res.Stats.BlocksCommitted
	}
	r.WallSeconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	r.Allocs = m1.Mallocs - m0.Mallocs
	r.SimCyclesPerSec = float64(r.SimCycles) / r.WallSeconds
	r.AllocsPerBlock = float64(r.Allocs) / float64(r.BlocksCommitted)
	return r, nil
}

// multiCopies is the multiprogrammed workload's processor count: four
// 8-core partitions tile the 32-core chip exactly, so every core
// participates.
const multiCopies = 4

// multiWorkload describes the multiprog pass's job grid.
func multiWorkload() string {
	return fmt.Sprintf("multiprogram grid: %d jobs (suite kernels x %d copies on 8-core partitions)",
		len(tflex.Kernels()), multiCopies)
}

// measureMulti times the multiprogrammed workload.  SimCycles counts
// chip time (the slowest processor of each job), not the sum over
// processors, so sim_cycles_per_sec stays comparable with the
// single-program passes.
func measureMulti(scale int) (engineResult, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var r engineResult
	for _, k := range tflex.Kernels() {
		rects, err := tflex.Partition(8, multiCopies)
		if err != nil {
			return r, err
		}
		specs := make([]tflex.ProgramSpec, multiCopies)
		insts := make([]*tflex.KernelInstance, multiCopies)
		for i := range specs {
			inst, err := tflex.BuildKernel(k.Name, scale)
			if err != nil {
				return r, err
			}
			insts[i] = inst
			specs[i] = tflex.ProgramSpec{Prog: inst.Prog, Cores: rects[i], Init: inst.Init}
		}
		results, err := tflex.RunMulti(specs, tflex.RunConfig{})
		if err != nil {
			return r, fmt.Errorf("%s x%d: %w", k.Name, multiCopies, err)
		}
		var chipCycles uint64
		for i, res := range results {
			if err := insts[i].Check(&res.Regs, res.Mem); err != nil {
				return r, fmt.Errorf("%s proc %d: %w", k.Name, i, err)
			}
			if res.Cycles > chipCycles {
				chipCycles = res.Cycles
			}
			r.BlocksCommitted += res.Stats.BlocksCommitted
		}
		r.SimCycles += chipCycles
	}
	r.WallSeconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	r.Allocs = m1.Mallocs - m0.Mallocs
	r.SimCyclesPerSec = float64(r.SimCycles) / r.WallSeconds
	r.AllocsPerBlock = float64(r.Allocs) / float64(r.BlocksCommitted)
	return r, nil
}

// passNames are the -only values, in report order.
var passNames = []string{"reference", "optimized", "telemetry", "critpath", "flight", "multiprog"}

// validateFlags rejects flag values that would otherwise produce a
// silent zero-value run: -reps 0 measures nothing and reports all-zero
// numbers, -scale 0 simulates empty kernels, and a mistyped -only would
// previously burn a full default-flag benchmark before erroring.
func validateFlags(scale, reps int, only string) error {
	if scale < 1 {
		return fmt.Errorf("-scale must be >= 1, got %d", scale)
	}
	if reps < 1 {
		return fmt.Errorf("-reps must be >= 1, got %d", reps)
	}
	if only != "" {
		known := false
		for _, n := range passNames {
			known = known || only == n
		}
		if !known {
			return fmt.Errorf("-only must be one of %s; got %q", strings.Join(passNames, ", "), only)
		}
	}
	return nil
}

func main() {
	scale := flag.Int("scale", 1, "kernel input scale")
	out := flag.String("out", "BENCH_sim.json", "output file")
	reps := flag.Int("reps", 8, "repetitions per pass (interleaved, ABBA order); the fastest is reported")
	only := flag.String("only", "", "run a single pass (reference|optimized|telemetry|critpath|flight|multiprog); for profiling")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if err := validateFlags(*scale, *reps, *only); err != nil {
		fmt.Fprintln(os.Stderr, "tflexbench:", err)
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflexbench:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	// The live heap between jobs is a few KB, so at the default GOGC the
	// collector fires once per handful of simulated blocks and the pass
	// ratios measure GC beat frequency against a near-empty heap instead
	// of engine cost.  Pin a saner target; an explicit GOGC still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	jobs := grid()
	rep := report{
		Workload:      fmt.Sprintf("fig6 grid: %d jobs (suite kernels x composition sizes + TRIPS)", len(jobs)),
		MultiWorkload: multiWorkload(),
		Scale:         *scale,
		Jobs:          1,
		CPUs:          runtime.NumCPU(),
		GoVersion:     runtime.Version(),
	}

	// Round order: reference first so its allocation burst cannot
	// inflate the optimized measurement's GC activity, and the
	// instrumented passes adjacent to the optimized baseline they are
	// priced against (overheadOf pairs within a round).
	reference := &pass{reference: true}
	optimized := &pass{}
	telemetry := &pass{telemetry: true}
	critpath := &pass{critpath: true}
	flight := &pass{flight: true}
	multiprog := &pass{multi: true}

	if *only != "" {
		// Single-pass mode: no report, just the pass under the profiler.
		ps, ok := map[string]*pass{
			"reference": reference, "optimized": optimized,
			"telemetry": telemetry, "critpath": critpath,
			"flight": flight, "multiprog": multiprog,
		}[*only]
		if !ok {
			fmt.Fprintf(os.Stderr, "tflexbench: unknown pass %q\n", *only)
			os.Exit(1)
		}
		if err := measureBest(*reps, jobs, *scale, []*pass{ps}); err != nil {
			fmt.Fprintln(os.Stderr, "tflexbench:", err)
			os.Exit(1)
		}
		fmt.Printf("  %-9s  %6.2fs  %11.0f sim-cycles/s  %6.1f allocs/block\n",
			*only, ps.best.WallSeconds, ps.best.SimCyclesPerSec, ps.best.AllocsPerBlock)
		return
	}

	if err := measureBest(*reps, jobs, *scale,
		[]*pass{reference, telemetry, optimized, flight, critpath, multiprog}); err != nil {
		fmt.Fprintln(os.Stderr, "tflexbench:", err)
		os.Exit(1)
	}
	rep.Reference = reference.best
	rep.Optimized = optimized.best
	rep.Telemetry = telemetry.best
	rep.CritPath = critpath.best
	rep.Flight = flight.best
	rep.Multiprogram = multiprog.best
	rep.Speedup = rep.Reference.WallSeconds / rep.Optimized.WallSeconds
	rep.OptimizedWallSeconds = rep.Optimized.WallSeconds
	rep.TelemetryWallSeconds = rep.Telemetry.WallSeconds
	rep.CritPathWallSeconds = rep.CritPath.WallSeconds
	rep.FlightWallSeconds = rep.Flight.WallSeconds
	rep.TelemetryOverhead = overheadOf(telemetry, optimized)
	rep.CritPathOverhead = overheadOf(critpath, optimized)
	rep.FlightOverhead = overheadOf(flight, optimized)

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflexbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "tflexbench:", err)
		os.Exit(1)
	}
	f.Close()

	fmt.Printf("wrote %s\n", *out)
	fmt.Printf("  reference  %6.2fs  %11.0f sim-cycles/s  %6.1f allocs/block\n",
		rep.Reference.WallSeconds, rep.Reference.SimCyclesPerSec, rep.Reference.AllocsPerBlock)
	fmt.Printf("  optimized  %6.2fs  %11.0f sim-cycles/s  %6.1f allocs/block\n",
		rep.Optimized.WallSeconds, rep.Optimized.SimCyclesPerSec, rep.Optimized.AllocsPerBlock)
	fmt.Printf("  telemetry  %6.2fs  %11.0f sim-cycles/s  %6.1f allocs/block\n",
		rep.Telemetry.WallSeconds, rep.Telemetry.SimCyclesPerSec, rep.Telemetry.AllocsPerBlock)
	fmt.Printf("  critpath   %6.2fs  %11.0f sim-cycles/s  %6.1f allocs/block\n",
		rep.CritPath.WallSeconds, rep.CritPath.SimCyclesPerSec, rep.CritPath.AllocsPerBlock)
	fmt.Printf("  flight     %6.2fs  %11.0f sim-cycles/s  %6.1f allocs/block\n",
		rep.Flight.WallSeconds, rep.Flight.SimCyclesPerSec, rep.Flight.AllocsPerBlock)
	fmt.Printf("  multiprog  %6.2fs  %11.0f sim-cycles/s  %6.1f allocs/block\n",
		rep.Multiprogram.WallSeconds, rep.Multiprogram.SimCyclesPerSec, rep.Multiprogram.AllocsPerBlock)
	fmt.Printf("  speedup    %.2fx (telemetry overhead %.2fx, critpath overhead %.2fx, flight overhead %.2fx)\n",
		rep.Speedup, rep.TelemetryOverhead, rep.CritPathOverhead, rep.FlightOverhead)
}
