// Command tflexsim runs one benchmark on one processor configuration and
// prints its cycle count and microarchitectural statistics.
//
// Usage:
//
//	tflexsim -kernel conv -cores 8
//	tflexsim -kernel mcf -trips
//	tflexsim -kernel conv -cores 16 -critpath
//	tflexsim -kernel conv -sweep -jobs 4
//	tflexsim -kernel conv -cores 8 -procs 4
//	tflexsim -fuzz-seed 42
//	tflexsim -fuzz-n 1000
//	tflexsim -list
//
// -procs N multiprograms N copies of the kernel onto disjoint
// compositions of -cores cores each (one chip, one event queue) and
// prints per-processor results.  Every observer flag works there as on
// one processor: -metrics, -chrome-trace, -sample, -timeline and -flight
// write one chip-wide file each, their rows keyed by processor ID (the
// timeline CSV gains a leading proc column), -critpath prints one
// breakdown per processor and -json one object per processor.
//
// -critpath prints the cycle-exact critical-path attribution breakdown
// after the run (every committed block's latency split across eight
// categories that sum exactly to the block's lifetime).  -serve ADDR
// additionally exposes /metrics, /critpath, /events and /debug/pprof
// over HTTP while the simulation runs.
//
// -fuzz-seed N replays one generated program from the differential
// fuzzer through every executor (functional, conv-trace, optimized and
// reference timing on 1/2/4 cores); -fuzz-n N sweeps seeds [0,N).  A
// divergence is shrunk to a minimal reproducer and dumped as a .tfa
// file with a flight-recorder sidecar.
//
// -flight FILE arms the flight recorder and writes the chip's ring of
// retirement records as JSON after the run (combined with -fuzz-seed it
// replays the seed with the recorder armed); -flight-events N sizes the
// ring; -flight-print FILE renders a dump back as text:
//
//	tflexsim -kernel conv -cores 8 -flight dump.json
//	tflexsim -fuzz-seed 7 -flight dump.json
//	tflexsim -flight-print dump.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/clp-sim/tflex"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/experiments"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/fuzz"
	"github.com/clp-sim/tflex/internal/profiling"
)

// simFlags are the flags of a kernel run (as opposed to -sweep, the
// fuzzer and -flight-print).
type simFlags struct {
	kernel              string
	cores, scale, procs int
	trips               bool

	jsonOut, critPath                              bool
	timeline, metrics, chromeTrace, sample, flight string
	sampleEvery                                    uint64
	flightEvents                                   int
}

func main() {
	var f simFlags
	flag.StringVar(&f.kernel, "kernel", "conv", "benchmark name (see -list)")
	flag.IntVar(&f.cores, "cores", 8, "TFlex composition size (1, 2, 4, 8, 16, 32)")
	flag.BoolVar(&f.trips, "trips", false, "run on the fixed-granularity TRIPS baseline")
	flag.IntVar(&f.scale, "scale", 2, "kernel input scale")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.BoolVar(&f.jsonOut, "json", false, "emit statistics as JSON")
	flag.StringVar(&f.timeline, "timeline", "", "write a per-block lifecycle CSV to this file")
	flag.StringVar(&f.metrics, "metrics", "", "write the telemetry registry (counters/gauges/histograms) as JSON to this file")
	flag.StringVar(&f.chromeTrace, "chrome-trace", "", "write block lifecycles as a chrome://tracing event file")
	flag.StringVar(&f.sample, "sample", "", "write cycle-sampled occupancy time series as JSON to this file")
	flag.Uint64Var(&f.sampleEvery, "sample-every", 256, "sampling interval in cycles for -sample")
	flag.BoolVar(&f.critPath, "critpath", false, "attribute every committed block's latency across the critical-path categories and print the breakdown")
	serve := flag.String("serve", "", "serve live observability (/metrics, /critpath, /events, /debug/pprof) on this address during the run")
	sweep := flag.Bool("sweep", false, "run the kernel on every composition size concurrently and print the speedup curve")
	jobs := flag.Int("jobs", 0, "concurrent simulation jobs for -sweep (<=0: GOMAXPROCS)")
	flag.IntVar(&f.procs, "procs", 1, "multiprogram this many copies of the kernel on disjoint compositions")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	fuzzSeed := flag.Int64("fuzz-seed", -1, "replay this differential-fuzz seed through every executor and report any divergence")
	fuzzN := flag.Int("fuzz-n", 0, "differentially check seeds [0,N) across every executor")
	flag.StringVar(&f.flight, "flight", "", "arm the flight recorder and write its ring dump as JSON to this file after the run")
	flag.IntVar(&f.flightEvents, "flight-events", 0, "flight ring size in records, rounded up to a power of two (<=0: 4096; at most 1048576)")
	flightPrint := flag.String("flight-print", "", "render a flight dump file as text on stdout and exit")
	flag.Parse()

	if *flightPrint == "" {
		if err := validateFlags(f.cores, f.scale, f.procs, *fuzzN, *fuzzSeed, f.sampleEvery, f.flightEvents, f.trips, *sweep, f.perRunFlag(*serve)); err != nil {
			fmt.Fprintln(os.Stderr, "tflexsim:", err)
			flag.Usage()
			os.Exit(2)
		}
	}
	// One function, so that its deferred calls (profiles, the server) run
	// before a failure exits.
	err := func() error {
		if *flightPrint != "" {
			return printFlight(*flightPrint)
		}
		stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
		if err != nil {
			return err
		}
		defer stopProfiles()
		switch {
		case *list:
			for _, k := range append(tflex.Kernels(), tflex.KernelExtras()...) {
				ilp := "low-ilp"
				if k.HighILP {
					ilp = "high-ilp"
				}
				fmt.Printf("%-12s %-8s %s\n", k.Name, k.Suite, ilp)
			}
			return nil
		case *fuzzSeed >= 0 || *fuzzN > 0:
			return runFuzz(*fuzzSeed, *fuzzN, f.flight, f.flightEvents)
		case *sweep:
			return runSweep(f.kernel, f.scale, *jobs)
		}
		var srv *tflex.Observer
		if *serve != "" {
			srv = tflex.NewObserver()
			addr, err := srv.Start(*serve)
			if err != nil {
				return fmt.Errorf("serve: %w", err)
			}
			fmt.Fprintf(os.Stderr, "observability server on http://%s (endpoints: /metrics /critpath /events /flight /debug/pprof)\n", addr)
			defer srv.Close()
		}
		return runSim(f, srv, os.Stdout)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflexsim:", err)
		os.Exit(1)
	}
}

// runSim runs the kernel on one processor, or on f.procs disjoint
// compositions of one chip, writes the requested artefacts and prints
// the per-processor results.  The artefacts are chip-wide — one file of
// each kind per run, whatever the processor count.
func runSim(f simFlags, srv *tflex.Observer, stdout io.Writer) error {
	cfg := tflex.RunConfig{
		Cores:          f.cores,
		TRIPS:          f.trips,
		CritPath:       f.critPath,
		CollectMetrics: f.metrics != "",
		Flight:         f.flight != "",
		FlightEvents:   f.flightEvents,
		Observe:        srv,
	}
	if f.timeline != "" || f.chromeTrace != "" {
		cfg.ChromeTrace = tflex.NewTrace() // both files render its block records
	}
	if f.sample != "" {
		cfg.SampleEvery = f.sampleEvery
	}
	var results []*tflex.Result
	if f.procs > 1 {
		var err error
		if results, err = runMultiProg(f, cfg); err != nil {
			return err
		}
	} else {
		res, err := tflex.RunKernel(f.kernel, f.scale, cfg)
		if err != nil {
			return err
		}
		results = []*tflex.Result{res}
	}
	shared := results[0] // every result of a run carries the same chip-wide observers
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{f.timeline, func(w io.Writer) error { return cfg.ChromeTrace.WriteTimeline(w, f.procs > 1) }},
		{f.metrics, shared.Telemetry.WriteJSON},
		{f.chromeTrace, cfg.ChromeTrace.WriteJSON},
		{f.sample, shared.Samples.WriteJSON},
		{f.flight, shared.Flight.WriteJSON},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			return err
		}
	}
	config := fmt.Sprintf("TFlex-%d", f.cores)
	if f.trips {
		config = "TRIPS"
	}
	if f.jsonOut {
		type runJSON struct {
			Kernel   string
			Config   string
			Scale    int
			Cycles   uint64
			IPC      float64
			Stats    tflex.Stats
			CritPath *tflex.CritPathSummary `json:",omitempty"`
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		for i, r := range results {
			run := runJSON{f.kernel, config, f.scale, r.Cycles, r.Stats.IPC(), r.Stats, r.CritPath}
			var obj any = run
			if f.procs > 1 {
				obj = struct {
					Proc int
					runJSON
				}{i, run}
			}
			if err := enc.Encode(obj); err != nil {
				return err
			}
		}
		return nil
	}
	if f.procs > 1 {
		fmt.Fprintf(stdout, "%s x%d on %s partitions (scale %d): outputs validated against reference\n",
			f.kernel, f.procs, config, f.scale)
		for i, r := range results {
			fmt.Fprintf(stdout, "  proc %d  cycles %12d  IPC %6.3f  blocks committed %d\n",
				i, r.Cycles, r.Stats.IPC(), r.Stats.BlocksCommitted)
			if r.CritPath != nil {
				fmt.Fprintf(stdout, "    critical path   %s", r.CritPath.String())
			}
		}
		return nil
	}
	res, st := results[0], results[0].Stats
	fmt.Fprintf(stdout, "%s on %s (scale %d): outputs validated against reference\n", f.kernel, config, f.scale)
	fmt.Fprintf(stdout, "  cycles            %d\n", res.Cycles)
	fmt.Fprintf(stdout, "  blocks committed  %d (flushed %d)\n", st.BlocksCommitted, st.BlocksFlushed)
	fmt.Fprintf(stdout, "  useful insts      %d (IPC %.3f)\n", st.InstsCommitted, st.IPC())
	fmt.Fprintf(stdout, "  loads/stores      %d/%d\n", st.Loads, st.Stores)
	fmt.Fprintf(stdout, "  branch flushes    %d\n", st.BranchFlushes)
	fmt.Fprintf(stdout, "  violation flushes %d\n", st.ViolationFlushes)
	fmt.Fprintf(stdout, "  LSQ NACKs         %d (overflow flushes %d)\n", st.LSQNACKs, st.LSQOverflowFlushes)
	fmt.Fprintf(stdout, "  I-cache misses    %d\n", st.ICacheMisses)
	fc, fh, fb, fd, fi := st.FetchLatency()
	fmt.Fprintf(stdout, "  fetch latency     const %.1f + hand-off %.1f + distribute %.1f + dispatch %.1f + i-stall %.1f cycles/block\n",
		fc, fh, fb, fd, fi)
	ca, ch := st.CommitLatency()
	fmt.Fprintf(stdout, "  commit latency    arch %.1f + handshake %.1f cycles/block\n", ca, ch)
	util := st.Utilization()
	if len(util) > 0 {
		fmt.Fprintf(stdout, "  core utilization  ")
		for i, u := range util {
			if i > 0 {
				fmt.Fprint(stdout, " ")
			}
			fmt.Fprintf(stdout, "%.2f", u)
		}
		fmt.Fprintln(stdout, " issued insts/cycle")
	}
	if res.CritPath != nil {
		fmt.Fprintf(stdout, "  critical path     %s", res.CritPath.String())
	}
	return nil
}

// perRunFlag names the first flag set that only a kernel run reads
// ("" when none is): -sweep and the fuzzer write no artefact, print no
// JSON and serve nothing.  -flight comes last because -fuzz-seed does
// read it.
func (f *simFlags) perRunFlag(serve string) string {
	for _, fl := range []struct {
		name string
		set  bool
	}{
		{"-metrics", f.metrics != ""},
		{"-chrome-trace", f.chromeTrace != ""},
		{"-timeline", f.timeline != ""},
		{"-sample", f.sample != ""},
		{"-critpath", f.critPath},
		{"-json", f.jsonOut},
		{"-serve", serve != ""},
		{"-flight", f.flight != ""},
	} {
		if fl.set {
			return fl.name
		}
	}
	return ""
}

// validateFlags rejects flag combinations before any simulation runs:
// a composition size the chip cannot form or a partition that does not
// fit the 32-core array would otherwise surface as a mid-run error, and
// a mode that runs its own processors (-trips, -sweep, the fuzzer)
// would otherwise silently ignore -procs, -trips or perRun, the
// per-run flag perRunFlag found set.
func validateFlags(cores, scale, procs, fuzzN int, fuzzSeed int64, sampleEvery uint64, flightEvents int, trips, sweep bool, perRun string) error {
	if scale < 1 {
		return fmt.Errorf("-scale must be >= 1, got %d", scale)
	}
	if sampleEvery < 1 {
		return fmt.Errorf("-sample-every must be >= 1 cycle, got %d", sampleEvery)
	}
	if flightEvents > flight.MaxEvents {
		return fmt.Errorf("-flight-events must be at most %d records, got %d", flight.MaxEvents, flightEvents)
	}
	if procs < 1 {
		return fmt.Errorf("-procs must be >= 1, got %d", procs)
	}
	if fuzzN < 0 {
		return fmt.Errorf("-fuzz-n must be >= 0, got %d", fuzzN)
	}
	if fuzzSeed >= 0 && fuzzN > 0 {
		return fmt.Errorf("-fuzz-seed replays one seed; -fuzz-n sweeps a range — give one or the other")
	}
	fuzzing := fuzzSeed >= 0 || fuzzN > 0
	if fuzzing || sweep {
		if trips {
			return fmt.Errorf("-sweep runs every TFlex composition size and the differential fuzzer fixes its own executor set; neither can combine with -trips")
		}
		if perRun != "" && !(perRun == "-flight" && fuzzSeed >= 0) {
			return fmt.Errorf("%s belongs to one kernel run; -sweep and the differential fuzzer do not read it", perRun)
		}
		if procs > 1 {
			return fmt.Errorf("-procs multiprograms one kernel run; -sweep and the differential fuzzer compose their own processors")
		}
	}
	if trips {
		if procs > 1 {
			return fmt.Errorf("-procs multiprograms TFlex compositions; the TRIPS baseline (-trips) runs one processor")
		}
		return nil
	}
	sizeOK := false
	for _, n := range tflex.CompositionSizes() {
		sizeOK = sizeOK || cores == n
	}
	if !sizeOK {
		return fmt.Errorf("-cores must be a composition size (1, 2, 4, 8, 16, 32), got %d", cores)
	}
	if procs*cores > tflex.NumCores {
		return fmt.Errorf("-procs %d x -cores %d exceeds the %d-core chip", procs, cores, tflex.NumCores)
	}
	return nil
}

// runFuzz drives the differential harness from the command line: one
// seed (replaying a reproducer from a test failure) or a seed range.
// A divergence is shrunk, dumped as a .tfa file with a flight-recorder
// sidecar, and reported as an error.  With -flight, a single-seed
// replay additionally re-runs the program on a 2-core composition with
// the recorder armed and writes the ring dump — divergence or not.
func runFuzz(seed int64, n int, flightOut string, flightEvents int) error {
	h := fuzz.New()
	check := func(seed int64) error {
		d, err := h.CheckSeed(seed)
		if err != nil {
			return err
		}
		if d == nil {
			return nil
		}
		d = h.Shrink(d)
		path, derr := fuzz.DumpTFA(d)
		if derr != nil {
			path = "(dump failed: " + derr.Error() + ")"
		}
		return fmt.Errorf("%s\nshrunk reproducer: %s", d.Report(), path)
	}
	if n == 0 { // single-seed replay
		if err := check(seed); err != nil {
			return err
		}
		if flightOut != "" {
			if err := dumpSeedFlight(seed, flightOut, flightEvents); err != nil {
				return err
			}
		}
		fmt.Printf("fuzz seed %d: %d executors agree\n", seed, len(h.Execs))
		return nil
	}
	for s := int64(0); s < int64(n); s++ {
		if err := check(s); err != nil {
			return err
		}
	}
	fmt.Printf("fuzz seeds [0,%d): %d executors agree on every program\n", n, len(h.Execs))
	return nil
}

// dumpSeedFlight replays one fuzz seed on a 2-core optimized
// composition with the flight recorder armed and writes the ring dump
// as JSON.
func dumpSeedFlight(seed int64, path string, events int) error {
	spec := edgegen.GenSpec(seed)
	p, err := spec.Build()
	if err != nil {
		return err
	}
	dump, err := fuzz.FlightReplay(p, spec.Input(), 2, events)
	if err != nil {
		return err
	}
	return writeFile(path, dump.WriteJSON)
}

// printFlight renders a flight dump file back as text.
func printFlight(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dump, err := flight.ParseDump(f)
	if err != nil {
		return err
	}
	return dump.WriteText(os.Stdout)
}

// runMultiProg multiprograms f.procs copies of the kernel on disjoint
// compositions of f.cores cores, validating every copy's outputs.
func runMultiProg(f simFlags, cfg tflex.RunConfig) ([]*tflex.Result, error) {
	rects, err := tflex.Partition(f.cores, f.procs)
	if err != nil {
		return nil, err
	}
	specs := make([]tflex.ProgramSpec, f.procs)
	insts := make([]*tflex.KernelInstance, f.procs)
	for i := range specs {
		if insts[i], err = tflex.BuildKernel(f.kernel, f.scale); err != nil {
			return nil, err
		}
		specs[i] = tflex.ProgramSpec{Prog: insts[i].Prog, Cores: rects[i], Init: insts[i].Init}
	}
	results, err := tflex.RunMulti(specs, cfg)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		if err := insts[i].Check(&r.Regs, r.Mem); err != nil {
			return nil, fmt.Errorf("proc %d output validation failed: %w", i, err)
		}
	}
	return results, nil
}

// runSweep fans the kernel's full composition sweep out across the
// experiment suite's worker pool and prints the cores -> cycles/speedup curve.
func runSweep(kernel string, scale, jobs int) error {
	s := experiments.NewSuite(scale)
	s.SetJobs(jobs)
	s.SetProgress(os.Stderr)
	if err := s.Prefetch(s.SweepSpecs(kernel)); err != nil {
		return err
	}
	fmt.Printf("%s composition sweep (scale %d): outputs validated against reference\n", kernel, scale)
	fmt.Printf("  %6s  %12s  %8s  %6s\n", "cores", "cycles", "speedup", "IPC")
	base, err := s.TFlexRun(kernel, 1)
	if err != nil {
		return err
	}
	for _, n := range tflex.CompositionSizes() {
		r, err := s.TFlexRun(kernel, n)
		if err != nil {
			return err
		}
		fmt.Printf("  %6d  %12d  %8.3f  %6.3f\n",
			n, r.Cycles, float64(base.Cycles)/float64(r.Cycles), r.Stats.IPC())
	}
	fmt.Fprintln(os.Stderr, s.Summary())
	return nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
