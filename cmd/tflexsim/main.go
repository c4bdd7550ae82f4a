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
// prints per-processor results.
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
// pipeline records as JSON after the run (combined with -fuzz-seed it
// replays the seed with the recorder armed); -flight-events N sizes the
// ring; -flight-print FILE renders a dump back as text:
//
//	tflexsim -kernel conv -cores 8 -flight dump.json
//	tflexsim -fuzz-seed 7 -flight dump.json
//	tflexsim -flight-print dump.json
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/clp-sim/tflex"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/experiments"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/fuzz"
	"github.com/clp-sim/tflex/internal/profiling"
)

func main() {
	kernel := flag.String("kernel", "conv", "benchmark name (see -list)")
	cores := flag.Int("cores", 8, "TFlex composition size (1, 2, 4, 8, 16, 32)")
	useTRIPS := flag.Bool("trips", false, "run on the fixed-granularity TRIPS baseline")
	scale := flag.Int("scale", 2, "kernel input scale")
	list := flag.Bool("list", false, "list benchmarks and exit")
	jsonOut := flag.Bool("json", false, "emit statistics as JSON")
	timeline := flag.String("timeline", "", "write a per-block lifecycle CSV to this file")
	metrics := flag.String("metrics", "", "write the telemetry registry (counters/gauges/histograms) as JSON to this file")
	chromeTrace := flag.String("chrome-trace", "", "write block lifecycles as a chrome://tracing event file")
	sample := flag.String("sample", "", "write cycle-sampled occupancy time series as JSON to this file")
	sampleEvery := flag.Uint64("sample-every", 256, "sampling interval in cycles for -sample")
	critPath := flag.Bool("critpath", false, "attribute every committed block's latency across the critical-path categories and print the breakdown")
	serve := flag.String("serve", "", "serve live observability (/metrics, /critpath, /events, /debug/pprof) on this address during the run")
	sweep := flag.Bool("sweep", false, "run the kernel on every composition size concurrently and print the speedup curve")
	jobs := flag.Int("jobs", 0, "concurrent simulation jobs for -sweep (<=0: GOMAXPROCS)")
	procs := flag.Int("procs", 1, "multiprogram this many copies of the kernel on disjoint compositions")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	fuzzSeed := flag.Int64("fuzz-seed", -1, "replay this differential-fuzz seed through every executor and report any divergence")
	fuzzN := flag.Int("fuzz-n", 0, "differentially check seeds [0,N) across every executor")
	flightOut := flag.String("flight", "", "arm the flight recorder and write its ring dump as JSON to this file after the run")
	flightEvents := flag.Int("flight-events", 0, "flight ring size in records, rounded up to a power of two (<=0: 4096)")
	flightPrint := flag.String("flight-print", "", "render a flight dump file as text on stdout and exit")
	flag.Parse()

	if *flightPrint != "" {
		if err := printFlight(*flightPrint); err != nil {
			fmt.Fprintln(os.Stderr, "tflexsim:", err)
			os.Exit(1)
		}
		return
	}

	if err := validateFlags(*cores, *scale, *procs, *fuzzN, *fuzzSeed, *useTRIPS); err != nil {
		fmt.Fprintln(os.Stderr, "tflexsim:", err)
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflexsim:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *list {
		for _, k := range append(tflex.Kernels(), tflex.KernelExtras()...) {
			ilp := "low-ilp"
			if k.HighILP {
				ilp = "high-ilp"
			}
			fmt.Printf("%-12s %-8s %s\n", k.Name, k.Suite, ilp)
		}
		return
	}

	if *fuzzSeed >= 0 || *fuzzN > 0 {
		if err := runFuzz(*fuzzSeed, *fuzzN, *flightOut, *flightEvents); err != nil {
			fmt.Fprintln(os.Stderr, "tflexsim:", err)
			os.Exit(1)
		}
		return
	}

	if *sweep {
		if err := runSweep(*kernel, *scale, *jobs); err != nil {
			fmt.Fprintln(os.Stderr, "tflexsim:", err)
			os.Exit(1)
		}
		return
	}

	var srv *tflex.Observer
	if *serve != "" {
		srv = tflex.NewObserver()
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tflexsim: serve:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "observability server on http://%s (endpoints: /metrics /critpath /events /flight /debug/pprof)\n", addr)
		defer srv.Close()
	}

	if *procs > 1 {
		if err := runMultiProg(*kernel, *scale, *cores, *procs, *flightOut, *flightEvents, srv); err != nil {
			fmt.Fprintln(os.Stderr, "tflexsim:", err)
			os.Exit(1)
		}
		return
	}

	runCfg := tflex.RunConfig{
		Cores:        *cores,
		TRIPS:        *useTRIPS,
		CritPath:     *critPath,
		Flight:       *flightOut != "",
		FlightEvents: *flightEvents,
		Observe:      srv,
	}
	var events []tflex.BlockEvent
	if *timeline != "" {
		runCfg.OnBlock = func(ev tflex.BlockEvent) { events = append(events, ev) }
	}
	runCfg.CollectMetrics = *metrics != ""
	if *chromeTrace != "" {
		runCfg.ChromeTrace = tflex.NewTrace()
	}
	if *sample != "" {
		runCfg.SampleEvery = *sampleEvery
	}
	res, err := tflex.RunKernel(*kernel, *scale, runCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflexsim:", err)
		os.Exit(1)
	}
	if *timeline != "" {
		if err := writeTimeline(*timeline, events); err != nil {
			fmt.Fprintln(os.Stderr, "tflexsim:", err)
			os.Exit(1)
		}
	}
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*metrics, func(w io.Writer) error { return res.Telemetry.WriteJSON(w) }},
		{*chromeTrace, func(w io.Writer) error { return runCfg.ChromeTrace.WriteJSON(w) }},
		{*sample, func(w io.Writer) error { return res.Samples.WriteJSON(w) }},
		{*flightOut, func(w io.Writer) error { return res.Flight.WriteJSON(w) }},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			fmt.Fprintln(os.Stderr, "tflexsim:", err)
			os.Exit(1)
		}
	}
	cfg := fmt.Sprintf("TFlex-%d", *cores)
	if *useTRIPS {
		cfg = "TRIPS"
	}
	st := res.Stats
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Kernel   string
			Config   string
			Scale    int
			Cycles   uint64
			IPC      float64
			Stats    tflex.Stats
			CritPath *tflex.CritPathSummary `json:",omitempty"`
		}{*kernel, cfg, *scale, res.Cycles, st.IPC(), st, res.CritPath}); err != nil {
			fmt.Fprintln(os.Stderr, "tflexsim:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("%s on %s (scale %d): outputs validated against reference\n", *kernel, cfg, *scale)
	fmt.Printf("  cycles            %d\n", res.Cycles)
	fmt.Printf("  blocks committed  %d (flushed %d)\n", st.BlocksCommitted, st.BlocksFlushed)
	fmt.Printf("  useful insts      %d (IPC %.3f)\n", st.InstsCommitted, st.IPC())
	fmt.Printf("  loads/stores      %d/%d\n", st.Loads, st.Stores)
	fmt.Printf("  branch flushes    %d\n", st.BranchFlushes)
	fmt.Printf("  violation flushes %d\n", st.ViolationFlushes)
	fmt.Printf("  LSQ NACKs         %d (overflow flushes %d)\n", st.LSQNACKs, st.LSQOverflowFlushes)
	fmt.Printf("  I-cache misses    %d\n", st.ICacheMisses)
	fc, fh, fb, fd, fi := st.FetchLatency()
	fmt.Printf("  fetch latency     const %.1f + hand-off %.1f + distribute %.1f + dispatch %.1f + i-stall %.1f cycles/block\n",
		fc, fh, fb, fd, fi)
	ca, ch := st.CommitLatency()
	fmt.Printf("  commit latency    arch %.1f + handshake %.1f cycles/block\n", ca, ch)
	util := st.Utilization()
	if len(util) > 0 {
		fmt.Printf("  core utilization  ")
		for i, u := range util {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%.2f", u)
		}
		fmt.Println(" issued insts/cycle")
	}
	if res.CritPath != nil {
		fmt.Printf("  critical path     %s", res.CritPath.String())
	}
}

// validateFlags rejects flag combinations before any simulation runs:
// a composition size the chip cannot form or a partition that does not
// fit the 32-core array would otherwise surface as a mid-run error (or,
// for -procs with -trips, silently run a single processor).
func validateFlags(cores, scale, procs, fuzzN int, fuzzSeed int64, trips bool) error {
	if scale < 1 {
		return fmt.Errorf("-scale must be >= 1, got %d", scale)
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
	if (fuzzSeed >= 0 || fuzzN > 0) && trips {
		return fmt.Errorf("the differential fuzzer fixes its own executor set; it cannot combine with -trips")
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

// runMultiProg multiprograms n copies of the kernel on disjoint
// compositions of the given size and prints per-processor results.
func runMultiProg(kernel string, scale, cores, n int, flightOut string, flightEvents int, srv *tflex.Observer) error {
	rects, err := tflex.Partition(cores, n)
	if err != nil {
		return err
	}
	specs := make([]tflex.ProgramSpec, n)
	insts := make([]*tflex.KernelInstance, n)
	for i := range specs {
		inst, err := tflex.BuildKernel(kernel, scale)
		if err != nil {
			return err
		}
		insts[i] = inst
		specs[i] = tflex.ProgramSpec{Prog: inst.Prog, Cores: rects[i], Init: inst.Init}
	}
	results, err := tflex.RunMulti(specs, tflex.RunConfig{
		Flight:       flightOut != "",
		FlightEvents: flightEvents,
		Observe:      srv,
	})
	if err != nil {
		return err
	}
	if flightOut != "" {
		if err := writeFile(flightOut, results[0].Flight.WriteJSON); err != nil {
			return err
		}
	}
	for i, r := range results {
		if err := insts[i].Check(&r.Regs, r.Mem); err != nil {
			return fmt.Errorf("proc %d output validation failed: %w", i, err)
		}
	}
	fmt.Printf("%s x%d on TFlex-%d partitions (scale %d): outputs validated against reference\n",
		kernel, n, cores, scale)
	for i, r := range results {
		fmt.Printf("  proc %d  cycles %12d  IPC %6.3f  blocks committed %d\n",
			i, r.Cycles, r.Stats.IPC(), r.Stats.BlocksCommitted)
	}
	return nil
}

// runSweep fans the kernel's full composition sweep out across the
// concurrent job engine and prints the cores -> cycles/speedup curve.
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

// writeTimeline dumps the block lifecycle events as CSV.
func writeTimeline(path string, events []tflex.BlockEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"seq", "block", "owner_core", "fetch_start", "dispatch_done", "complete", "commit_start", "retired", "flushed", "useful"}); err != nil {
		return err
	}
	for _, ev := range events {
		rec := []string{
			strconv.FormatUint(ev.Seq, 10),
			ev.Name,
			strconv.Itoa(ev.OwnerCore),
			strconv.FormatUint(ev.FetchStart, 10),
			strconv.FormatUint(ev.DispatchDone, 10),
			strconv.FormatUint(ev.CompleteAt, 10),
			strconv.FormatUint(ev.CommitStart, 10),
			strconv.FormatUint(ev.RetiredAt, 10),
			strconv.FormatBool(ev.Flushed),
			strconv.Itoa(ev.Useful),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
