// Command tflexexp regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	tflexexp -exp all
//	tflexexp -exp fig6 -scale 4 -jobs 8
//	tflexexp -exp fig10 -workloads 20
//
// -exp takes one name of experiments.Evaluation() — the usage text lists
// them — or all.
//
// With -serve ADDR a live observability server runs for the duration of
// the sweep: /metrics (latest telemetry snapshot), /critpath (rolling
// critical-path attribution across all jobs), /events (SSE sampler
// stream) and /debug/pprof.  Observation is passive — the tables on
// stdout are unchanged.  A parallel-efficiency summary line (job
// concurrency) lands on stderr after the tables.
//
// Each experiment prefetches its full simulation job set, which the suite
// runs on -jobs workers (default GOMAXPROCS), and renders its tables from
// the results; the tables on stdout are byte-identical at any -jobs
// value.  Progress and the suite summary go to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"github.com/clp-sim/tflex"
	"github.com/clp-sim/tflex/internal/experiments"
	"github.com/clp-sim/tflex/internal/profiling"
)

// expNames is what -exp accepts, in evaluation order.
func expNames() string {
	var names []string
	for _, e := range experiments.Evaluation() {
		names = append(names, e.Name)
	}
	return strings.Join(append(names, "all"), ", ")
}

// validateFlags rejects flag values that would otherwise degrade the
// run silently or fail late: non-positive -scale/-workloads render
// empty or degenerate sweeps, an unparseable -serve address would only
// surface once the server starts, and an unknown -exp used to be
// diagnosed after flag handling rather than with the usage text.
func validateFlags(exp string, scale, workloads int, serve string) error {
	if scale < 1 {
		return fmt.Errorf("-scale must be >= 1, got %d", scale)
	}
	if workloads < 1 {
		return fmt.Errorf("-workloads must be >= 1, got %d", workloads)
	}
	if serve != "" {
		if _, _, err := net.SplitHostPort(serve); err != nil {
			return fmt.Errorf("-serve %q: %v (want host:port, e.g. 127.0.0.1:8080)", serve, err)
		}
	}
	known := exp == "all"
	for _, e := range experiments.Evaluation() {
		known = known || exp == e.Name
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (want one of %s)", exp, expNames())
	}
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+expNames()+")")
	scale := flag.Int("scale", 2, "kernel input scale")
	workloads := flag.Int("workloads", 10, "multiprogrammed workloads per size (fig10)")
	jobs := flag.Int("jobs", 0, "concurrent simulation jobs (<=0: GOMAXPROCS)")
	progress := flag.Bool("progress", false, "print per-job progress with wall-clock timing to stderr")
	metrics := flag.String("metrics", "", "write every job's telemetry-registry snapshot as JSON to this file")
	chromeTrace := flag.String("chrome-trace", "", "write the suite's job lifecycles as a chrome://tracing event file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	serve := flag.String("serve", "", "serve live observability (/metrics, /critpath, /events, /debug/pprof) on this address while the sweep runs")
	flag.Parse()

	if err := validateFlags(*exp, *scale, *workloads, *serve); err != nil {
		fmt.Fprintln(os.Stderr, "tflexexp:", err)
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflexexp:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	s := experiments.NewSuite(*scale)
	s.SetJobs(*jobs)
	if *progress {
		s.SetProgress(os.Stderr)
	}
	var trace *tflex.Trace
	if *chromeTrace != "" {
		trace = tflex.NewTrace()
		s.SetTrace(trace)
	}
	if *serve != "" {
		srv := tflex.NewObserver()
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tflexexp: serve:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "observability server on http://%s (endpoints: /metrics /critpath /events /debug/pprof)\n", addr)
		s.SetObserver(srv)
		defer srv.Close()
	}

	for _, e := range experiments.Evaluation() {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		if err := render(os.Stdout, s, e, *workloads); err != nil {
			fmt.Fprintf(os.Stderr, "tflexexp: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}

	// The telemetry artifacts and the suite summary follow the tables.
	if *metrics != "" {
		if err := writeFile(*metrics, s.WriteMetrics); err != nil {
			fmt.Fprintln(os.Stderr, "tflexexp:", err)
			os.Exit(1)
		}
	}
	if trace != nil {
		if err := writeFile(*chromeTrace, trace.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "tflexexp:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintln(os.Stderr, s.Summary())
	fmt.Fprintln(os.Stderr, s.Parallel())
}

// render runs one experiment and writes its banner and tables — the
// whole of what the experiment contributes to stdout.
func render(w io.Writer, s *experiments.Suite, e experiments.Experiment, workloads int) error {
	fmt.Fprintf(w, "\n================ %s ================\n", strings.ToUpper(e.Name))
	out, err := e.Render(s, workloads)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, out)
	return err
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
