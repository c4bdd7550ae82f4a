// Command clpbench is the repository's benchmark: five workloads, five
// end-to-end metrics, and a per-layer ledger (see README.md beside this
// file and BENCHMARK.json at the repository root).
//
// Every workload is a closed loop on one goroutine: a *pass* is the
// workload's whole fixed job list, one untimed warm-up pass precedes the
// timed ones, runtime.GC() runs before every pass and GOGC is pinned to
// 400 unless the environment sets it.  Untraced runs use one P, and
// their times are in scaled seconds: every pass's seconds over the
// host's slowdown during that pass, measured by a probe that runs
// between the jobs (probe.go).  All layers are measured from outside,
// through public functions only.
//
// Usage:
//
//	clpbench [-workload all|<name>] [-seed 1] [-seconds 20] [-trace 0|1]
//	         [-repeat N] [-out f.json] [-tracedir dir] [-smoke]
//
// With one named workload the run happens in this process and the last
// line of stdout is the result object the benchmark driver reads:
// end-to-end metrics with -trace 0, per-layer metrics with -trace 1.
// With -workload all (the default) each workload runs in its own child
// process, untraced and, with -trace 1, traced as well.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// procStart is read as early as the Go runtime allows; setup_s counts
// from here to the first timed pass.
var procStart = time.Now()

// config is one run's settings, shared by every workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	tracedir string
	// probe measures the host beside every untraced pass (probe.go); nil
	// in traced runs.
	probe *hostProbe
}

// scale returns the kernel input scale for a workload's full-size value.
func (c config) scale(full int) int {
	if c.smoke {
		return 1
	}
	return full
}

// host records where the numbers were taken; a ratio is only as good as
// the machine under it (a parallel speed-up on one CPU says nothing).
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Seed       int64  `json:"seed"`
}

// metricValue is one reported metric in the driver's result format.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the richer record a run hands to -workload all / -repeat /
// -out: the result plus what the human-readable lines show.
type report struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Host     host   `json:"host"`
	Result   result `json:"result"`
	// Timings holds median, quartiles and sample count of every timed
	// quantity behind the metrics.
	Timings map[string]timing `json:"timings,omitempty"`
	// Exact holds deterministic counts; two runs of the same code and
	// seed must agree on them to the digit.
	Exact map[string]uint64 `json:"exact,omitempty"`
}

// reportPrefix marks the report line a child prints for its parent.
const reportPrefix = "clpbench-report: "

// traceFlag accepts "-trace 1" and "-trace 0" (the driver's form) as
// well as true/false; it is deliberately not a boolean flag, which
// would leave the "0" behind as a positional argument.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }
func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return fmt.Errorf("want 0 or 1")
	}
	*t = traceFlag(v)
	return nil
}

// validateFlags rejects values that would otherwise burn a run before
// failing, or silently measure nothing.
func validateFlags(workload string, seed int64, seconds float64, repeat int, args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q", args[0])
	}
	if workload != "all" && findWorkload(workload) == nil {
		return fmt.Errorf("-workload must be all or one of %s; got %q", strings.Join(workloadNames(), ", "), workload)
	}
	if seed < 0 {
		return fmt.Errorf("-seed must be >= 0, got %d", seed)
	}
	if !(seconds > 0) || seconds > 600 {
		return fmt.Errorf("-seconds must be in (0, 600], got %v", seconds)
	}
	if repeat < 1 {
		return fmt.Errorf("-repeat must be >= 1, got %d", repeat)
	}
	return nil
}

func main() {
	os.Exit(run(procStart, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs named: start is when the process (or, in
// a test, the call) began.
func run(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace traceFlag
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "shuffles job order inside a pass and picks the edgegen seed range")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "seconds of timed passes per workload")
	fs.Var(&trace, "trace", "1: run the traced pass and report per-layer metrics; 0: end-to-end metrics only")
	repeat := fs.Int("repeat", 1, "run N full sets and check each end-to-end metric's spread against its bound")
	out := fs.String("out", "", "write the reports as JSON to this file")
	fs.StringVar(&cfg.tracedir, "tracedir", "", "write each traced pass as Chrome trace JSON into this directory")
	fs.BoolVar(&cfg.smoke, "smoke", false, "scale 1, one pass, trimmed job lists (the tier-1 test's mode)")
	setupOnly := fs.Bool("setup-only", false, "internal: do the workload's set-up, print its seconds, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = bool(trace)
	if err := validateFlags(cfg.workload, cfg.seed, cfg.seconds, *repeat, fs.Args()); err != nil {
		fmt.Fprintln(stderr, "clpbench:", err)
		fs.Usage()
		return 2
	}

	// The live heap between jobs is a few KB, so at the default GOGC the
	// collector fires every handful of blocks and pass times measure GC
	// beat frequency; pin a saner target unless the caller chose one.
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		debug.SetGCPercent(400)
		gogc = "400"
	}
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GOGC: gogc, Seed: cfg.seed}

	if cfg.workload != "all" {
		if *repeat > 1 {
			fmt.Fprintln(stderr, "clpbench: -repeat needs -workload all")
			return 2
		}
		w := findWorkload(cfg.workload)
		if !cfg.trace {
			// One thread: with a second P the collector's workers run on
			// the other virtual CPU, and a pass waits for them whenever
			// another tenant holds it (12 to 18 % spread between runs
			// beside a busy neighbour against 3 to 4 % on one P).  Traced
			// runs keep every CPU for the nproc comparisons.
			h.GOMAXPROCS = 1
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			cfg.probe = newHostProbe()
		}
		if *setupOnly {
			if _, err := w.setup(cfg); err != nil {
				fmt.Fprintln(stderr, "clpbench:", err)
				return 1
			}
			raw, scaled := setupSeconds(start, cfg.probe)
			fmt.Fprintf(stdout, "%.6f %.6f\n", scaled, raw)
			return 0
		}
		rep, err := runWorkload(w, cfg, start, h, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "clpbench:", err)
			return 1
		}
		return emit(rep, *out, stdout, stderr)
	}
	return runAll(cfg, h, *repeat, *out, stdout, stderr)
}

// emit prints the report line and the driver's result line, and writes
// -out.  A run with failed operations exits non-zero.
func emit(rep *report, out string, stdout, stderr io.Writer) int {
	if out != "" {
		if err := writeJSON(out, []*report{rep}); err != nil {
			fmt.Fprintln(stderr, "clpbench:", err)
			return 1
		}
	}
	line, _ := json.Marshal(rep)
	fmt.Fprintf(stdout, "%s%s\n", reportPrefix, line)
	line, _ = json.Marshal(rep.Result)
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in its own child process — a fresh heap,
// fresh sync.Pools and fresh lazy set-up per workload — `repeat` times
// over, then checks the sets against each other.
func runAll(cfg config, h host, repeat int, out string, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "clpbench: host nproc=%d GOMAXPROCS=%d %s GOGC=%s seed=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOGC, h.Seed)
	sets := make([][]*report, repeat)
	code := 0
	for s := range sets {
		if repeat > 1 {
			fmt.Fprintf(stdout, "\n######## set %d of %d ########\n", s+1, repeat)
		}
		for _, w := range workloads {
			modes := []bool{false}
			if cfg.trace {
				modes = append(modes, true)
			}
			for _, traced := range modes {
				c := cfg
				c.workload, c.trace = w.name, traced
				rep, err := runChild(c, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "clpbench: %s: %v\n", w.name, err)
					return 1
				}
				if !rep.Result.Correct {
					code = 1
				}
				sets[s] = append(sets[s], rep)
			}
		}
	}
	if out != "" {
		if err := writeJSON(out, sets); err != nil {
			fmt.Fprintln(stderr, "clpbench:", err)
			return 1
		}
	}
	if repeat > 1 && !compareSets(sets, stdout) {
		code = 1
	}
	return code
}

// childArgs renders cfg as the flags of a single-workload child.
func childArgs(c config) []string {
	args := []string{
		"-workload", c.workload,
		"-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-trace", strconv.FormatBool(c.trace),
	}
	if c.smoke {
		args = append(args, "-smoke")
	}
	if c.tracedir != "" {
		args = append(args, "-tracedir", c.tracedir)
	}
	return args
}

// runChild re-executes this binary for one workload, echoes its
// human-readable lines and returns the report it printed.
func runChild(c config, stdout, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, childArgs(c)...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run() // Run waits for the child to end
	var rep *report
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, reportPrefix); ok {
			rep = &report{}
			if err := json.Unmarshal([]byte(rest), rep); err != nil {
				return nil, fmt.Errorf("child report: %w", err)
			}
			continue
		}
		if strings.HasPrefix(line, "{") {
			continue // the driver's result line; the report carries it
		}
		fmt.Fprintln(stdout, line)
	}
	if rep == nil {
		return nil, fmt.Errorf("child printed no report (%v)", runErr)
	}
	return rep, nil
}

// timeSetupChild runs one set-up-only child and returns the scaled
// seconds it took from its own process start to being ready for a timed
// pass.
func timeSetupChild(c config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	c.trace = false
	cmd := exec.Command(exe, append(childArgs(c), "-setup-only")...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output() // Output waits for the child to end
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	scaled, _, _ := strings.Cut(strings.TrimSpace(string(b)), " ")
	return strconv.ParseFloat(scaled, 64)
}
