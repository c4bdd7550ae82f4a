package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// setupChildren is how many extra set-ups, each a fresh process, a run
// times besides its own; setup_s is the median of all of them.  Fresh
// processes, because anything cached process-wide is paid once and a
// repeated in-process set-up would not show it.
const setupChildren = 2

// timedPass is one measured pass.
type timedPass struct {
	wall           float64 // seconds, the probe's slices taken out
	slowdown       float64 // of the host during the pass, by the probe; 1 without one
	mallocs, bytes uint64
	res            passResult
}

// timePass collects garbage, then runs pass between two exact memory
// readings.  The probe allocates nothing, so the readings are the
// pass's own.
func timePass(pass func() passResult, probe *hostProbe) timedPass {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var tp timedPass
	probe.begin()
	t0 := time.Now()
	tp.res = pass()
	busy, slowdown := probe.end()
	tp.wall, tp.slowdown = (time.Since(t0) - busy).Seconds(), slowdown
	runtime.ReadMemStats(&m1)
	tp.mallocs, tp.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return tp
}

// setupSeconds returns the seconds from start to now without the
// probe's slices, as measured and scaled by the host's slowdown over
// that stretch.  The probe must not have begun another stretch since it
// was made.
func setupSeconds(start time.Time, probe *hostProbe) (raw, scaled float64) {
	busy, slowdown := probe.end()
	raw = (time.Since(start) - busy).Seconds()
	return raw, raw / slowdown
}

// runWorkload sets the workload up, runs its passes and builds the
// report: end-to-end metrics untraced, the per-layer ledger traced.
func runWorkload(w *workload, cfg config, start time.Time, h host, stdout io.Writer) (*report, error) {
	inst, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	_, ownSetup := setupSeconds(start, cfg.probe)
	rep := &report{
		Workload: w.name, Traced: cfg.trace, Host: h,
		Result:  result{Metrics: map[string]metricValue{}},
		Timings: map[string]timing{}, Exact: map[string]uint64{},
	}
	fmt.Fprintf(stdout, "\n== %s (%s) ==\n   %s\n", w.name, map[bool]string{false: "end to end", true: "traced"}[cfg.trace], w.why)
	var errs []string
	if cfg.trace {
		errs = runTraced(inst, cfg, rep, stdout)
	} else {
		errs, err = runTimed(inst, cfg, ownSetup, rep, stdout)
		if err != nil {
			return nil, err
		}
	}
	rep.Result.Correct = rep.Result.Failed == 0
	fmt.Fprintf(stdout, "   ops %d  failed %d\n", rep.Result.Attempted, rep.Result.Failed)
	for _, e := range errs {
		fmt.Fprintf(stdout, "   FAILED %s\n", e)
	}
	return rep, nil
}

// runTimed runs timed passes for cfg.seconds and fills the end-to-end
// metrics.  The set-up children run between timed passes, not after
// them, so the passes sample a longer stretch of the host's drifting
// load at no extra cost.
func runTimed(inst instance, cfg config, ownSetup float64, rep *report, stdout io.Writer) ([]string, error) {
	minPasses, children := 3, setupChildren
	if cfg.smoke {
		minPasses, children = 1, 0
	}
	var errs []string
	var walls, scaled, slowdowns []float64
	var blocks, mallocs, bytes uint64
	var first passResult
	setups := []float64{ownSetup}
	for t0 := time.Now(); len(walls) < minPasses || (time.Since(t0).Seconds() < cfg.seconds && !cfg.smoke); {
		tp := timePass(inst.pass, cfg.probe)
		if len(walls) == 0 {
			first = tp.res
		} else if tp.res.blocks != first.blocks || tp.res.cycles != first.cycles {
			rep.Result.Failed++
			errs = append(errs, fmt.Sprintf("pass %d: %d blocks %d cycles, first pass had %d and %d",
				len(walls)+1, tp.res.blocks, tp.res.cycles, first.blocks, first.cycles))
		}
		walls = append(walls, tp.wall)
		scaled = append(scaled, tp.wall/tp.slowdown)
		slowdowns = append(slowdowns, tp.slowdown)
		blocks += tp.res.blocks
		mallocs += tp.mallocs
		bytes += tp.bytes
		rep.Result.Attempted += tp.res.ops
		rep.Result.Failed += tp.res.failed
		errs = append(errs, tp.res.errs...)
		if len(setups) <= children && len(walls)%2 == 0 {
			c0 := time.Now()
			s, err := timeSetupChild(cfg)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
			t0 = t0.Add(time.Since(c0)) // cfg.seconds are of timed passes
		}
	}
	for len(setups) <= children {
		s, err := timeSetupChild(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	rep.Exact["blocks_per_pass"] = first.blocks
	rep.Exact["sim_cycles_per_pass"] = first.cycles
	rep.Exact["outputs_digest"] = digestOf(first.outs...)
	rep.Timings["setup_s"] = summarize(setups)
	rep.Timings["wall_s"] = summarize(scaled)
	rep.Timings["raw_wall_s"] = summarize(walls)
	rep.Timings["host_slowdown"] = summarize(slowdowns)

	// Every time is in scaled seconds: a pass's own seconds over the
	// host's slowdown during that pass (probe.go).
	wall := rep.Timings["wall_s"].Median
	vals := map[string]float64{
		"setup_s":            rep.Timings["setup_s"].Median,
		"wall_s":             wall,
		"blocks_per_s":       float64(first.blocks) / wall,
		"allocs_per_block":   float64(mallocs) / float64(blocks),
		"alloc_kb_per_block": float64(bytes) / 1024 / float64(blocks),
	}
	for _, m := range endToEnd {
		rep.Result.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		line := fmt.Sprintf("   %-22s %14.6g %-6s", m.name, vals[m.name], m.unit)
		if t, ok := rep.Timings[m.name]; ok {
			line += fmt.Sprintf("  of %d: fastest %.4g, median %.4g, quartiles %.4g .. %.4g", t.N, t.Min, t.Median, t.Q1, t.Q3)
		}
		fmt.Fprintln(stdout, line)
	}
	raw, slow := rep.Timings["raw_wall_s"], rep.Timings["host_slowdown"]
	fmt.Fprintf(stdout, "   %d timed passes; %d blocks and %d simulated cycles per pass\n", len(walls), first.blocks, first.cycles)
	fmt.Fprintf(stdout, "   unscaled pass seconds: fastest %.4g, median %.4g; host slowdown by the probe: median %.3g, quartiles %.3g .. %.3g\n",
		raw.Min, raw.Median, slow.Median, slow.Q1, slow.Q3)
	fmt.Fprintf(stdout, "   pass seconds %.3f\n   slowdowns    %.3f\n", walls, slowdowns)
	return errs, nil
}

// runTraced runs a few untraced passes for the baseline, then the
// workload's traced passes and the isolated component drives, and fills
// the per-layer metrics.
func runTraced(inst instance, cfg config, rep *report, stdout io.Writer) []string {
	led := newLedger()
	var walls []float64
	untraced := func() {
		tp := timePass(inst.pass, nil)
		walls = append(walls, tp.wall)
		led.absorb(tp.res)
	}
	// Untraced passes on both sides of the traced ones, so that drift in
	// machine load does not read as tracing overhead: a third of the
	// run's seconds before, within one to three passes, and one after.
	var before float64
	for n := 0; n < 1 || (n < 3 && before < cfg.seconds/3 && !cfg.smoke); n++ {
		untraced()
		before += walls[n]
	}
	tr := newTracer()
	runtime.GC()
	inst.traced(tr, led)
	if !cfg.smoke {
		untraced()
	}
	base := median(walls)
	led.resolve(base)
	rep.Timings["untraced_wall_s"] = summarize(walls)
	n := 200_000
	if cfg.smoke {
		n = 4096
	}
	microDrives(led, n)
	fillEstimates(led)

	rep.Result.Attempted, rep.Result.Failed = led.ops, led.failed
	rep.Exact["sim_cycles"] = uint64(led.vals["sim.cycles"])
	for _, m := range perLayer {
		v := led.vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Result.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "   %-34s %14.6g %s\n", m.name, v, m.unit)
	}
	names := make([]string, 0, len(led.extras))
	for name := range led.extras {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "   (%s %.6g)\n", name, led.extras[name])
	}
	fmt.Fprintf(stdout, "   untraced pass median %.4g s over %d; traced pass %.4g s, %d spans\n",
		base, len(walls), tr.spans[0].seconds(), len(tr.spans))
	printSelfTimes(tr, stdout)
	if cfg.tracedir != "" {
		if err := tr.writeChrome(cfg.tracedir, rep.Workload); err != nil {
			led.errs = append(led.errs, "trace not written: "+err.Error())
		}
	}
	return led.errs
}

// printSelfTimes lists where the traced pass went, by span name.
func printSelfTimes(tr *tracer, stdout io.Writer) {
	tot := tr.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Strings(names)
	sort.SliceStable(names, func(i, j int) bool { return tot[names[i]].self > tot[names[j]].self })
	wall := tr.spans[0].seconds()
	fmt.Fprintf(stdout, "   self time by span (share of the traced pass):\n")
	for _, n := range names {
		st := tot[n]
		fmt.Fprintf(stdout, "     %-18s %9.4f s %5.1f %%  x%d\n", n, st.self, 100*st.self/wall, st.n)
	}
}

// compareSets checks -repeat's sets against each other: every end-to-end
// metric's relative spread must stay within its bound, and exact counts
// must match to the digit.
func compareSets(sets [][]*report, stdout io.Writer) bool {
	ok := true
	fmt.Fprintf(stdout, "\n######## %d sets compared ########\n", len(sets))
	for i, first := range sets[0] {
		if first.Traced {
			for _, set := range sets[1:] {
				if set[i].Exact["sim_cycles"] != first.Exact["sim_cycles"] {
					ok = false
					fmt.Fprintf(stdout, "%s traced: sim.cycles %d vs %d  MISMATCH\n", first.Workload, first.Exact["sim_cycles"], set[i].Exact["sim_cycles"])
				}
			}
			continue
		}
		for _, m := range endToEnd {
			vals := make([]float64, len(sets))
			for s, set := range sets {
				vals[s] = set[i].Result.Metrics[m.name].Value
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			spread := (sorted[len(sorted)-1] - sorted[0]) / quantile(sorted, 0.5)
			verdict := "ok"
			switch {
			case spread <= m.bound:
			case m.name == "setup_s":
				// As the driver does: set-up is timed three times a run, so
				// single runs are not held to its bound, only medians of ten.
				verdict = "over bound (not gated)"
			default:
				verdict, ok = "OVER BOUND", false
			}
			fmt.Fprintf(stdout, "%-12s %-20s spread %6.2f %%  bound %5.1f %%  %s\n", first.Workload, m.name, 100*spread, 100*m.bound, verdict)
		}
		for _, key := range []string{"blocks_per_pass", "sim_cycles_per_pass", "outputs_digest"} {
			for _, set := range sets[1:] {
				if set[i].Exact[key] != first.Exact[key] {
					ok = false
					fmt.Fprintf(stdout, "%-12s %s %d vs %d  MISMATCH\n", first.Workload, key, first.Exact[key], set[i].Exact[key])
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%s\n", map[bool]string{true: "sets agree", false: "sets DISAGREE"}[ok])
	return ok
}
