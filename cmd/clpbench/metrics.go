package main

import (
	"math"
	"sort"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units
// and directions (main_test.go holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the five metrics every workload reports with -trace 0.
// The times are scaled seconds (probe.go).  Their bounds are the widest
// the driver takes: between runs of the same code the scaled median
// pass moves 2 to 7 % on this shared host, in hours that move the
// unscaled one 5 to 20 %, and between hours the medians themselves
// move up to 13 % (README.md has the tables).  Allocation counts repeat
// to four digits except on fuzz_corpus, where each seed draws other
// programs and the count moves 2 to 3.5 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"blocks_per_s", "1/s", "higher", 0.25},
	{"allocs_per_block", "count", "lower", 0.07},
	{"alloc_kb_per_block", "KiB", "lower", 0.02},
}

// perLayer are the ledger's metrics, reported with -trace 1 on every
// workload; a layer the workload does not exercise reports 0.  README.md
// says which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	// Set-up: moves wall_s and allocs_per_block on paper_eval, not steady.
	{name: "kernels.build_s", unit: "s", better: "lower"},
	{name: "kernels.check_s", unit: "s", better: "lower"},
	{name: "sim.new_s", unit: "s", better: "lower"},
	{name: "sim.addproc_s", unit: "s", better: "lower"},
	{name: "sim.setup_share", unit: "ratio", better: "lower"},
	{name: "sim.setup_allocs_per_job", unit: "count", better: "lower"},
	// Event loop: moves blocks_per_s on steady, multiprog, observed.
	{name: "sim.run_s", unit: "s", better: "lower"},
	{name: "sim.run_ns_per_block", unit: "ns", better: "lower"},
	{name: "sim.run_allocs_per_block", unit: "count", better: "lower"},
	{name: "sim.run_ns_per_block.c1", unit: "ns", better: "lower"},
	{name: "sim.run_ns_per_block.c8", unit: "ns", better: "lower"},
	{name: "sim.run_ns_per_block.c32", unit: "ns", better: "lower"},
	{name: "sim.run_ns_per_block.trips", unit: "ns", better: "lower"},
	// Components driven in isolation.
	{name: "noc.send_ns", unit: "ns", better: "lower"},
	{name: "noc.multicast_ns_per_target", unit: "ns", better: "lower"},
	{name: "mem.l1_access_ns", unit: "ns", better: "lower"},
	{name: "mem.l1_fill_ns", unit: "ns", better: "lower"},
	{name: "mem.lsq_insert_ns", unit: "ns", better: "lower"},
	{name: "mem.lsq_forward_ns", unit: "ns", better: "lower"},
	{name: "mem.lsq_remove_ns", unit: "ns", better: "lower"},
	{name: "mem.l2_read_ns", unit: "ns", better: "lower"},
	{name: "mem.dram_access_ns", unit: "ns", better: "lower"},
	{name: "predictor.predict_ns", unit: "ns", better: "lower"},
	{name: "predictor.train_ns", unit: "ns", better: "lower"},
	{name: "exec.evalalu_ns", unit: "ns", better: "lower"},
	// Component model counts (exact) and host-share estimates.
	{name: "noc.msgs_per_block", unit: "count", better: "lower"},
	{name: "noc.hops_per_msg", unit: "count", better: "lower"},
	{name: "noc.stall_cycles_per_msg", unit: "cycles", better: "lower"},
	{name: "mem.l1d_accesses_per_block", unit: "count", better: "lower"},
	{name: "mem.l1d_miss_ratio", unit: "ratio", better: "lower"},
	{name: "mem.l2_accesses_per_block", unit: "count", better: "lower"},
	{name: "mem.l2_miss_ratio", unit: "ratio", better: "lower"},
	{name: "mem.dram_requests_per_block", unit: "count", better: "lower"},
	{name: "mem.lsq_nack_ratio", unit: "ratio", better: "lower"},
	{name: "predictor.lookups_per_block", unit: "count", better: "lower"},
	{name: "predictor.accuracy", unit: "ratio", better: "higher"},
	{name: "noc.est_share", unit: "ratio", better: "lower"},
	{name: "mem.est_share", unit: "ratio", better: "lower"},
	{name: "predictor.est_share", unit: "ratio", better: "lower"},
	// Model (exact): a simulator-only change must leave these identical.
	{name: "sim.cycles", unit: "cycles", better: "lower"},
	{name: "sim.ipc", unit: "ratio", better: "higher"},
	{name: "sim.insts_per_block", unit: "count", better: "higher"},
	{name: "sim.fired_per_committed", unit: "ratio", better: "lower"},
	{name: "sim.flush_ratio", unit: "ratio", better: "lower"},
	{name: "sim.fetch_cycles_per_block", unit: "cycles", better: "lower"},
	{name: "sim.commit_cycles_per_block", unit: "cycles", better: "lower"},
	{name: "critpath.fetch_dispatch", unit: "cycles", better: "lower"},
	{name: "critpath.noc_hop", unit: "cycles", better: "lower"},
	{name: "critpath.noc_contention", unit: "cycles", better: "lower"},
	{name: "critpath.alu", unit: "cycles", better: "lower"},
	{name: "critpath.lsq_wait", unit: "cycles", better: "lower"},
	{name: "critpath.cache_miss", unit: "cycles", better: "lower"},
	{name: "critpath.reg_rw", unit: "cycles", better: "lower"},
	{name: "critpath.commit", unit: "cycles", better: "lower"},
	// Domains: moves wall_s on multiprog only.
	{name: "sim.domains", unit: "count", better: "higher"},
	{name: "sim.windows_per_kcycle", unit: "count", better: "lower"},
	{name: "sim.events_per_block", unit: "count", better: "lower"},
	{name: "sim.barrier_wait_per_window", unit: "cycles", better: "lower"},
	{name: "sim.shared_grants_per_block", unit: "count", better: "lower"},
	{name: "sim.shared_wait_per_grant", unit: "count", better: "lower"},
	{name: "sim.inbox_depth_max", unit: "count", better: "lower"},
	{name: "sim.par_speedup", unit: "ratio", better: "higher"},
	{name: "sim.par_identical", unit: "count", better: "higher"},
	// Front end and executors: moves wall_s on fuzz_corpus (and the
	// Figure 5 jobs of paper_eval), not steady.
	{name: "edgegen.gen_ns_per_spec", unit: "ns", better: "lower"},
	{name: "asm.assemble_ns_per_inst", unit: "ns", better: "lower"},
	{name: "exec.run_ns_per_block", unit: "ns", better: "lower"},
	{name: "exec.run_allocs_per_block", unit: "count", better: "lower"},
	{name: "conv.run_ns_per_inst", unit: "ns", better: "lower"},
	{name: "arch.functional_s", unit: "s", better: "lower"},
	{name: "arch.convtrace_s", unit: "s", better: "lower"},
	{name: "arch.sim_opt_s", unit: "s", better: "lower"},
	{name: "arch.sim_ref_s", unit: "s", better: "lower"},
	{name: "sim.ref_run_ns_per_block", unit: "ns", better: "lower"},
	{name: "fuzz.self_s", unit: "s", better: "lower"},
	// Observers: moves wall_s on observed only.
	{name: "telemetry.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "critpath.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "flight.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "telemetry.trace_events_per_block", unit: "count", better: "lower"},
	{name: "flight.records_per_block", unit: "count", better: "lower"},
	// Harness: paper_eval.
	{name: "runner.self_s", unit: "s", better: "lower"},
	{name: "runner.jobs", unit: "count", better: "lower"},
	{name: "runner.cache_hits", unit: "count", better: "higher"},
	{name: "runner.speedup_jobsN", unit: "ratio", better: "higher"},
	{name: "experiments.render_s", unit: "s", better: "lower"},
	{name: "experiments.fig6_err_pct", unit: "%", better: "lower"},
	{name: "experiments.fig5_err_pct", unit: "%", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
}

// ledger collects the per-layer values of one traced run, plus the
// operations its extra passes attempted.
type ledger struct {
	vals   map[string]float64
	extras map[string]float64 // context for the text report, not metrics
	// againstBase are walls to be set against the median untraced pass,
	// which is only known once the passes after the traced one have run.
	againstBase []baseRow
	ops, failed int
	errs        []string
}

type baseRow struct {
	name    string
	wall    float64
	inverse bool // base / wall, a speed-up, not wall / base, an overhead
}

func newLedger() *ledger {
	return &ledger{vals: map[string]float64{}, extras: map[string]float64{}}
}

func (l *ledger) set(name string, v float64)   { l.vals[name] = v }
func (l *ledger) extra(name string, v float64) { l.extras[name] = v }

// ratio sets name to num/den, or leaves it 0 when the layer did no work.
func (l *ledger) ratio(name string, num, den float64) {
	if den != 0 {
		l.vals[name] = num / den
	}
}

// overBase will set name to wall / base; baseOver to base / wall.
func (l *ledger) overBase(name string, wall float64) {
	l.againstBase = append(l.againstBase, baseRow{name, wall, false})
}

func (l *ledger) baseOver(name string, wall float64) {
	l.againstBase = append(l.againstBase, baseRow{name, wall, true})
}

// resolve fills the rows that were waiting for the untraced median.
func (l *ledger) resolve(base float64) {
	for _, r := range l.againstBase {
		if r.inverse {
			l.ratio(r.name, base, r.wall)
		} else {
			l.ratio(r.name, r.wall, base)
		}
	}
}

// absorb counts a pass run on the ledger's behalf.
func (l *ledger) absorb(p passResult) {
	l.ops += p.ops
	l.failed += p.failed
	l.errs = append(l.errs, p.errs...)
}

// timing summarises a timed quantity.  With fewer than twenty samples
// the median is the highest percentile that still has ten samples
// beyond it on neither side, so quartiles are shown for spread only.
type timing struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return timing{Min: s[0], Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// quantile interpolates linearly in a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return summarize(xs).Median }
