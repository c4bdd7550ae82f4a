package main

// The traced passes.  Each workload's job list is driven once more
// through decomposed public calls — the same calls tflex.RunKernel,
// tflex.RunMulti, fuzz.Harness.Check and the experiment suite make, one
// at a time — each wrapped in a span.  Counts are read at the same
// boundaries.  Spans inside internal/sim are a later issue; what only
// runs inside Chip.Run is driven in isolation (micro.go).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/clp-sim/tflex"
	"github.com/clp-sim/tflex/internal/asm"
	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/conv"
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/experiments"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/noc"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/telemetry"
	"github.com/clp-sim/tflex/internal/trips"
)

const maxCycles = 2_000_000_000 // tflex.Run's default bound

// counts accumulates, over the jobs of one drive, the model's exact
// counts and the host-side counts taken at span boundaries.
type counts struct {
	jobs, chips int

	// Model, summed over processors.
	cycles, blocks, fetched, flushed uint64
	insts, fired                     uint64
	loads, stores, nacks             uint64
	fetchBlocks, fetchCycles         uint64
	commitBlocks, commitCycles       uint64
	nocMsgs, nocHops, nocStall       uint64
	l1dAcc, l1dMiss                  uint64
	l2Acc, l2Miss, dramReq           uint64
	predLookups, predHits, predMiss  uint64
	crit                             critpath.Summary

	// Domains.
	domains, windows, events           uint64
	barrierWait, sharedGrants, sharedW uint64
	inboxMax                           int

	// Observers.
	traceEvents, flightRecords uint64

	// Host: allocations inside jobs, split at Chip.Run.
	setupAllocs, runAllocs uint64
	// Host: Chip.Run nanoseconds, in all and by composition with the
	// blocks committed there.
	runNsAll         float64
	runNs, runBlocks map[string]float64
}

func newCounts() *counts {
	return &counts{runNs: map[string]float64{}, runBlocks: map[string]float64{}}
}

// addChip folds a finished chip's public statistics in and returns the
// blocks its processors committed.
func (c *counts) addChip(chip *sim.Chip) uint64 {
	c.chips++
	var blocks uint64
	for _, p := range chip.Procs {
		st := &p.Stats
		blocks += st.BlocksCommitted
		c.cycles += st.Cycles
		c.fetched += st.BlocksFetched
		c.flushed += st.BlocksFlushed
		c.insts += st.InstsCommitted
		c.fired += st.InstsFired
		c.loads += st.Loads
		c.stores += st.Stores
		c.nacks += st.LSQNACKs
		c.fetchBlocks += st.FetchBlocks
		c.fetchCycles += st.FetchConstSum + st.FetchHandOffSum + st.FetchBcastSum + st.FetchDispatchSum + st.FetchIStallSum
		c.commitBlocks += st.CommitBlocks
		c.commitCycles += st.CommitArchSum + st.CommitHandshakeSum
		c.predLookups += p.Pred.Stats.Predictions
		c.predHits += p.Pred.Stats.Hits
		c.predMiss += p.Pred.Stats.Mispredicts
	}
	c.blocks += blocks
	for _, ns := range []noc.Stats{chip.Opn.Stats(), chip.Ctl.Stats()} {
		c.nocMsgs += ns.Messages
		c.nocHops += ns.Hops
		c.nocStall += ns.StallCycles
	}
	l1 := chip.L1DStats()
	c.l1dAcc += l1.Accesses
	c.l1dMiss += l1.Misses
	c.l2Acc += chip.L2.Stats.Accesses
	c.l2Miss += chip.L2.Stats.Misses
	c.dramReq += chip.DRAM.Stats.Requests
	for _, d := range chip.DomainStats() {
		c.domains++
		c.windows += d.Windows
		c.events += d.Events
		c.barrierWait += d.BarrierWait
		c.sharedGrants += d.SharedGrants
		c.sharedW += d.SharedWait
		c.flightRecords += d.RingRecords
	}
	return blocks
}

// mallocs reads the exact allocation count.  ReadMemStats stops the
// world, so its cost gets a span of its own and stays out of the layer
// it brackets.
func mallocs(tr *tracer) uint64 {
	var m runtime.MemStats
	tr.in("bench.memstats", func() { runtime.ReadMemStats(&m) })
	return m.Mallocs
}

// compKey names a composition for the per-composition event-loop rows.
func compKey(cores int) string {
	if cores == 0 {
		return "trips"
	}
	return fmt.Sprintf("c%d", cores)
}

// chipJob is one chip to simulate: which kernels, where, with which taps.
type chipJob struct {
	label   string
	kernels []string // one per processor
	scale   int
	// place composes the processors and picks the chip options.
	place func() ([]compose.Processor, sim.Options, error)
	taps  taps
	key   string // composition, for the per-composition event-loop rows
}

// driveChip is the decomposed body shared by single- and multi-program
// jobs: build each kernel, compose, sim.New, arm taps, AddProc, Init,
// Chip.Run, Check, collect.  It returns per-processor cycles.
func driveChip(tr *tracer, c *counts, job chipJob) ([]uint64, error) {
	kerns, scale, t, key := job.kernels, job.scale, job.taps, job.key
	id := tr.beginJob(job.label)
	defer tr.endJob(id)
	c.jobs++
	a0 := mallocs(tr)

	insts := make([]*kernels.Instance, len(kerns))
	var err error
	tr.in("kernels.build", func() {
		for i, k := range kerns {
			kern, ok := kernels.ByName(k)
			if !ok {
				err = fmt.Errorf("unknown kernel %q", k)
				return
			}
			if insts[i], err = kern.Build(scale); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var cores []compose.Processor
	var opts sim.Options
	tr.in("compose", func() { cores, opts, err = job.place() })
	if err != nil {
		return nil, err
	}
	var chip *sim.Chip
	tr.in("sim.new", func() { chip = sim.New(opts) })
	var reg *telemetry.Registry
	var chrome *telemetry.Trace
	if t != (taps{}) {
		tr.in("obs.arm", func() {
			if t.telemetry {
				reg = chip.Telemetry()
				chrome = tflex.NewTrace()
				chip.SetChromeTrace(chrome)
				chip.SampleEvery(64)
			}
			if t.critpath {
				chip.EnableCritPath()
			}
			if t.flight {
				chip.EnableFlight(0)
				chip.SetFlightSink(os.Stderr)
			}
			if t.inbox {
				// The notify hook fires at window boundaries, where every
				// domain is parked, so reading domain state is safe.
				chip.SampleEvery(256).SetNotify(func(uint64, []string, []float64) {
					for _, d := range chip.DomainStats() {
						c.inboxMax = max(c.inboxMax, d.InboxDepth)
					}
				})
			}
		})
	}
	ps := make([]*sim.Proc, len(kerns))
	tr.in("sim.addproc", func() {
		for i := range kerns {
			if ps[i], err = chip.AddProc(cores[i], insts[i].Prog); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	tr.in("kernels.init", func() {
		for i, p := range ps {
			insts[i].Init(&p.Regs, p.Mem)
		}
	})
	a1 := mallocs(tr)
	run := tr.begin("sim.run")
	t0 := time.Now()
	err = chip.Run(maxCycles)
	ns := time.Since(t0)
	tr.end(run)
	a2 := mallocs(tr)
	if err != nil {
		return nil, err
	}
	tr.in("kernels.check", func() {
		for i, p := range ps {
			if e := insts[i].Check(&p.Regs, p.Mem); e != nil && err == nil {
				err = fmt.Errorf("proc %d: output validation: %w", i, e)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if t != (taps{}) {
		tr.in("obs.collect", func() {
			if reg != nil {
				_ = reg.Snapshot()
				c.traceEvents += uint64(chrome.Len())
			}
			if t.critpath {
				c.crit.Merge(chip.CritPath())
			}
			if t.flight {
				_ = chip.FlightDump()
			}
		})
	}
	cycles := make([]uint64, len(ps))
	tr.in("bench.collect", func() {
		blocks := c.addChip(chip)
		c.runNsAll += float64(ns.Nanoseconds())
		c.runNs[key] += float64(ns.Nanoseconds())
		c.runBlocks[key] += float64(blocks)
		for i, p := range ps {
			cycles[i] = p.Stats.Cycles
		}
	})
	a3 := mallocs(tr)
	c.setupAllocs += (a1 - a0) + (a3 - a2)
	c.runAllocs += a2 - a1
	return cycles, nil
}

// driveKernelJob runs one single-program job decomposed.
func driveKernelJob(tr *tracer, c *counts, j kjob, scale int, t taps) (uint64, error) {
	place := func() ([]compose.Processor, sim.Options, error) {
		if j.cores == 0 {
			return []compose.Processor{trips.Processor()}, trips.Options(), nil
		}
		p, err := compose.Rect(0, 0, j.cores)
		return []compose.Processor{p}, sim.DefaultOptions(), err
	}
	cycles, err := driveChip(tr, c, chipJob{j.String(), []string{j.kernel}, scale, place, t, compKey(j.cores)})
	if err != nil {
		return 0, err
	}
	return cycles[0], nil
}

// driveKernelJobs runs a kernel job list decomposed, as one pass.
func driveKernelJobs(tr *tracer, c *counts, jobs []kjob, order []int, scale int, t taps, ref []uint64) passResult {
	p := passResult{outs: make([]uint64, len(jobs))}
	id := tr.begin("pass")
	for _, i := range order {
		p.ops++
		cyc, err := driveKernelJob(tr, c, jobs[i], scale, t)
		if err != nil {
			p.fail("%s: %v", jobs[i], err)
			continue
		}
		p.outs[i] = cyc
		p.cycles += cyc
	}
	tr.end(id)
	p.blocks = c.blocks
	p.sameAs(ref, "the warm-up pass")
	return p
}

// ---- ledger arithmetic shared by the workloads ----

// fillSpans turns a decomposed pass's span totals into the set-up and
// event-loop rows.
func fillSpans(led *ledger, tot map[string]*spanTotal, c *counts) {
	led.set("kernels.build_s", total(tot, "kernels.build"))
	led.set("kernels.check_s", total(tot, "kernels.check"))
	led.set("sim.new_s", total(tot, "sim.new"))
	led.set("sim.addproc_s", total(tot, "sim.addproc"))
	led.set("sim.run_s", total(tot, "sim.run"))
	setup := total(tot, "kernels.build", "compose", "sim.new", "obs.arm", "sim.addproc", "kernels.init", "kernels.check", "obs.collect")
	led.ratio("sim.setup_share", setup, setup+total(tot, "sim.run"))
	led.ratio("sim.setup_allocs_per_job", float64(c.setupAllocs), float64(c.jobs))
	led.ratio("sim.run_allocs_per_block", float64(c.runAllocs), float64(c.blocks))
	led.ratio("sim.run_ns_per_block", c.runNsAll, float64(c.blocks))
	for _, k := range []string{"c1", "c8", "c32", "trips"} {
		led.ratio("sim.run_ns_per_block."+k, c.runNs[k], c.runBlocks[k])
	}
}

// fillOverhead reports what tracing cost, as the traced pass over the
// median untraced one, and checks the span arithmetic: self times must
// add up to the pass.
func fillOverhead(led *ledger, tr *tracer, tot map[string]*spanTotal) {
	wall := tr.spans[0].seconds() // the "pass" span
	led.overBase("bench.trace_overhead_ratio", wall)
	led.extra("bench.self_sum_ratio", selfSum(tot)/wall)
}

// fillModel turns exact model counts into the model, component-count and
// domain rows.
func fillModel(led *ledger, c *counts) {
	b := float64(c.blocks)
	led.set("sim.cycles", float64(c.cycles))
	led.ratio("sim.ipc", float64(c.insts), float64(c.cycles))
	led.ratio("sim.insts_per_block", float64(c.insts), b)
	led.ratio("sim.fired_per_committed", float64(c.fired), float64(c.insts))
	led.ratio("sim.flush_ratio", float64(c.flushed), float64(c.fetched))
	led.ratio("sim.fetch_cycles_per_block", float64(c.fetchCycles), float64(c.fetchBlocks))
	led.ratio("sim.commit_cycles_per_block", float64(c.commitCycles), float64(c.commitBlocks))

	led.ratio("noc.msgs_per_block", float64(c.nocMsgs), b)
	led.ratio("noc.hops_per_msg", float64(c.nocHops), float64(c.nocMsgs))
	led.ratio("noc.stall_cycles_per_msg", float64(c.nocStall), float64(c.nocMsgs))
	led.ratio("mem.l1d_accesses_per_block", float64(c.l1dAcc), b)
	led.ratio("mem.l1d_miss_ratio", float64(c.l1dMiss), float64(c.l1dAcc))
	led.ratio("mem.l2_accesses_per_block", float64(c.l2Acc), b)
	led.ratio("mem.l2_miss_ratio", float64(c.l2Miss), float64(c.l2Acc))
	led.ratio("mem.dram_requests_per_block", float64(c.dramReq), b)
	// NACKed share of LSQ arrivals, taking committed loads and stores as
	// the arrivals that were accepted.
	led.ratio("mem.lsq_nack_ratio", float64(c.nacks), float64(c.nacks+c.loads+c.stores))
	led.ratio("predictor.lookups_per_block", float64(c.predLookups), b)
	led.ratio("predictor.accuracy", float64(c.predHits), float64(c.predHits+c.predMiss))

	led.ratio("sim.domains", float64(c.domains), float64(c.chips))
	led.ratio("sim.windows_per_kcycle", 1000*float64(c.windows), float64(c.cycles))
	led.ratio("sim.events_per_block", float64(c.events), b)
	led.ratio("sim.barrier_wait_per_window", float64(c.barrierWait), float64(c.windows))
	led.ratio("sim.shared_grants_per_block", float64(c.sharedGrants), b)
	led.ratio("sim.shared_wait_per_grant", float64(c.sharedW), float64(c.sharedGrants))
	led.set("sim.inbox_depth_max", float64(c.inboxMax))
}

// critNames maps the attribution categories onto the ledger's rows.
var critNames = [critpath.NumCategories]string{
	"critpath.fetch_dispatch", "critpath.noc_hop", "critpath.noc_contention", "critpath.alu",
	"critpath.lsq_wait", "critpath.cache_miss", "critpath.reg_rw", "critpath.commit",
}

// fillCrit reports attributed cycles per committed block; the categories
// sum to block latency, one cause per cycle.
func fillCrit(led *ledger, sum critpath.Summary) {
	if sum.Cats.Total() != sum.Cycles {
		led.failed++
		led.errs = append(led.errs, fmt.Sprintf("critpath categories sum to %d, block latency to %d", sum.Cats.Total(), sum.Cycles))
	}
	for cat, name := range critNames {
		led.set(name, sum.PerBlock(critpath.Category(cat)))
	}
}

// fillEstimates prices each component's share of the event loop as count
// x isolated ns/op over Chip.Run ns per block.  These are estimates: the
// isolated drive has warmer caches than the interleaved event loop.
func fillEstimates(led *ledger) {
	v := led.vals
	run := v["sim.run_ns_per_block"]
	led.ratio("noc.est_share", v["noc.msgs_per_block"]*v["noc.send_ns"], run)
	mem := v["mem.l1d_accesses_per_block"]*v["mem.l1_access_ns"] +
		v["mem.l1d_accesses_per_block"]*v["mem.l1d_miss_ratio"]*v["mem.l1_fill_ns"] +
		v["mem.l1d_accesses_per_block"]*(v["mem.lsq_insert_ns"]+v["mem.lsq_forward_ns"]) +
		v["mem.l2_accesses_per_block"]*v["mem.l2_read_ns"] +
		v["mem.dram_requests_per_block"]*v["mem.dram_access_ns"]
	led.ratio("mem.est_share", mem, run)
	led.ratio("predictor.est_share", v["predictor.lookups_per_block"]*(v["predictor.predict_ns"]+v["predictor.train_ns"]), run)
}

// ---- steady and observed ----

func (w *kernelWorkload) traced(tr *tracer, led *ledger) {
	c := newCounts()
	led.absorb(driveKernelJobs(tr, c, w.jobs, w.order, w.scale, w.taps, w.ref))
	tot := tr.totals()
	fillSpans(led, tot, c)
	fillOverhead(led, tr, tot)
	fillModel(led, c)
	if w.taps.critpath {
		fillCrit(led, c.crit)
		w.observerCosts(led, c)
		return
	}
	// Attribution costs host time, so the plain engine is timed above
	// and attributed in a pass of its own; the cycles must not move.
	cc := newCounts()
	led.absorb(driveKernelJobs(nil, cc, w.jobs, w.order, w.scale, taps{critpath: true}, w.ref))
	fillCrit(led, cc.crit)
}

// observerCosts prices each tap armed alone against none on the 8-core
// jobs, in one palindromic round (none tel crit flight flight crit tel
// none) so that drift in machine load lands evenly on every side.
func (w *kernelWorkload) observerCosts(led *ledger, c *counts) {
	led.ratio("telemetry.trace_events_per_block", float64(c.traceEvents), float64(c.blocks))
	led.ratio("flight.records_per_block", float64(c.flightRecords), float64(c.blocks))
	round := []taps{{}, {telemetry: true}, {critpath: true}, {flight: true}}
	wall := make([]float64, len(round))
	timeOne := func(i int) {
		runtime.GC()
		t0 := time.Now()
		led.absorb(w.passWith(round[i], 8))
		wall[i] += time.Since(t0).Seconds()
	}
	for i := range round {
		timeOne(i)
	}
	for i := len(round) - 1; i >= 0; i-- {
		timeOne(i)
	}
	led.extra("observer.base_s", wall[0]/2)
	led.ratio("telemetry.overhead_ratio", wall[1], wall[0])
	led.ratio("critpath.overhead_ratio", wall[2], wall[0])
	led.ratio("flight.overhead_ratio", wall[3], wall[0])
}

// ---- multiprog ----

// drive runs the job list decomposed, as one pass.
func (w *multiprogWorkload) drive(tr *tracer, c *counts, t taps) passResult {
	p := passResult{outs: make([]uint64, len(w.jobs))}
	id := tr.begin("pass")
	for _, i := range w.order {
		j := w.jobs[i]
		p.ops++
		place := func() ([]compose.Processor, sim.Options, error) {
			ps, err := j.partition()
			opts := sim.DefaultOptions()
			opts.ParallelDomains = 1
			return ps, opts, err
		}
		cycles, err := driveChip(tr, c, chipJob{j.String(), j.kernels, w.scale, place, t, "multi"})
		if err != nil {
			p.fail("%s: %v", j, err)
			continue
		}
		p.outs[i] = digestOf(cycles...)
	}
	tr.end(id)
	p.blocks, p.cycles = c.blocks, c.cycles
	p.sameAs(w.ref, "the warm-up pass")
	return p
}

func (w *multiprogWorkload) traced(tr *tracer, led *ledger) {
	c := newCounts()
	led.absorb(w.drive(tr, c, taps{}))
	tot := tr.totals()
	fillSpans(led, tot, c)
	fillOverhead(led, tr, tot)

	// Attribution and the inbox watch cost host time, so they get a pass
	// of their own; its exact counts are the ones reported.
	cc := newCounts()
	led.absorb(w.drive(nil, cc, taps{critpath: true, inbox: true}))
	fillModel(led, cc)
	fillCrit(led, cc.crit)

	// The same chips on the worker pool: cycles must be bit-identical,
	// and the wall ratio is the parallel engine's whole case.
	n := nproc()
	runtime.GC()
	t0 := time.Now()
	par := w.passWith(n)
	wall := time.Since(t0).Seconds()
	led.absorb(par)
	if par.failed == 0 {
		led.set("sim.par_identical", 1)
	}
	led.baseOver("sim.par_speedup", wall)
	led.extra("sim.par_workers", float64(n))
}

// ---- fuzz_corpus ----

// execKind maps an executor name onto its span.
func execKind(name string) string {
	switch {
	case name == "functional":
		return "arch.functional"
	case name == "conv-trace":
		return "arch.convtrace"
	case strings.HasPrefix(name, "sim-ref"):
		return "arch.sim_ref"
	default:
		return "arch.sim_opt"
	}
}

func (w *fuzzWorkload) traced(tr *tracer, led *ledger) {
	var p passResult
	var insts, refBlocks uint64
	id := tr.begin("pass")
	for _, i := range w.order {
		seed := w.seeds[i]
		p.ops++
		job := tr.beginJob(fmt.Sprintf("seed %d", seed))
		var spec *edgegen.Spec
		tr.in("edgegen.gen", func() { spec = edgegen.GenSpec(seed) })
		var src string
		var err error
		tr.in("edgegen.asm", func() {
			if err = spec.Validate(); err == nil {
				src = spec.Asm()
			}
		})
		var prog *tflex.Program
		if err == nil {
			tr.in("asm.assemble", func() { prog, err = asm.Assemble(src) })
		}
		if err != nil {
			p.fail("seed %d: %v", seed, err)
			tr.endJob(job)
			continue
		}
		in := spec.Input()
		var ref tflex.ArchState
		for n, ex := range w.harness.Execs {
			var st tflex.ArchState
			kind := execKind(ex.Name())
			tr.in(kind, func() { st, err = ex.Run(prog, in) })
			if err != nil {
				p.fail("seed %d: %s: %v", seed, ex.Name(), err)
				break
			}
			if n == 0 {
				ref = st
			} else if d := st.Diff(ref); d != "" {
				p.fail("seed %d: %s diverges: %s", seed, ex.Name(), d)
				break
			}
			p.blocks += st.Blocks
			if kind == "arch.sim_ref" {
				refBlocks += st.Blocks
			}
		}
		insts += uint64(prog.StaticStats().Insts)
		tr.endJob(job)
	}
	tr.end(id)
	led.absorb(p)

	tot := tr.totals()
	n := float64(len(w.seeds))
	led.set("edgegen.gen_ns_per_spec", 1e9*total(tot, "edgegen.gen", "edgegen.asm")/n)
	led.ratio("asm.assemble_ns_per_inst", 1e9*total(tot, "asm.assemble"), float64(insts))
	led.set("arch.functional_s", total(tot, "arch.functional"))
	led.set("arch.convtrace_s", total(tot, "arch.convtrace"))
	led.set("arch.sim_opt_s", total(tot, "arch.sim_opt"))
	led.set("arch.sim_ref_s", total(tot, "arch.sim_ref"))
	led.ratio("sim.ref_run_ns_per_block", 1e9*total(tot, "arch.sim_ref"), float64(refBlocks))
	// The harness's own time: what the pass spends outside every layer's
	// span (input copies, state diffs, the loop itself).
	led.set("fuzz.self_s", tot["pass"].self+tot["job"].self)
	fillOverhead(led, tr, tot)

	// exec and conv in isolation, over the same programs.
	w.execCosts(led)
}

// execCosts times exec.Machine.Run and conv.Run alone over the corpus.
func (w *fuzzWorkload) execCosts(led *ledger) {
	type item struct {
		prog *tflex.Program
		spec *edgegen.Spec
	}
	var items []item
	for _, s := range w.seeds {
		spec := edgegen.GenSpec(s)
		if p, err := spec.Build(); err == nil {
			items = append(items, item{p, spec})
		}
	}
	progs := make([]execProgram, len(items))
	for i, it := range items {
		in := it.spec.Input()
		progs[i] = execProgram{prog: it.prog, init: func(regs *[128]uint64, m *exec.PageMem) {
			*regs = in.Regs
			m.WriteBytes(in.MemBase, in.Mem)
		}, maxBlocks: in.MaxBlocks}
	}
	fillExecCosts(led, progs, 20)
}

// execProgram is one program for the isolated exec/conv drive.
type execProgram struct {
	prog      *tflex.Program
	init      func(regs *[128]uint64, m *exec.PageMem)
	maxBlocks uint64
}

// fillExecCosts runs every program reps times on the functional
// executor, untraced for ns and allocations per block, then once with a
// trace to time the conventional-core model per trace entry.
func fillExecCosts(led *ledger, progs []execProgram, reps int) {
	var m0, m1 runtime.MemStats
	var blocks uint64
	var fails int
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, ep := range progs {
			m := exec.NewMachine(ep.prog)
			ep.init(&m.Regs, m.Mem.(*exec.PageMem))
			st, err := m.Run(ep.maxBlocks)
			if err != nil {
				fails++
			}
			blocks += st.Blocks
		}
	}
	ns := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	led.ratio("exec.run_ns_per_block", float64(ns), float64(blocks))
	led.ratio("exec.run_allocs_per_block", float64(m1.Mallocs-m0.Mallocs), float64(blocks))

	var entries int
	var convNs int64
	for _, ep := range progs {
		m := exec.NewMachine(ep.prog)
		m.Trace = &exec.Trace{}
		ep.init(&m.Regs, m.Mem.(*exec.PageMem))
		if _, err := m.Run(ep.maxBlocks); err != nil {
			fails++
			continue
		}
		t0 := time.Now()
		res := conv.Run(m.Trace.Entries, conv.DefaultConfig())
		convNs += time.Since(t0).Nanoseconds()
		entries += int(res.Insts)
	}
	led.ratio("conv.run_ns_per_inst", float64(convNs), float64(entries))
	led.ops += len(progs)
	led.failed += fails
}

// ---- paper_eval ----

// Paper values of Figures 5 and 6, as tabulated in EXPERIMENTS.md.
var (
	paperFig6 = map[int]float64{2: 1.5, 4: 2.2, 8: 2.9, 16: 3.5, 32: 3.2}
	paperBest = 4.0
	paperFig5 = map[string]float64{"hand": 2.7, "eembc": 1.5, "versa": 1.5, "specint": 0.64, "specfp": 0.97}
)

// errPct is the geometric-mean relative error of measured against paper
// values, in percent: exp(mean |ln(measured/paper)|) - 1.
func errPct(pairs [][2]float64) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var s float64
	for _, p := range pairs {
		s += math.Abs(math.Log(p[0] / p[1]))
	}
	return 100 * (math.Exp(s/float64(len(pairs))) - 1)
}

func (w *paperWorkload) traced(tr *tracer, led *ledger) {
	// The traced pass is the suite pass itself: a span around every
	// experiment, the runner's own job spans (Suite.SetTrace) under them.
	chrome := tflex.NewTrace()
	first := int32(-1) // the first experiment to reach the runner
	id := tr.begin("pass")
	p, s, data := w.passSuite(1, func(s *experiments.Suite) { s.SetTrace(chrome) }, func(name string, call func()) {
		sp := tr.begin("exp." + name)
		if first < 0 && name != "table1" {
			first = sp
		}
		call()
		tr.end(sp)
	})
	tr.end(id)
	led.absorb(p)
	if first >= 0 {
		w.adoptJobSpans(tr, chrome, first)
	}
	tot := tr.totals()
	sum := s.Summary()
	runnerSelf := (sum.Wall - sum.CPUTime).Seconds()
	var expSelf float64
	for _, e := range w.exps {
		expSelf += tot["exp."+e.name].self
	}
	led.set("runner.self_s", runnerSelf)
	led.set("experiments.render_s", expSelf-runnerSelf)
	led.set("runner.jobs", float64(sum.JobsRun))
	led.set("runner.cache_hits", float64(sum.CacheHits))
	fillOverhead(led, tr, tot)

	for i := range w.exps {
		switch d := data[i].(type) {
		case experiments.Fig6Data:
			pairs := [][2]float64{{d.AvgBest, paperBest}}
			for _, n := range []int{2, 4, 8, 16, 32} {
				pairs = append(pairs, [2]float64{d.AvgBySize[n], paperFig6[n]})
			}
			led.set("experiments.fig6_err_pct", errPct(pairs))
		case experiments.Fig5Data:
			var pairs [][2]float64
			for _, suite := range []string{"hand", "eembc", "versa", "specint", "specfp"} {
				pairs = append(pairs, [2]float64{d.SuiteGeo[suite], paperFig5[suite]})
			}
			led.set("experiments.fig5_err_pct", errPct(pairs))
		case experiments.Fig9xData:
			var agg critpath.Summary
			for _, n := range s.Sizes {
				agg.Merge(d.Agg[n])
			}
			fillCrit(led, agg)
		}
	}

	// The same evaluation on nproc workers: byte-identical text, and the
	// wall ratio is what the runner's job-level parallelism buys.
	n := nproc()
	runtime.GC()
	t0 := time.Now()
	pn, _, _ := w.passSuite(n, nil, nil)
	led.absorb(pn)
	led.baseOver("runner.speedup_jobsN", time.Since(t0).Seconds())
	led.extra("runner.workers", float64(n))

	// Set-up against event loop, on the suite's shortest jobs: the Figure
	// 6 grid (every kernel on every composition and TRIPS) decomposed.
	w.gridCosts(led)
}

// adoptJobSpans hangs the runner's job spans under the experiment spans
// that ran them.  The runner stamps microseconds since its first batch,
// which began inside the span `first`, a few microseconds after it.
func (w *paperWorkload) adoptJobSpans(tr *tracer, chrome *telemetry.Trace, first int32) {
	var buf bytes.Buffer
	if err := chrome.WriteJSON(&buf); err != nil {
		return
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return
	}
	epoch := tr.spans[first].start
	nexp := len(tr.spans)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		start := epoch + time.Duration(ev.TS*1e3)
		end := start + time.Duration(ev.Dur*1e3)
		for sp := int32(1); sp < int32(nexp); sp++ {
			if s := tr.spans[sp]; s.parent == 0 && start >= s.start && start < s.end {
				tr.add("runner.job", ev.Name, start, end, sp)
				break
			}
		}
	}
}

// gridCosts drives the Figure 6 grid decomposed, untraced by the main
// tracer (it is not part of the pass) but with spans of its own, and
// fills the set-up, event-loop and model rows from it.
func (w *paperWorkload) gridCosts(led *ledger) {
	var jobs []kjob
	ks := tflex.KernelNames()
	sizes := append(tflex.CompositionSizes(), 0)
	if w.cfg.smoke {
		ks, sizes = ks[:2], []int{1, 8, 0}
	}
	for _, k := range ks {
		for _, n := range sizes {
			jobs = append(jobs, kjob{k, n})
		}
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	tr := newTracer()
	c := newCounts()
	runtime.GC()
	led.absorb(driveKernelJobs(tr, c, jobs, order, w.scale, taps{}, nil))
	fillSpans(led, tr.totals(), c)
	fillModel(led, c)

	// Figure 5's conventional-core jobs: exec trace then conv.Run.
	var progs []execProgram
	for _, k := range ks {
		kern, _ := kernels.ByName(k)
		inst, err := kern.Build(w.scale)
		if err != nil {
			continue
		}
		progs = append(progs, execProgram{prog: inst.Prog, init: inst.Init, maxBlocks: 50_000_000})
	}
	fillExecCosts(led, progs, 1)
}
