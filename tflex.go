// Package tflex is the public API of the TFlex composable-lightweight-
// processor (CLP) simulator, a from-scratch reproduction of
// "Composable Lightweight Processors" (MICRO 2007).
//
// A CLP is a chip of simple, narrow-issue cores that can be aggregated
// dynamically into larger single-threaded processors without recompiling
// the application.  The simulator models the TFlex microarchitecture: an
// EDGE (Explicit Data Graph Execution) block-atomic ISA, fully distributed
// fetch/prediction/execution/memory/commit protocols over a mesh
// interconnect, a composable next-block predictor, address-interleaved L1
// caches and LSQ banks with NACK overflow handling, a shared S-NUCA L2
// with directory coherence, and area/power models.
//
// Quick start:
//
//	b := tflex.NewBuilder()
//	bb := b.Block("loop")
//	i := bb.Read(2)
//	bb.Write(3, bb.Add(bb.Read(3), i))
//	i2 := bb.AddI(i, 1)
//	bb.Write(2, i2)
//	bb.BranchIf(bb.OpI(tflex.OpLt, i2, 100), "loop", "done")
//	b.Block("done").Halt()
//	program := b.MustProgram("loop")
//
//	res, err := tflex.Run(program, tflex.RunConfig{Cores: 8})
//
// The same binary runs unmodified on any composition from 1 to 32 cores.
package tflex

import (
	"fmt"
	"os"

	"github.com/clp-sim/tflex/internal/arch"
	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/obs"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/telemetry"
	"github.com/clp-sim/tflex/internal/trips"
)

// Core ISA and program-construction types.
type (
	// Program is a laid-out EDGE block program.
	Program = prog.Program
	// Builder constructs programs block by block.
	Builder = prog.Builder
	// BlockBuilder emits dataflow into one block.
	BlockBuilder = prog.BlockBuilder
	// Ref is an SSA-style value reference inside a block.
	Ref = prog.Ref
	// Opcode is an EDGE operation.
	Opcode = isa.Opcode
	// Block is one EDGE code block.
	Block = isa.Block

	// Processor describes a composed logical processor's core set.
	Processor = compose.Processor
	// CoreParams are the per-core microarchitectural parameters (Table 1).
	CoreParams = compose.CoreParams
	// Options configure the chip model.
	Options = sim.Options
	// Chip is the simulated 32-core CLP.
	Chip = sim.Chip
	// Proc is one running logical processor.
	Proc = sim.Proc
	// Stats are per-processor simulation statistics.
	Stats = sim.Stats
	// Memory is the byte-addressable architectural memory.
	Memory = exec.PageMem
	// Machine executes programs architecturally (no timing).
	Machine = exec.Machine
	// BlockEvent is one dynamic block's retirement record: its pipeline
	// lifetime and, when attribution is armed, its critical-path
	// breakdown.
	BlockEvent = sim.BlockEvent

	// ArchState is the unified architectural-state contract every
	// executor implements (see internal/arch): final registers, memory
	// image digest, retired-block count and committed-store-stream
	// digest.  Two runs of the same program with the same initial state
	// must produce identical ArchState on any composition and engine.
	ArchState = arch.State
	// ArchExecutor runs a program to completion and reports ArchState;
	// the differential fuzz harness drives a set of these.
	ArchExecutor = arch.Executor

	// Metrics is the chip-wide telemetry registry: typed counters,
	// gauges and latency histograms under hierarchical names such as
	// "proc0.blocks.committed" or "noc.opnd.link.3.4.flits".
	Metrics = telemetry.Registry
	// MetricsSnapshot is a flat name→value capture of a registry.
	MetricsSnapshot = telemetry.Snapshot
	// Trace collects one record per retired block and renders them as
	// Chrome trace-event spans (the JSON loaded by chrome://tracing and
	// Perfetto) or as the per-block timeline CSV.
	Trace = telemetry.Trace
	// Sampler records cycle-sampled time series of chip occupancies.
	Sampler = telemetry.Sampler

	// CritPathSummary aggregates critical-path attribution over
	// committed blocks: total attributed cycles by category, with the
	// invariant that each block's categories sum to its latency exactly.
	CritPathSummary = critpath.Summary
	// CritPathBreakdown is one block's attributed cycles by category.
	CritPathBreakdown = critpath.Breakdown
	// CritPathCategory names one attribution category.
	CritPathCategory = critpath.Category
	// Observer is the live observability server: /metrics, /critpath,
	// /events (SSE), /flight and /debug/pprof over plain net/http.
	Observer = obs.Server

	// FlightDump is a drained flight recorder: the chip's surviving
	// ring records and the blocks in flight, renderable as text or JSON.
	FlightDump = flight.Dump
)

// NumCritPathCategories is the number of attribution categories.
const NumCritPathCategories = critpath.NumCategories

// NewObserver returns an idle observability server; call Start(addr)
// and pass it as RunConfig.Observe.
func NewObserver() *Observer { return obs.New() }

// NewTrace returns an empty Chrome trace collector, ready for
// RunConfig.ChromeTrace.
func NewTrace() *Trace { return &telemetry.Trace{} }

// Commonly used opcodes, re-exported for program construction.
const (
	OpAdd  = isa.OpAdd
	OpSub  = isa.OpSub
	OpMul  = isa.OpMul
	OpDiv  = isa.OpDiv
	OpDivU = isa.OpDivU
	OpMod  = isa.OpMod
	OpAnd  = isa.OpAnd
	OpOr   = isa.OpOr
	OpXor  = isa.OpXor
	OpShl  = isa.OpShl
	OpShr  = isa.OpShr
	OpSra  = isa.OpSra
	OpEq   = isa.OpEq
	OpNe   = isa.OpNe
	OpLt   = isa.OpLt
	OpLe   = isa.OpLe
	OpLtU  = isa.OpLtU
	OpLeU  = isa.OpLeU
	OpFAdd = isa.OpFAdd
	OpFSub = isa.OpFSub
	OpFMul = isa.OpFMul
	OpFDiv = isa.OpFDiv
	OpFLt  = isa.OpFLt
	OpIToF = isa.OpIToF
	OpFToI = isa.OpFToI
)

// NumCores is the number of physical cores on the chip (a 4x8 array).
const NumCores = compose.NumCores

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return prog.NewBuilder() }

// NewMachine returns an architectural (functional) machine for a program.
func NewMachine(p *Program) *Machine { return exec.NewMachine(p) }

// NewMemory returns an empty byte-addressable memory.
func NewMemory() *Memory { return exec.NewPageMem() }

// DefaultOptions returns the TFlex configuration of the paper's Table 1.
func DefaultOptions() Options { return sim.DefaultOptions() }

// TRIPSOptions returns the fixed-granularity TRIPS baseline configuration.
func TRIPSOptions() Options { return trips.Options() }

// TRIPSProcessor returns the 16-tile TRIPS array descriptor.
func TRIPSProcessor() Processor { return trips.Processor() }

// NewChip builds a chip with the given options.
func NewChip(opts Options) *Chip { return sim.New(opts) }

// ComposeRect returns a processor composed of k cores in a rectangle at
// array position (x, y).  Supported sizes: 1, 2, 4, 8, 16, 32.
func ComposeRect(x, y, k int) (Processor, error) { return compose.Rect(x, y, k) }

// Partition tiles the chip into nProcs processors of k cores each (the
// fixed-CMP configurations).
func Partition(k, nProcs int) ([]Processor, error) { return compose.Partition(k, nProcs) }

// PartitionAsymmetric places processors of possibly different sizes onto
// the core array (the asymmetric compositions of the paper's §7).
func PartitionAsymmetric(sizes []int) ([]Processor, error) {
	return compose.PackAsymmetric(sizes)
}

// CompositionSizes lists the rectangle composition sizes.
func CompositionSizes() []int { return compose.Sizes() }

// ComposeStrip returns a processor of k consecutive cores starting at
// `start` — any size from 1 to 32, the paper's "any point in between".
func ComposeStrip(start, k int) (Processor, error) { return compose.Strip(start, k) }

// RunConfig configures a run.  Cores, TRIPS and Init describe Run's one
// program (RunMulti takes a composition and an Init per ProgramSpec);
// every other field applies to any number of programs.
type RunConfig struct {
	// Cores composes a processor of this many cores (default 8).
	Cores int
	// TRIPS runs on the TRIPS baseline instead of a TFlex composition.
	TRIPS bool
	// Init seeds architectural registers and memory before the run.
	Init func(regs *[128]uint64, mem *Memory)
	// MaxCycles bounds the simulation (default 2e9).
	MaxCycles uint64
	// Options overrides the chip options (nil: DefaultOptions, or
	// TRIPSOptions when TRIPS is set).
	Options *Options
	// ParallelDomains is accepted and has no effect: a chip has one
	// event queue, drained on the calling goroutine.  The field remains
	// only because the frozen benchmark (cmd/clpbench) still assigns
	// it; the benchmark PR (ROADMAP item 1a) drops it.
	ParallelDomains int
	// OnBlock, if set, observes every block retirement (commit or
	// flush) of every processor; BlockEvent.Proc says which.
	OnBlock func(BlockEvent)
	// CollectMetrics arms the chip's telemetry registry before the run;
	// Result.Telemetry and Result.Metrics report it.  Off by default —
	// the simulation hot paths then pay only nil checks.
	CollectMetrics bool
	// ChromeTrace, if non-nil, collects one record per retired block,
	// rendered as fetch/execute/commit spans on one track per physical
	// core (one simulated cycle = 1µs of trace time) or as the timeline
	// CSV.
	ChromeTrace *Trace
	// SampleEvery, if > 0, records window/LSQ occupancy and committed
	// instructions every N cycles; Result.Samples reports the series.
	SampleEvery uint64
	// CritPath arms critical-path attribution: every committed block's
	// latency is attributed across eight categories (fetch/dispatch,
	// NoC hop, NoC contention, ALU, LSQ, cache miss, register R/W,
	// commit), reconciling exactly with block latency.  Result.CritPath
	// reports the processor's aggregate; architectural results are
	// unchanged.
	CritPath bool
	// Observe, if non-nil, publishes live state into the given
	// observability server while the run executes: rolling critical-path
	// aggregates (implies CritPath), metrics snapshots, sampler rows and
	// on-demand flight dumps at every sample point (SampleEvery,
	// defaulting to 4096 cycles when unset).  Start/Close the server
	// yourself.
	Observe *Observer
	// Flight arms the flight recorder: the chip keeps one fixed-size
	// ring of compact records (block commit and flush, processor
	// composition, watchdog stall), and a dump adds every block still
	// in flight.  Result.Flight reports the end-of-run dump; on a
	// failed or panicking run the dump goes to stderr as a post-mortem.
	// Off by default — the hot paths then pay only nil checks.
	Flight bool
	// FlightEvents sizes the ring (rounded up to a power of two; <= 0
	// means 4096, and above 1<<20 records it is clamped to 1<<20).
	// Setting it implies Flight.
	FlightEvents int
	// ArchDigest arms collection of the unified architectural state:
	// the committed-store stream is hashed during the run and
	// Result.Arch reports the full ArchState afterwards.  Off by
	// default — the store-commit path then pays only a nil check.
	ArchDigest bool
}

// Result reports one program of a completed run.  Telemetry, Metrics,
// Samples and Flight are chip-wide: the results of one RunMulti share
// them.  Every field is a copy that no later run touches: the registry
// and the sampler are frozen at the run's end, so the run returns its
// chip, reset, to a pool the next run with equal options takes it from.
type Result struct {
	Cycles uint64
	Stats  Stats
	Regs   [128]uint64
	Mem    *Memory

	// Arch is the unified architectural state of the finished run;
	// nil unless RunConfig.ArchDigest was set.
	Arch *ArchState

	Telemetry *Metrics        // end-of-run registry; nil unless CollectMetrics
	Metrics   MetricsSnapshot // end-of-run capture; nil unless CollectMetrics
	Samples   *Sampler        // nil unless SampleEvery > 0

	// CritPath is the processor's attribution aggregate; nil unless
	// RunConfig.CritPath (or Observe) was set.
	CritPath *CritPathSummary

	// Flight is the end-of-run flight-recorder dump; nil unless
	// RunConfig.Flight (or FlightEvents) was set.
	Flight *FlightDump
}

// Run executes a program on a freshly composed processor and returns its
// statistics and final architectural state: RunMulti with one program,
// on the composition cfg.Cores or cfg.TRIPS names.
func Run(p *Program, cfg RunConfig) (*Result, error) {
	spec := ProgramSpec{Prog: p, Init: cfg.Init}
	if cfg.TRIPS {
		spec.Cores = trips.Processor()
		if cfg.Options == nil {
			opts := trips.Options()
			cfg.Options = &opts
		}
	} else {
		if cfg.Cores == 0 {
			cfg.Cores = 8
		}
		var err error
		if spec.Cores, err = compose.Rect(0, 0, cfg.Cores); err != nil {
			return nil, err
		}
	}
	results, err := RunMulti([]ProgramSpec{spec}, cfg)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// ProgramSpec is one program of a multiprogrammed run: what to execute
// and which composed processor to run it on.
type ProgramSpec struct {
	Prog *Program
	// Cores is the composed processor (e.g. one rectangle of a
	// Partition).  Specs must not overlap.
	Cores Processor
	// Init seeds the processor's registers and private memory.
	Init func(regs *[128]uint64, mem *Memory)
}

// RunMulti executes several independent programs on one chip, each on
// its own composed processor, and returns one Result per program in
// input order.  The processors share the chip's one event queue and
// clock and interact only through the shared L2/DRAM.
//
// Every observer of cfg is armed once, on the chip: the registry, the
// Chrome trace, the sampler, the flight ring and an Observe server see
// all processors (metric names, trace tracks and sampler series carry
// the processor ID), while OnBlock, ArchDigest and CritPath report per
// processor.
//
// The chip comes from the pool of reset chips with equal options
// (sim.Acquire) and goes back there when the run ends, failed or not (see
// Result), so runs in a row build one chip, not one each.
func RunMulti(specs []ProgramSpec, cfg RunConfig) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("tflex: RunMulti needs at least one program")
	}
	opts := sim.DefaultOptions()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	chip := sim.Acquire(opts)
	defer sim.Release(chip)
	return runOn(chip, specs, cfg)
}

// runOn is RunMulti on a chip in the state sim.New returns.  Its results
// hold nothing of the chip, so the caller may reset it afterwards.
func runOn(chip *Chip, specs []ProgramSpec, cfg RunConfig) ([]*Result, error) {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 2_000_000_000
	}
	every := cfg.SampleEvery
	if every == 0 && cfg.Observe != nil {
		every = 4096
	}
	var reg *Metrics
	if cfg.CollectMetrics {
		reg = chip.Telemetry()
	}
	if cfg.ChromeTrace != nil {
		chip.SetChromeTrace(cfg.ChromeTrace)
	}
	var samp *Sampler
	if every > 0 {
		samp = chip.SampleEvery(every)
	}
	if cfg.CritPath {
		chip.EnableCritPath()
	}
	if cfg.Flight || cfg.FlightEvents > 0 {
		chip.EnableFlight(cfg.FlightEvents)
		chip.SetFlightSink(os.Stderr)
	}
	if cfg.Observe != nil {
		cfg.Observe.Attach(chip, samp)
	}
	var hashers []*arch.StoreHasher // one per program when ArchDigest is set
	for i, sp := range specs {
		pr, err := chip.AddProc(sp.Cores, sp.Prog)
		if err != nil {
			return nil, fmt.Errorf("tflex: program %d: %w", i, err)
		}
		if sp.Init != nil {
			sp.Init(&pr.Regs, pr.Mem)
		}
		if cfg.OnBlock != nil {
			pr.TraceBlocks(cfg.OnBlock)
		}
		if cfg.ArchDigest {
			sh := arch.NewStoreHasher()
			pr.TraceStores(sh.Observe)
			hashers = append(hashers, sh)
		}
	}
	if err := chip.Run(cfg.MaxCycles); err != nil {
		return nil, fmt.Errorf("tflex: %w", err)
	}
	var snap MetricsSnapshot
	if reg != nil {
		snap = reg.Snapshot()
	}
	dump := chip.FlightDump() // nil unless armed
	results := make([]*Result, len(specs))
	for i, pr := range chip.Procs { // in AddProc order: one per spec
		res := &Result{
			Cycles: pr.Stats.Cycles, Stats: pr.Stats, Regs: pr.Regs, Mem: pr.Mem,
			Telemetry: reg, Metrics: snap, Flight: dump,
		}
		if cfg.ArchDigest {
			st := arch.SimState(pr, hashers[i])
			res.Arch = &st
		}
		if cfg.SampleEvery > 0 {
			res.Samples = samp
		}
		if cfg.CritPath || cfg.Observe != nil {
			cp := pr.CritPath()
			res.CritPath = &cp
		}
		results[i] = res
	}
	if cfg.Observe != nil {
		cfg.Observe.PublishChip(chip)
	}
	if reg != nil {
		reg.Freeze()
	}
	samp.Freeze()
	return results, nil
}

// Verify runs the program architecturally (no timing) with the same
// initial state and reports the final registers — the reference any
// timing run must match.
func Verify(p *Program, init func(regs *[128]uint64, mem *Memory)) (*Machine, error) {
	m := exec.NewMachine(p)
	if init != nil {
		init(&m.Regs, m.Mem.(*exec.PageMem))
	}
	if _, err := m.Run(50_000_000); err != nil {
		return nil, err
	}
	return m, nil
}
