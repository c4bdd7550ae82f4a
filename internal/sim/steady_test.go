package sim_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/budget"
	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/telemetry"
	"github.com/clp-sim/tflex/internal/trips"
)

// TestSteadyStateAllocsPerBlock is the steady-state half of the
// allocation ratchet (TestChipSetupBudget holds set-up): once a chip is
// warm, fetching, executing and committing one more block allocates
// nothing.  Each kernel runs whole on a fresh chip at scales 2 and 16;
// the difference in allocations over the difference in committed blocks
// is the marginal cost of a block, with set-up cancelled by the
// subtraction.  Anything per-block that regrows — an append onto a list
// that was dropped instead of recycled, a closure, a boxed event — reads
// ≥ 1 here; pool and slab growth to a larger working set amortizes to a
// few thousandths.
func TestSteadyStateAllocsPerBlock(t *testing.T) {
	row := func(kernel string, cores int, value float64) budget.Row {
		return perBlockRow(t, fmt.Sprintf("%s/cores=%d", kernel, cores), budget.AllocsPerBlock, budget.BlockLifecycle, kernel, cores, 2, 16, sim.DefaultOptions(), false, value, 0.1)
	}
	budget.Check(t, []budget.Row{row("mcf", 1, 0), row("mcf", 8, 0.0002), row("bzip2", 1, 0), row("bzip2", 8, 0.0015), row("gcc", 1, 0), row("gcc", 8, 0)})
}

// TestReferenceBytesPerBlock is the same subtraction for the Reference
// engine, in bytes: the oracle never recycles storage, so every fetch
// allocates a fresh IFB and its per-instruction state, and the marginal
// block's bytes are mostly what its in-flight state costs.  That state is
// one record per live instruction, not one per slot of the block's frame:
// mcf's and gcc's committed blocks span 98-99 slots and run 7-8
// instructions, conv's span 121 and run 110.  Per-slot state read 10,096
// B a block for mcf, 10,076 for gcc, and 13,221 and 44,270 for conv on 1
// and 8 cores.
func TestReferenceBytesPerBlock(t *testing.T) {
	opts := sim.DefaultOptions()
	opts.Reference = true
	row := func(kernel string, cores int, value, bound float64) budget.Row {
		return perBlockRow(t, fmt.Sprintf("%s/cores=%d", kernel, cores), budget.BytesPerBlock, budget.BlockLifecycle, kernel, cores, 2, 16, opts, false, value, bound)
	}
	budget.Check(t, []budget.Row{row("mcf", 1, 1072, 1180), row("mcf", 8, 1072, 1180), row("gcc", 1, 1102, 1213), row("gcc", 8, 1102, 1213),
		row("conv", 1, 9125, 10040), row("conv", 8, 30240, 33270)})
}

// TestObservedAllocsPerBlock and TestObservedBytesPerBlock are the same
// ratchet with every tap armed (registry, Chrome trace, sampler at 64
// cycles, critical path, flight ring, a block observer), on 8 cores at
// scales 8 and 32: a retired block leaves the engine as one pointer-free
// record (112 bytes) stored into the trace's fixed chunks, and a sample
// stores its row into the sampler's, so the marginal block costs one new
// chunk now and then.  A row slice per sample and a record slice grown
// by append cost 0.31 (mcf) and 0.13 (gcc) allocations and 568 and 553
// bytes a block.  A map, a boxed value or a heap copy made per block
// anywhere on the retirement path reads >= 1 allocation here.
func TestObservedAllocsPerBlock(t *testing.T) {
	budget.Check(t, []budget.Row{observedRow(t, "mcf", budget.AllocsPerBlock, 0.0024, 0.01), observedRow(t, "gcc", budget.AllocsPerBlock, 0.0021, 0.01)})
}

func TestObservedBytesPerBlock(t *testing.T) {
	budget.Check(t, []budget.Row{observedRow(t, "mcf", budget.BytesPerBlock, 122.8, 135), observedRow(t, "gcc", budget.BytesPerBlock, 115.1, 127)})
}

func observedRow(t *testing.T, kernel string, q budget.Quantity, value, bound float64) budget.Row {
	return perBlockRow(t, kernel, q, budget.ObserverTaps, kernel, 8, 8, 32, sim.DefaultOptions(), true, value, bound)
}

// TestEventsPerBlock holds the event diet: host events executed per
// committed block, deterministic for a seed.  A block's dispatch costs one
// event per distinct dispatch cycle, not one per instruction.  One event
// per instruction read 25.99, 26.00 and 26.00 events a block for mcf on
// 1 and 8 cores and TRIPS, 26.96, 27.61 and 37.65 for gcc, and 312.49,
// 1055.33 and 892.17 for conv: conv's 112-instruction blocks fall to
// 0.66-0.73 of that, mcf's and gcc's 7- to 11-instruction blocks to
// 0.80-0.89.  A row over its ceiling logs its events per block by kind
// (the registry's sim.events.<kind>), so the failure names the kind that
// grew.
func TestEventsPerBlock(t *testing.T) {
	// splits holds each row's last run's events per block by kind.
	var splits []string
	row := func(kernel string, cores int, value, bound float64) budget.Row { // cores 0: the TRIPS configuration
		opts, comp, name := trips.Options(), trips.Processor(), kernel+"/trips"
		if cores > 0 {
			opts, comp, name = sim.DefaultOptions(), compose.MustRect(0, 0, cores), fmt.Sprintf("%s/cores=%d", kernel, cores)
		}
		i := len(splits)
		splits = append(splits, "")
		return budget.Row{Name: name, Quantity: budget.EventsPerBlock, Layer: budget.EventQueue, Run: func(tb testing.TB) budget.Work {
			chip, proc := runKernel(tb, kernel, 4, opts, comp)
			splits[i] = eventsByKind(chip, proc.Stats.BlocksCommitted)
			return budget.Work{Blocks: proc.Stats.BlocksCommitted, Events: chip.Events()}
		}, Value: value, Bound: bound}
	}
	rows := []budget.Row{
		row("mcf", 1, 20.99, 21), row("mcf", 8, 21.01, 21.1), row("mcf", 0, 23.00, 23.1),
		row("gcc", 1, 21.64, 21.7), row("gcc", 8, 22.41, 22.5), row("gcc", 0, 32.51, 32.6),
		row("conv", 1, 229.44, 230), row("conv", 8, 694.31, 695), row("conv", 0, 621.87, 622),
	}
	for i, got := range budget.Check(t, rows) {
		if got > rows[i].Bound {
			t.Logf("%s events per block by kind: %s", rows[i].Name, splits[i])
		}
	}
}

// eventsByKind renders the chip's sim.events.<kind> counts per block,
// largest first.
func eventsByKind(chip *sim.Chip, blocks uint64) string {
	type kind struct {
		name string
		n    float64
	}
	var kinds []kind
	for name, n := range chip.Telemetry().Snapshot() {
		if k, ok := strings.CutPrefix(name, "sim.events."); ok {
			kinds = append(kinds, kind{k, n})
		}
	}
	sort.Slice(kinds, func(i, j int) bool {
		return kinds[i].n > kinds[j].n || kinds[i].n == kinds[j].n && kinds[i].name < kinds[j].name
	})
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s %.2f", k.name, k.n/float64(blocks))
	}
	return strings.Join(parts, ", ")
}

// TestWideDispatchSpanCyclesPinned: conv's 112-instruction block on one
// core at one slot a cycle dispatches over 112 cycles, wider than the 64
// the fetch stage's seen-this-cycle set covers, so the cycles past it take
// the fallback, an event per instruction — which must be as exact as the
// rest (value read from the per-instruction dispatch the merged walk
// replaced).  On two cores the block dispatches over 57 cycles, each
// cycle a chain of two instructions, one from each core, that are not
// neighbours in Live (value read from the whole-Live walk the chains
// replaced).
func TestWideDispatchSpanCyclesPinned(t *testing.T) {
	opts := sim.DefaultOptions()
	opts.Params.DispatchBW = 1
	for _, c := range []struct {
		cores int
		want  uint64
	}{{1, 5234}, {2, 2499}} {
		_, proc := runKernel(t, "conv", 1, opts, compose.MustRect(0, 0, c.cores))
		if proc.Stats.Cycles != c.want {
			t.Errorf("conv on %d cores at DispatchBW 1 took %d cycles, want %d", c.cores, proc.Stats.Cycles, c.want)
		}
	}
}

// build builds the named kernel at scale.
func build(t testing.TB, name string, scale int) *kernels.Instance {
	t.Helper()
	k, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("no kernel %q", name)
	}
	inst, err := k.Build(scale)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// runKernel runs the named kernel to halt on one processor of a fresh chip.
func runKernel(t testing.TB, name string, scale int, opts sim.Options, comp compose.Processor) (*sim.Chip, *sim.Proc) {
	t.Helper()
	inst := build(t, name, scale)
	chip := sim.New(opts)
	proc, err := chip.AddProc(comp, inst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	inst.Init(&proc.Regs, proc.Mem)
	if err := chip.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(&proc.Regs, proc.Mem); err != nil {
		t.Fatal(err)
	}
	return chip, proc
}

// perBlockRow is the row that holds q of a marginal block of the
// kernel on cores: one complete job at each scale (wholeRun), the larger
// measured against the smaller.
func perBlockRow(t *testing.T, name string, q budget.Quantity, layer budget.Layer, kernel string, cores, small, large int, opts sim.Options, tapped bool, value, bound float64) budget.Row {
	return budget.Row{Name: name, Quantity: q, Layer: layer, Base: wholeRun(t, kernel, small, cores, opts, tapped), Run: wholeRun(t, kernel, large, cores, opts, tapped),
		Value: value, Bound: bound}
}

// wholeRun builds the kernel at scale and returns one complete job on it
// — new chip of the given options, composition, input set-up, run to
// halt — which reports the blocks it committed.  tapped arms every
// observer the chip has.
func wholeRun(t *testing.T, kernel string, scale, cores int, opts sim.Options, tapped bool) func(testing.TB) budget.Work {
	inst := build(t, kernel, scale)
	return func(tb testing.TB) budget.Work {
		chip := sim.New(opts)
		if tapped {
			chip.Telemetry()
			chip.SetChromeTrace(&telemetry.Trace{})
			chip.SampleEvery(64)
			chip.EnableCritPath()
			chip.EnableFlight(0)
		}
		proc, err := chip.AddProc(compose.MustRect(0, 0, cores), inst.Prog)
		if err != nil {
			tb.Fatal(err)
		}
		if tapped {
			var latency uint64
			proc.TraceBlocks(func(ev sim.BlockEvent) { latency += ev.CritPath.Total() })
		}
		inst.Init(&proc.Regs, proc.Mem)
		if err := chip.Run(2_000_000_000); err != nil {
			tb.Fatal(err)
		}
		return budget.Work{Blocks: proc.Stats.BlocksCommitted}
	}
}
