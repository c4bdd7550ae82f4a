package sim_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/telemetry"
	"github.com/clp-sim/tflex/internal/trips"
)

// TestSteadyStateAllocsPerBlock is the steady-state half of the
// allocation ratchet (TestChipSetupBudget holds set-up): once a chip is
// warm, fetching, executing and committing one more block allocates
// nothing.  Each kernel runs whole on a fresh chip at two scales; the
// difference in allocations over the difference in committed blocks is
// the marginal cost of a block, with set-up cancelled by the
// subtraction.  Anything per-block that regrows — an append onto a list
// that was dropped instead of recycled, a closure, a boxed event — shows
// up here as ≥ 1; pool and slab growth to a larger working set amortizes
// to a few thousandths.
func TestSteadyStateAllocsPerBlock(t *testing.T) {
	const small, large = 2, 16
	for _, name := range []string{"mcf", "bzip2", "gcc"} {
		k, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		for _, cores := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/cores=%d", name, cores), func(t *testing.T) {
				allocsS, _, blocksS := wholeRun(t, k, small, cores, sim.DefaultOptions(), false)
				allocsL, _, blocksL := wholeRun(t, k, large, cores, sim.DefaultOptions(), false)
				if blocksL <= blocksS {
					t.Fatalf("scale %d commits %d blocks, scale %d commits %d: no steady state to measure", large, blocksL, small, blocksS)
				}
				perBlock := (allocsL - allocsS) / float64(blocksL-blocksS)
				t.Logf("%.0f allocs / %d blocks at scale %d, %.0f / %d at scale %d: %.4f allocs per marginal block",
					allocsS, blocksS, small, allocsL, blocksL, large, perBlock)
				if perBlock > 0.1 {
					t.Errorf("%.4f allocations per marginal block, want <= 0.1", perBlock)
				}
			})
		}
	}
}

// TestReferenceBytesPerBlock is the same subtraction for the Reference
// engine, in bytes: the oracle never recycles storage, so every fetch
// allocates a fresh IFB and its per-instruction state, and the marginal
// block's bytes are mostly what its in-flight state costs.  That state is
// one record per live instruction, not one per slot of the block's frame:
// mcf's and gcc's committed blocks span 98-99 slots and run 7-8
// instructions, conv's span 121 and run 110.  Each ceiling is the
// measured value plus 10 %; beside each row is what per-slot state read.
func TestReferenceBytesPerBlock(t *testing.T) {
	const small, large = 2, 16
	opts := sim.DefaultOptions()
	opts.Reference = true
	for _, c := range []struct {
		kernel string
		cores  int
		max    float64
	}{
		// per-slot state read 10096.0, 10096.1
		{"mcf", 1, 1180}, {"mcf", 8, 1180},
		// 10076.4, 10076.4
		{"gcc", 1, 1213}, {"gcc", 8, 1213},
		// 13221.0, 44270.2
		{"conv", 1, 10040}, {"conv", 8, 33270},
	} {
		k, ok := kernels.ByName(c.kernel)
		if !ok {
			t.Fatalf("no kernel %q", c.kernel)
		}
		_, bytesS, blocksS := wholeRun(t, k, small, c.cores, opts, false)
		_, bytesL, blocksL := wholeRun(t, k, large, c.cores, opts, false)
		perBlock := (bytesL - bytesS) / float64(blocksL-blocksS)
		t.Logf("%s, cores %d: %.0f B / %d blocks at scale %d, %.0f / %d at scale %d: %.1f B per marginal block",
			c.kernel, c.cores, bytesS, blocksS, small, bytesL, blocksL, large, perBlock)
		if perBlock > c.max {
			t.Errorf("%s, cores %d: %.1f bytes per marginal Reference block, want <= %.0f", c.kernel, c.cores, perBlock, c.max)
		}
	}
}

// TestObservedAllocsPerBlock is the same ratchet with every tap armed
// (registry, Chrome trace, sampler at 64 cycles, critical path, flight
// ring, a block observer): a retired block leaves the engine as one
// pointer-free record stored into the trace's fixed chunks, and a sample
// stores its row into the sampler's, so the marginal block costs one new
// chunk now and then — a few thousandths of an allocation, where a row
// slice per sample and a record slice grown by append cost 0.31 (mcf) and
// 0.13 (gcc).  A map, a boxed value or a heap copy made per block
// anywhere on the retirement path reads >= 1 here.
func TestObservedAllocsPerBlock(t *testing.T) {
	const small, large = 8, 32
	for _, c := range []struct {
		kernel string
		max    float64 // measured 0.0024 and 0.0021
	}{{"mcf", 0.01}, {"gcc", 0.01}} {
		k, ok := kernels.ByName(c.kernel)
		if !ok {
			t.Fatalf("no kernel %q", c.kernel)
		}
		t.Run(c.kernel, func(t *testing.T) {
			allocsS, _, blocksS := wholeRun(t, k, small, 8, sim.DefaultOptions(), true)
			allocsL, _, blocksL := wholeRun(t, k, large, 8, sim.DefaultOptions(), true)
			perBlock := (allocsL - allocsS) / float64(blocksL-blocksS)
			t.Logf("%.0f allocs / %d blocks at scale %d, %.0f / %d at scale %d: %.4f allocs per marginal block",
				allocsS, blocksS, small, allocsL, blocksL, large, perBlock)
			if perBlock > c.max {
				t.Errorf("%.4f allocations per marginal block with every tap armed, want <= %g", perBlock, c.max)
			}
		})
	}
}

// TestObservedBytesPerBlock is the byte half of the same ratchet: what a
// marginal committed block costs with every tap armed is the trace
// record it keeps (112 bytes) and its share of the samples, not a
// multiple of it.  A record slice grown by append allocates several
// times what it finally holds, and a row slice per sample pays the
// allocator's rounding besides.  Each ceiling is the measured value plus
// 10 %; beside each row is what those read.
func TestObservedBytesPerBlock(t *testing.T) {
	const small, large = 8, 32
	for _, c := range []struct {
		kernel string
		max    float64
	}{
		// a record slice and row slices read 568.4, 552.8
		{"mcf", 135}, {"gcc", 127},
	} {
		k, ok := kernels.ByName(c.kernel)
		if !ok {
			t.Fatalf("no kernel %q", c.kernel)
		}
		_, bytesS, blocksS := wholeRun(t, k, small, 8, sim.DefaultOptions(), true)
		_, bytesL, blocksL := wholeRun(t, k, large, 8, sim.DefaultOptions(), true)
		perBlock := (bytesL - bytesS) / float64(blocksL-blocksS)
		t.Logf("%s: %.0f B / %d blocks at scale %d, %.0f / %d at scale %d: %.1f B per marginal block",
			c.kernel, bytesS, blocksS, small, bytesL, blocksL, large, perBlock)
		if perBlock > c.max {
			t.Errorf("%s: %.1f bytes per marginal block with every tap armed, want <= %.0f", c.kernel, perBlock, c.max)
		}
	}
}

// TestEventsPerBlock holds the event diet: host events executed per
// committed block, deterministic for a seed.  A block's dispatch costs one
// event per distinct dispatch cycle, not one per instruction; each ceiling
// is the measured value rounded up.  Beside each row is what one event
// per instruction read: conv's 112-instruction blocks fall to 0.66-0.73
// of it, mcf's and gcc's 7- to 11-instruction blocks to 0.80-0.89.
func TestEventsPerBlock(t *testing.T) {
	for _, c := range []struct {
		kernel string
		cores  int // 0: the TRIPS configuration
		max    float64
	}{
		// per-instruction dispatch read 25.99, 26.00, 26.00
		{"mcf", 1, 21}, {"mcf", 8, 21.1}, {"mcf", 0, 23.1},
		// 26.96, 27.61, 37.65
		{"gcc", 1, 21.7}, {"gcc", 8, 22.5}, {"gcc", 0, 32.6},
		// 312.49, 1055.33, 892.17
		{"conv", 1, 230}, {"conv", 8, 695}, {"conv", 0, 622},
	} {
		opts, comp := trips.Options(), trips.Processor()
		if c.cores > 0 {
			opts, comp = sim.DefaultOptions(), compose.MustRect(0, 0, c.cores)
		}
		chip, proc := runKernel(t, c.kernel, 4, opts, comp)
		perBlock := float64(chip.DomainStats()[0].Events) / float64(proc.Stats.BlocksCommitted)
		t.Logf("%s, cores %d: %.2f events per committed block", c.kernel, c.cores, perBlock)
		if perBlock > c.max {
			t.Errorf("%s, cores %d: %.2f events per committed block, want <= %.1f", c.kernel, c.cores, perBlock, c.max)
		}
	}
}

// TestWideDispatchSpanCyclesPinned: conv's 112-instruction block on one
// core at one slot a cycle dispatches over 112 cycles, wider than the 64
// the fetch stage's seen-this-cycle set covers, so the cycles past it take
// the fallback — which must be as exact as the rest (value read from the
// per-instruction dispatch this replaced).
func TestWideDispatchSpanCyclesPinned(t *testing.T) {
	opts := sim.DefaultOptions()
	opts.Params.DispatchBW = 1
	_, proc := runKernel(t, "conv", 1, opts, compose.MustRect(0, 0, 1))
	const want = 5234
	if proc.Stats.Cycles != want {
		t.Errorf("conv on 1 core at DispatchBW 1 took %d cycles, want %d", proc.Stats.Cycles, want)
	}
}

// runKernel runs the named kernel to halt on one processor of a fresh chip.
func runKernel(t *testing.T, name string, scale int, opts sim.Options, comp compose.Processor) (*sim.Chip, *sim.Proc) {
	t.Helper()
	k, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("no kernel %q", name)
	}
	inst, err := k.Build(scale)
	if err != nil {
		t.Fatal(err)
	}
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

// wholeRun builds the kernel once, then measures one complete job — new
// chip of the given options, composition, input set-up, run to halt —
// and returns its allocations, its bytes and the blocks it committed.
// tapped arms every observer the chip has.  Like testing.AllocsPerRun,
// it runs the job once to warm up, then measures one run at GOMAXPROCS 1.
func wholeRun(t *testing.T, k kernels.Kernel, scale, cores int, opts sim.Options, tapped bool) (allocs, bytes float64, blocks uint64) {
	inst, err := k.Build(scale)
	if err != nil {
		t.Fatal(err)
	}
	job := func() {
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
			t.Fatal(err)
		}
		if tapped {
			var latency uint64
			proc.TraceBlocks(func(ev sim.BlockEvent) { latency += ev.CritPath.Total() })
		}
		inst.Init(&proc.Regs, proc.Mem)
		if err := chip.Run(2_000_000_000); err != nil {
			t.Fatal(err)
		}
		blocks = proc.Stats.BlocksCommitted
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	job()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	job()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc), blocks
}
