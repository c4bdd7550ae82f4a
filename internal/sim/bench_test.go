package sim

import (
	"fmt"
	"testing"

	"github.com/clp-sim/tflex/internal/budget"
	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/prog"
)

// Microbenchmarks of the block fetch→execute→commit pipeline.  Each has a
// *Reference companion running the plain binary heap and the non-pooled
// block lifecycle (Options.Reference), so
//
//	go test -bench BlockPipeline -benchtime 100x ./internal/sim
//
// prints the optimized and unoptimized costs side by side, with
// allocations per operation.  The event queue's own microbenchmarks are
// in internal/evq.

// benchBlockPipeline runs a register-pressure-free sum loop end to end on
// a fresh 4-core composition per iteration: every block goes through
// fetch, dispatch, operand delivery, issue, branch resolution and the
// distributed commit protocol.  blocks/op makes allocs-per-block a direct
// read-off against the reported allocs/op.
func benchBlockPipeline(b *testing.B, reference, critpath bool) {
	p := sumProgram(b)
	opts := DefaultOptions()
	opts.Reference = reference
	var blocks uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip := New(opts)
		if critpath {
			chip.EnableCritPath()
		}
		proc, err := chip.AddProc(compose.MustRect(0, 0, 4), p)
		if err != nil {
			b.Fatal(err)
		}
		proc.Regs[1] = 500
		if err := chip.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		blocks += proc.Stats.BlocksCommitted
	}
	b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
}

func BenchmarkBlockPipeline(b *testing.B)          { benchBlockPipeline(b, false, false) }
func BenchmarkBlockPipelineReference(b *testing.B) { benchBlockPipeline(b, true, false) }

// BenchmarkBlockPipelineCritPath prices per-block critical-path
// attribution against BenchmarkBlockPipeline: the delta is the full
// recording + walk cost, which ci.sh budgets at 1.10x end to end.
func BenchmarkBlockPipelineCritPath(b *testing.B) { benchBlockPipeline(b, false, true) }

// chipSetupRun is the shortest whole job: a fresh chip, one composition
// of n cores, and a two-block run (one loop iteration, then halt).  Its
// cost is almost all set-up — what the chip's lazily built structures
// are meant to keep proportional to what the job touches.  With critpath
// set the run also arms critical-path attribution, so each in-flight
// block builds an attribution record.
func chipSetupRun(tb testing.TB, p *prog.Program, n int, critpath bool) {
	chip := New(DefaultOptions())
	if critpath {
		chip.EnableCritPath()
	}
	setupJob(tb, chip, p, n)
}

// setupJob is chipSetupRun's job on a chip in the state New returns.
func setupJob(tb testing.TB, chip *Chip, p *prog.Program, n int) {
	proc, err := chip.AddProc(compose.MustRect(0, 0, n), p)
	if err != nil {
		tb.Fatal(err)
	}
	proc.Regs[1] = 1
	if err := chip.Run(1_000_000); err != nil {
		tb.Fatal(err)
	}
	if proc.Stats.BlocksCommitted != 2 {
		tb.Fatalf("committed %d blocks, want 2", proc.Stats.BlocksCommitted)
	}
}

// armedJob is setupJob as the experiment suite runs every job: the
// registry armed before the processor is added, so every component
// registers its metrics, and one snapshot taken after the run.
func armedJob(tb testing.TB, chip *Chip, p *prog.Program, n int) {
	chip.Telemetry()
	proc, err := chip.AddProc(compose.MustRect(0, 0, n), p)
	if err != nil {
		tb.Fatal(err)
	}
	proc.Regs[1] = 1
	if err := chip.Run(1_000_000); err != nil {
		tb.Fatal(err)
	}
	if snap := chip.Telemetry().Snapshot(); snap.Get("proc0.blocks.committed") != 2 {
		tb.Fatalf("snapshot committed %v blocks, want 2", snap.Get("proc0.blocks.committed"))
	}
}

// BenchmarkChipSetup prices chipSetupRun on 1 and 4 cores; B/op is the
// figure TestChipSetupBudget holds.
func BenchmarkChipSetup(b *testing.B) {
	p := sumProgram(b)
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chipSetupRun(b, p, n, false)
			}
		})
	}
}

// TestChipSetupBudget is the set-up half of the allocation ratchet: the
// bytes and allocations of chipSetupRun on a new chip.  An eager array
// creeping back into sim.New or AddProc (the tag arrays, the calendar
// queue and the rings are lazy), or a ring back at a word a cycle, fails
// here long before it shows in a sweep.
//
// The telemetry-armed rows hold the registration layer the same way: a
// chip that registers every metric and snapshots once formats no name
// after the first run in the process (the name memo), and each component
// binds its gauge funcs on its first registration, one allocation each,
// which a warm chip re-arming its kept registry does not repeat
// (TestChipReuseBudget).  Before the memo they cost 162 / 666
// allocations at 1 / 32 cores.
//
// The same job with critical-path attribution armed costs at most 1.10x
// the bytes the unarmed rows read: its records, 4 more allocations at 1
// core and 6 at 4, are sized by their blocks' live instructions.  A warm
// chip keeps them (TestChipReuseBudget's critpath rows).
func TestChipSetupBudget(t *testing.T) {
	p := sumProgram(t)
	var rows []budget.Row
	for _, c := range []struct {
		name              string
		layer             budget.Layer
		run               func(testing.TB)
		bytes, bytesMax   float64
		allocs, allocsMax float64
	}{
		{"cores=1", budget.EngineOther, func(tb testing.TB) { chipSetupRun(tb, p, 1, false) }, 57624, 1.25 * 57624, 49, 1.25 * 49},
		{"cores=4", budget.EngineOther, func(tb testing.TB) { chipSetupRun(tb, p, 4, false) }, 93544, 1.25 * 93544, 73, 1.25 * 73},
		{"cores=1/telemetry", budget.ObserverTaps, func(tb testing.TB) { armedJob(tb, New(DefaultOptions()), p, 1) }, 100344, 1.25 * 100344, 82, 1.25 * 80},
		{"cores=32/telemetry", budget.ObserverTaps, func(tb testing.TB) { armedJob(tb, New(DefaultOptions()), p, 32) }, 331640, 1.25 * 331640, 245, 1.25 * 243},
	} {
		run := func(tb testing.TB) budget.Work { c.run(tb); return budget.Work{} }
		rows = append(rows,
			budget.Row{Name: c.name + "/bytes", Quantity: budget.Bytes, Layer: c.layer, Run: run, Value: c.bytes, Bound: c.bytesMax},
			budget.Row{Name: c.name + "/allocs", Quantity: budget.Allocs, Layer: c.layer, Run: run, Value: c.allocs, Bound: c.allocsMax})
	}
	got := budget.Check(t, rows)
	rows = rows[:0]
	for i, n := range []int{1, 4} {
		run := func(tb testing.TB) budget.Work { chipSetupRun(tb, p, n, true); return budget.Work{} }
		rows = append(rows, budget.Row{Name: fmt.Sprintf("cores=%d/critpath/bytes", n), Quantity: budget.Bytes, Layer: budget.ObserverTaps, Run: run, Value: got[2*i], Bound: 1.10 * got[2*i]})
	}
	budget.Check(t, rows)
}

// TestChipReuseBudget holds what the fuzz harness pays per run on a
// chip it reuses (arch.Sim): Reset, then chipSetupRun's job, on a warm
// chip, at 1 and 4 cores.  What is left is the job's own state — the
// processor's architectural memory (a map), its Stats slice and the
// composition's core list — and a reset allocates nothing.
//
// The armed rows are a job of the experiment suite on a warm chip, at 1
// and 32 cores: Reset, then armedJob — the registry armed, the job, one
// snapshot.  The chip keeps its registry across the reset, cleared, and
// every component bound its gauge funcs on its first registration, so
// re-arming allocates no map, histogram or gauge: what is left beside the
// job's own state is the snapshot's map.  The chip is reset directly
// rather than through the chip pool (Release), so the rows price Reset
// and the job alone.
//
// The critpath rows are Reset, EnableCritPath and the job on a chip
// whose last job ran unarmed: each in-flight block keeps its attribution
// record across resets and unarmed fetches, so the job allocates what
// the unarmed rows read and at most 1.10x their bytes.  A block that
// drops its record reads 6 allocations and about 1,240 B more.
func TestChipReuseBudget(t *testing.T) {
	p := sumProgram(t)
	var rows []budget.Row
	for _, c := range []struct {
		cores                   int
		armed                   bool
		bytes, bytesMax, allocs float64
	}{
		{1, false, 72, 1.10 * 72, 4},
		{4, false, 152, 1.10 * 144, 6},
		{1, true, 13728, 1.10 * 13728, 8},
		{32, true, 30296, 1.10 * 30288, 20},
	} {
		job, name, layer := setupJob, fmt.Sprintf("cores=%d", c.cores), budget.EngineOther
		if c.armed {
			job, name, layer = armedJob, name+"/telemetry", budget.ObserverTaps
		}
		chip := New(DefaultOptions())
		job(t, chip, p, c.cores)
		chip.Reset() // the first reset builds the chip's store of kept parts
		run := func(tb testing.TB) budget.Work { chip.Reset(); job(tb, chip, p, c.cores); return budget.Work{} }
		rows = append(rows,
			budget.Row{Name: name + "/bytes", Quantity: budget.Bytes, Layer: layer, Run: run, Value: c.bytes, Bound: c.bytesMax},
			budget.Row{Name: name + "/allocs", Quantity: budget.Allocs, Layer: layer, Run: run, Value: c.allocs, Bound: 1.10 * c.allocs})
	}
	got := budget.Check(t, rows)
	rows = rows[:0]
	for i, n := range []int{1, 4} {
		chip := New(DefaultOptions())
		unarmed := func(tb testing.TB) { chip.Reset(); setupJob(tb, chip, p, n) }
		run := func(tb testing.TB) budget.Work {
			chip.Reset()
			chip.EnableCritPath()
			setupJob(tb, chip, p, n)
			return budget.Work{}
		}
		name, bytes, allocs := fmt.Sprintf("cores=%d/critpath", n), got[2*i], got[2*i+1]
		rows = append(rows,
			budget.Row{Name: name + "/bytes", Quantity: budget.Bytes, Layer: budget.ObserverTaps, Setup: unarmed, Run: run, Value: bytes, Bound: 1.10 * bytes},
			budget.Row{Name: name + "/allocs", Quantity: budget.Allocs, Layer: budget.ObserverTaps, Setup: unarmed, Run: run, Value: allocs, Bound: allocs})
	}
	budget.Check(t, rows)
}

// TestWarmChipJobBudget holds what a whole gcc job (scale 8) allocates
// on a warm chip, reset before each run: the processor's architectural
// memory, its Stats slice and core list, and nothing the run itself
// makes.  A block flushed before one of its register writes resolved
// still holds that slot's read-waiter list; releasing the block returns
// the list to the processor's free list, where a list left on a pooled
// block was lost to the next read that waited, which allocated a new one:
// on 8 cores that cost 35 allocations and 1,620 B a job instead of 9 and
// 521.
func TestWarmChipJobBudget(t *testing.T) {
	k, _ := kernels.ByName("gcc")
	inst, err := k.Build(8)
	if err != nil {
		t.Fatal(err)
	}
	var rows []budget.Row
	for _, c := range []struct {
		cores                   int
		bytes, bytesMax, allocs float64
	}{
		{1, 328, 1.10 * 328, 6},
		{8, 504, 1.10 * 504, 9},
	} {
		chip := New(DefaultOptions())
		run := func(tb testing.TB) budget.Work {
			chip.Reset()
			p, err := chip.AddProc(compose.MustRect(0, 0, c.cores), inst.Prog)
			if err != nil {
				tb.Fatal(err)
			}
			inst.Init(&p.Regs, p.Mem)
			if err := chip.Run(2_000_000_000); err != nil {
				tb.Fatal(err)
			}
			return budget.Work{}
		}
		name := fmt.Sprintf("gcc/cores=%d", c.cores)
		rows = append(rows,
			budget.Row{Name: name + "/bytes", Quantity: budget.Bytes, Layer: budget.OperandDelivery, Run: run, Value: c.bytes, Bound: c.bytesMax},
			budget.Row{Name: name + "/allocs", Quantity: budget.Allocs, Layer: budget.OperandDelivery, Run: run, Value: c.allocs, Bound: 1.10 * c.allocs})
	}
	budget.Check(t, rows)
}
