package sim

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/prog"
)

// Microbenchmarks of the two engine hot paths this package optimizes: the
// event queue and the block fetch→execute→commit pipeline.  Each has a
// *Reference companion running the plain binary heap and the
// non-pooled block lifecycle (Options.Reference), so
//
//	go test -bench 'EventQueue|BlockPipeline' -benchtime 100x ./internal/sim
//
// prints the optimized and unoptimized costs side by side, with
// allocations per operation.

// benchEventQueue drives a queue through a steady-state churn resembling
// the simulator's: a resident population of in-flight events, each pop
// scheduling a successor a short latency ahead, with an occasional
// far-future event that exercises the calendar queue's overflow heap
// (offsets beyond the 1024-cycle window).
func benchEventQueue(b *testing.B, push func(*event), popMin func(*event)) {
	offsets := [...]uint64{1, 1, 2, 3, 5, 8, 17, 150, 1500}
	var seq uint64
	for i := 0; i < 64; i++ {
		seq++
		push(&event{at: uint64(i % 8), seq: seq})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var e event
	for i := 0; i < b.N; i++ {
		popMin(&e)
		seq++
		push(&event{at: e.at + offsets[i%len(offsets)], seq: seq})
	}
}

func BenchmarkEventQueueCalendar(b *testing.B) {
	q := &calQueue{}
	benchEventQueue(b, q.push, q.popMin)
}

func BenchmarkEventQueueReference(b *testing.B) {
	q := &minEvHeap{}
	benchEventQueue(b, q.push, func(e *event) { *e = q.pop() })
}

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
// set the run also arms critical-path attribution, so each block draws an
// attribution record from critpath's pool and returns it at the end.
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

// armedSetupRun is chipSetupRun as the experiment suite runs every job:
// the registry armed before the processor is added, so every component
// registers its metrics, and one snapshot taken after the run.
func armedSetupRun(tb testing.TB, p *prog.Program, n int) {
	chip := New(DefaultOptions())
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

// TestChipSetupBudget is the set-up half of the allocation ratchet
// (ROADMAP item 4): bytes and allocations per chipSetupRun stay within
// 1.25x of what was measured when the reservation rings shrank to the
// width of what they count (the tag arrays, the calendar queue and the
// rings were lazy already).  An eager array creeping back into sim.New or
// AddProc, or a ring back at a word a cycle, fails here long before it
// shows in a sweep.
//
// The same job with critical-path attribution armed costs at most 1.10x
// the unarmed bytes: attribution records are 9 KB each, so that holds
// only while every record a run draws from critpath's pool goes back to
// it (measured +0.4 %, +3.6 % under -race where sync.Pool drops a quarter
// of its Puts, and +20 % with the Put removed).
//
// The telemetry-armed rows hold the registration layer the same way: a
// chip that registers every metric and snapshots once formats no name
// after the first run in the process (the name memo) and gives each gauge
// one allocation, its closure.  Measured when the memo landed: 80 / 243
// allocations per run at 1 / 32 cores, against 162 / 666 before it (the
// bytes, mostly the registry's maps, barely moved: 111 / 346 KB before).
func TestChipSetupBudget(t *testing.T) {
	p := sumProgram(t)
	const runs = 50
	measureRun := func(run func()) (bytes, allocs float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, run)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1), allocs // AllocsPerRun warms up once
	}
	measure := func(cores int, critpath bool) (bytes, allocs float64) {
		return measureRun(func() { chipSetupRun(t, p, cores, critpath) })
	}
	for _, c := range []struct {
		cores         int
		bytes, allocs float64 // measured: the log lines below
	}{
		{cores: 1, bytes: 110778, allocs: 80},
		{cores: 32, bytes: 339171, allocs: 243},
	} {
		bytes, allocs := measureRun(func() { armedSetupRun(t, p, c.cores) })
		t.Logf("%d cores, telemetry armed: %.0f B and %.0f allocs per run", c.cores, bytes, allocs)
		if bytes > 1.25*c.bytes {
			t.Errorf("%d cores, telemetry armed: %.0f B per run, budget %.0f (1.25 x %.0f)", c.cores, bytes, 1.25*c.bytes, c.bytes)
		}
		if allocs > 1.25*c.allocs {
			t.Errorf("%d cores, telemetry armed: %.0f allocs per run, budget %.0f (1.25 x %.0f)", c.cores, allocs, 1.25*c.allocs, c.allocs)
		}
	}
	for _, c := range []struct {
		cores         int
		bytes, allocs float64 // measured: go test -bench ChipSetup -benchmem
	}{
		{cores: 1, bytes: 66720, allocs: 54},
		{cores: 4, bytes: 102161, allocs: 104},
	} {
		bytes, allocs := measure(c.cores, false)
		t.Logf("%d cores: %.0f B and %.0f allocs per run", c.cores, bytes, allocs)
		if bytes > 1.25*c.bytes {
			t.Errorf("%d cores: %.0f B per run, budget %.0f (1.25 x %.0f)", c.cores, bytes, 1.25*c.bytes, c.bytes)
		}
		if allocs > 1.25*c.allocs {
			t.Errorf("%d cores: %.0f allocs per run, budget %.0f (1.25 x %.0f)", c.cores, allocs, 1.25*c.allocs, c.allocs)
		}
		armed, _ := measure(c.cores, true)
		t.Logf("%d cores, critpath armed: %.0f B per run (%+.1f %%)", c.cores, armed, 100*(armed/bytes-1))
		if armed > 1.10*bytes {
			t.Errorf("%d cores, critpath armed: %.0f B per run, over 1.10 x the unarmed %.0f: attribution records are not returning to their pool",
				c.cores, armed, bytes)
		}
	}
}

// TestChipReuseBudget holds what the fuzz harness pays per run on a
// chip it reuses (arch.Sim): Reset, then chipSetupRun's job, on a warm
// chip, at 1 and 4 cores.  What is left is the job's own state — the
// processor's architectural memory (a map), its Stats slice and the
// composition's core list — and a reset allocates nothing, so each row's
// bytes and allocations stay within 1.10x of the measured value (a new
// chip costs 66,712 B and 49 allocations at 1 core: TestChipSetupBudget).
// The race detector's runtime adds bytes of its own, a number that varied
// from run to run while this was measured, so a -race build holds the
// allocation bound only.  The chip is reset directly rather than through
// arch's sync.Pool, which drops Puts at random under the race detector.
func TestChipReuseBudget(t *testing.T) {
	p := sumProgram(t)
	const runs = 50
	for _, c := range []struct {
		cores         int
		bytes, allocs float64 // measured: the log lines below
	}{
		{cores: 1, bytes: 72, allocs: 4},
		{cores: 4, bytes: 144, allocs: 6},
	} {
		chip := New(DefaultOptions())
		setupJob(t, chip, p, c.cores)
		chip.Reset() // the first reset builds the chip's store of kept parts
		setupJob(t, chip, p, c.cores)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			chip.Reset()
			setupJob(t, chip, p, c.cores)
		})
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		t.Logf("%d cores, reused chip: %.0f B and %.0f allocs per run", c.cores, bytes, allocs)
		if bytes > 1.10*c.bytes && !raceDetector {
			t.Errorf("%d cores, reused chip: %.0f B per run, budget %.0f (1.10 x %.0f)", c.cores, bytes, 1.10*c.bytes, c.bytes)
		}
		if allocs > 1.10*c.allocs {
			t.Errorf("%d cores, reused chip: %.0f allocs per run, budget %.0f (1.10 x %.0f)", c.cores, allocs, 1.10*c.allocs, c.allocs)
		}
	}
}
