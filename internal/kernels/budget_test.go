package kernels

import (
	"runtime"
	"testing"

	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/isa"
)

// TestKernelBuildBudget holds what the steady benchmark workload pays per
// job before and after the simulation: Build(32), Init on a fresh memory,
// and a passing Check, for each of its eight kernels.  Allocations may not
// rise above, and bytes may not exceed 1.02 x, the measured values.  The
// input memory is an image built once per (kernel, scale) and attached by
// Init, so a warm Build pays for the program, the reference's data and
// the attached memory's page table, not for input pages: mcf fell from
// 4,323,021 B and 1,118 allocations, when Init stored every input
// element into fresh pages, to 109,313 B and 76, and to 108,680 B and 40
// once the builder carved each block's consumer, target and decode lists
// from one slice apiece and kept no per-block maps.  A kernel that copies
// its inputs into an image, an Init that writes pages again, or a Check
// that allocates, fails here before it shows in the benchmark's
// alloc_kb_per_block.  Under -race the runtime adds bytes of its own
// (+416 for 8b10b on either side), so only the allocation bound holds
// there; ./ci.sh bench runs both bounds.
func TestKernelBuildBudget(t *testing.T) {
	const runs = 10
	for _, c := range []struct {
		name          string
		bytes, allocs float64 // measured: the log line below, go1.24 linux/amd64
	}{
		{"conv", 108642, 42},
		{"ct", 103201, 43},
		{"mcf", 108680, 40},
		{"gcc", 85088, 91},
		{"ammp", 45408, 37},
		{"8b10b", 50169, 41},
		{"art", 200632, 56},
		{"bzip2", 80736, 89},
	} {
		k, ok := ByName(c.name)
		if !ok {
			t.Fatalf("no kernel %q", c.name)
		}
		// The final state Check reads comes from one functional run
		// outside the measurement.
		inst, err := k.Build(32)
		if err != nil {
			t.Fatal(err)
		}
		done := exec.NewMachine(inst.Prog)
		inst.Init(&done.Regs, done.Mem.(*exec.PageMem))
		if _, err := done.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		var failed error
		regs := new([isa.NumRegs]uint64) // a register file lives in its Proc or Machine
		run := func() {
			inst, err := k.Build(32)
			if err != nil {
				failed = err
				return
			}
			inst.Init(regs, exec.NewPageMem())
			if err := inst.Check(&done.Regs, done.Mem.(*exec.PageMem)); err != nil {
				failed = err
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, run)
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		if failed != nil {
			t.Fatalf("%s: %v", c.name, failed)
		}
		t.Logf("%s: %.0f B and %.0f allocs per Build(32), Init and Check", c.name, bytes, allocs)
		if allocs > c.allocs {
			t.Errorf("%s: %.0f allocs, budget %.0f", c.name, allocs, c.allocs)
		}
		if bytes > 1.02*c.bytes && !raceDetector {
			t.Errorf("%s: %.0f B, budget %.0f (1.02 x %.0f)", c.name, bytes, 1.02*c.bytes, c.bytes)
		}
	}
}
