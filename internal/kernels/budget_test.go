package kernels

import (
	"testing"

	"github.com/clp-sim/tflex/internal/budget"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/isa"
)

// TestKernelBuildBudget holds what the steady benchmark workload pays per
// job before and after the simulation: Build(32), Init on a fresh memory,
// and a passing Check, for each of its eight kernels.  The input memory
// is an image built once per (kernel, scale) and attached by Init, so a
// warm Build pays for the program, the reference's data and the attached
// memory's page table, not for input pages (mcf cost 4,323,021 B and
// 1,118 allocations while Init stored every input element into fresh
// pages), and the builder carves each block's consumer, target and
// decode lists from one slice apiece.  A kernel that copies its inputs
// into an image, an Init that writes pages again, or a Check that
// allocates, fails here before it shows in the benchmark's
// alloc_kb_per_block.
func TestKernelBuildBudget(t *testing.T) {
	var rows []budget.Row
	for _, c := range []struct {
		name          string
		bytes, allocs float64
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
		regs := new([isa.NumRegs]uint64) // a register file lives in its Proc or Machine
		run := func(tb testing.TB) budget.Work {
			inst, err := k.Build(32)
			if err != nil {
				tb.Fatal(err)
			}
			inst.Init(regs, exec.NewPageMem())
			if err := inst.Check(&done.Regs, done.Mem.(*exec.PageMem)); err != nil {
				tb.Fatal(err)
			}
			return budget.Work{}
		}
		rows = append(rows,
			budget.Row{Name: c.name + "/bytes", Quantity: budget.Bytes, Layer: budget.MemoryPath, Run: run, Value: c.bytes, Bound: 1.02 * c.bytes},
			budget.Row{Name: c.name + "/allocs", Quantity: budget.Allocs, Layer: budget.MemoryPath, Run: run, Value: c.allocs, Bound: c.allocs})
	}
	budget.Check(t, rows)
}
