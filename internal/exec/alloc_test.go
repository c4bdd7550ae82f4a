package exec_test

import (
	"fmt"
	"testing"

	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/kernels"
)

// TestFunctionalAllocsPerBlock is the functional executor's allocation
// ratchet, the counterpart of sim.TestSteadyStateAllocsPerBlock: a block's
// dataflow state lives on the Machine and is reset from prog.Linked, so
// executing one more block allocates nothing.  Each kernel runs whole on a
// fresh machine at two scales; the difference in allocations over the
// difference in blocks is the marginal cost of a block.  Traced, the
// trace's Entries and Blocks grow by doubling, which amortizes to a few
// thousandths.
func TestFunctionalAllocsPerBlock(t *testing.T) {
	const small, large = 2, 16
	for _, name := range []string{"mcf", "bzip2", "gcc"} {
		k, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				allocsS, blocksS := functionalRunAllocs(t, k, small, traced)
				allocsL, blocksL := functionalRunAllocs(t, k, large, traced)
				if blocksL <= blocksS {
					t.Fatalf("scale %d runs %d blocks, scale %d runs %d: no marginal block to measure", large, blocksL, small, blocksS)
				}
				perBlock := (allocsL - allocsS) / float64(blocksL-blocksS)
				t.Logf("%.0f allocs / %d blocks at scale %d, %.0f / %d at scale %d: %.4f allocs per marginal block",
					allocsS, blocksS, small, allocsL, blocksL, large, perBlock)
				limit := 0.05
				if traced {
					limit = 0.1
				}
				if perBlock > limit {
					t.Errorf("%.4f allocations per marginal block, want <= %g", perBlock, limit)
				}
			})
		}
	}
}

// functionalRunAllocs builds the kernel once, then measures one complete
// functional run — new machine, input set-up, run to halt — and returns
// its allocations and the blocks it executed.
func functionalRunAllocs(t *testing.T, k kernels.Kernel, scale int, traced bool) (allocs float64, blocks uint64) {
	inst, err := k.Build(scale)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(1, func() {
		m := exec.NewMachine(inst.Prog)
		if traced {
			m.Trace = &exec.Trace{}
		}
		inst.Init(&m.Regs, m.Mem.(*exec.PageMem))
		st, err := m.Run(50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Check(&m.Regs, m.Mem.(*exec.PageMem)); err != nil {
			t.Fatal(err)
		}
		blocks = st.Blocks
	})
	return allocs, blocks
}
