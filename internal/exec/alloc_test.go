package exec_test

import (
	"fmt"
	"testing"

	"github.com/clp-sim/tflex/internal/budget"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/kernels"
)

// TestFunctionalAllocsPerBlock is the functional executor's allocation
// ratchet, the counterpart of sim.TestSteadyStateAllocsPerBlock: a block's
// dataflow state lives on the Machine and is reset from prog.Linked, so
// executing one more block allocates nothing.  Each kernel runs whole on
// a fresh machine at scales 2 and 16; the difference in allocations over
// the difference in blocks is the marginal cost of a block.  Traced, the
// trace's Entries and Blocks grow by doubling, which amortizes to a few
// thousandths.
func TestFunctionalAllocsPerBlock(t *testing.T) {
	row := func(kernel string, traced bool, value, bound float64) budget.Row {
		return budget.Row{Name: fmt.Sprintf("%s/traced=%v", kernel, traced), Quantity: budget.AllocsPerBlock, Layer: budget.FunctionalExecutor,
			Base: functionalRun(t, kernel, 2, traced), Run: functionalRun(t, kernel, 16, traced), Value: value, Bound: bound}
	}
	budget.Check(t, []budget.Row{row("mcf", false, 0, 0.05), row("mcf", true, 0.0028, 0.1), row("bzip2", false, 0, 0.05), row("bzip2", true, 0.0023, 0.1),
		row("gcc", false, 0, 0.05), row("gcc", true, 0.0046, 0.1)})
}

// functionalRun builds the kernel at scale and returns one complete
// functional run of it — new machine, input set-up, run to halt, Check —
// which reports the blocks it executed.
func functionalRun(t *testing.T, kernel string, scale int, traced bool) func(testing.TB) budget.Work {
	k, ok := kernels.ByName(kernel)
	if !ok {
		t.Fatalf("no kernel %q", kernel)
	}
	inst, err := k.Build(scale)
	if err != nil {
		t.Fatal(err)
	}
	return func(tb testing.TB) budget.Work {
		m := exec.NewMachine(inst.Prog)
		if traced {
			m.Trace = &exec.Trace{}
		}
		inst.Init(&m.Regs, m.Mem.(*exec.PageMem))
		st, err := m.Run(50_000_000)
		if err != nil {
			tb.Fatal(err)
		}
		if err := inst.Check(&m.Regs, m.Mem.(*exec.PageMem)); err != nil {
			tb.Fatal(err)
		}
		return budget.Work{Blocks: st.Blocks}
	}
}
