package kernels

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/sim"
)

// programPrint hashes everything an executor reads of p: every block's
// fields and instructions (resolved TargetAddr and label-constant Imm
// included) and every block's linked form.
func programPrint(p *prog.Program) uint64 {
	h := fnv.New64a()
	for i, b := range p.Blocks {
		fmt.Fprintf(h, "%#v\n%#v\n", *b, *p.Linked(i))
	}
	return h.Sum64()
}

// initPrint hashes the architectural state Init produces on a fresh
// register file and memory.
func initPrint(inst *Instance) uint64 {
	var regs [isa.NumRegs]uint64
	m := exec.NewPageMem()
	inst.Init(&regs, m)
	h := fnv.New64a()
	fmt.Fprintf(h, "%v %d", regs, m.Digest())
	return h.Sum64()
}

// TestInstanceIsReadOnly is the precondition for building each kernel
// once and sharing it across jobs (the experiment suite does): running an
// Instance writes nothing it holds.  For every kernel, the program and
// its linked form are unchanged after a run on the functional executor,
// the optimized timing engine and the Reference engine, the input image
// every run of the kernel at that scale shares keeps its digest, and Init
// reproduces the same registers and memory image every time it runs.
func TestInstanceIsReadOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing runs are slow")
	}
	for _, k := range append(All(), Extras()...) {
		t.Run(k.Name, func(t *testing.T) {
			inst, err := k.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			wantProg, wantInit, wantImage := programPrint(inst.Prog), initPrint(inst), inst.mem.Digest()
			held := func(after string) {
				t.Helper()
				if programPrint(inst.Prog) != wantProg {
					t.Fatalf("the program changed after %s", after)
				}
				if inst.mem.Digest() != wantImage {
					t.Fatalf("the shared input image changed after %s", after)
				}
				if initPrint(inst) != wantInit {
					t.Fatalf("Init produced a different state after %s", after)
				}
			}

			m := exec.NewMachine(inst.Prog)
			inst.Init(&m.Regs, m.Mem.(*exec.PageMem))
			if _, err := m.Run(20_000_000); err != nil {
				t.Fatal(err)
			}
			if err := inst.Check(&m.Regs, m.Mem.(*exec.PageMem)); err != nil {
				t.Fatal(err)
			}
			held("the functional run")

			for _, reference := range []bool{false, true} {
				opts := sim.DefaultOptions()
				opts.Reference = reference
				chip := sim.New(opts)
				proc, err := chip.AddProc(compose.MustRect(0, 0, 4), inst.Prog)
				if err != nil {
					t.Fatal(err)
				}
				inst.Init(&proc.Regs, proc.Mem)
				if err := chip.Run(200_000_000); err != nil {
					t.Fatal(err)
				}
				if err := inst.Check(&proc.Regs, proc.Mem); err != nil {
					t.Fatal(err)
				}
				held(fmt.Sprintf("a timing run (Reference %v)", reference))
			}
		})
	}
}
