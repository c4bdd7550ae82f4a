package kernels

import (
	"fmt"
	"testing"

	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/isa"
)

// TestCheckCanFail shows that every kernel's Check compares what its
// image lists: it passes after a functional run, fails on the state Init
// leaves, and fails when any one expected register, or any one of up to
// 64 evenly spaced elements of each expected memory span, has its low bit
// flipped.
func TestCheckCanFail(t *testing.T) {
	for _, k := range append(All(), Extras()...) {
		t.Run(k.Name, func(t *testing.T) {
			inst, err := k.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			var regs [isa.NumRegs]uint64
			initial := exec.NewPageMem()
			inst.Init(&regs, initial)
			if inst.Check(&regs, initial) == nil {
				t.Fatal("Check passes on the state Init leaves")
			}

			m := exec.NewMachine(inst.Prog)
			mem := m.Mem.(*exec.PageMem)
			inst.Init(&m.Regs, mem)
			if _, err := m.Run(20_000_000); err != nil {
				t.Fatal(err)
			}
			if err := inst.Check(&m.Regs, mem); err != nil {
				t.Fatal(err)
			}
			failsWith := func(what string, flip func()) {
				t.Helper()
				flip()
				if inst.Check(&m.Regs, mem) == nil {
					t.Errorf("Check passes with %s flipped", what)
				}
				flip()
			}
			for _, c := range inst.image {
				switch {
				case !c.expected:
				case c.elem == elemReg:
					failsWith(fmt.Sprintf("r%d", c.reg), func() { m.Regs[c.reg] ^= 1 })
				default:
					n := c.len()
					for j := 0; j < n; j += (n + 63) / 64 {
						_, size := c.at(j)
						addr := c.addr(j)
						failsWith(fmt.Sprintf("element %d @%#x", j, addr), func() {
							mem.Store(addr, size, mem.Load(addr, size, false)^1)
						})
					}
				}
			}
			if err := inst.Check(&m.Regs, mem); err != nil {
				t.Fatalf("the flips were not undone: %v", err)
			}
		})
	}
}
