// Recompose: demonstrate §4.7 of the paper — when a thread's composition
// changes, the L1 D-caches are NOT flushed; the directory in the L2 tag
// arrays finds lines left under the old mapping and forwards or
// invalidates them on demand.
package main

import (
	"fmt"
	"log"

	"github.com/clp-sim/tflex"
)

func main() {
	// A store-then-sum workload with a working set that lives in the L1s.
	build := func(entry string) *tflex.Program {
		b := tflex.NewBuilder()
		fill := b.Block("fill")
		i := fill.Read(2)
		base := fill.Read(1)
		addr := fill.Add(base, fill.ShlI(i, 3))
		fill.Store(addr, fill.Mul(i, i), 0, 8)
		i2 := fill.AddI(i, 1)
		fill.Write(2, i2)
		fill.BranchIf(fill.OpI(tflex.OpLt, i2, 256), "fill", "reset")
		rs := b.Block("reset")
		rs.Write(2, rs.Const(0))
		rs.Write(3, rs.Const(0))
		rs.Branch("sum")
		sum := b.Block("sum")
		j := sum.Read(2)
		sbase := sum.Read(1)
		v := sum.Load(sum.Add(sbase, sum.ShlI(j, 3)), 0, 8, false)
		sum.Write(3, sum.Add(sum.Read(3), v))
		j2 := sum.AddI(j, 1)
		sum.Write(2, j2)
		sum.BranchIf(sum.OpI(tflex.OpLt, j2, 256), "sum", "done")
		b.Block("done").Halt()
		return b.MustProgram(entry)
	}

	chip := tflex.NewChip(tflex.DefaultOptions())

	// Phase 1: run the fill+sum on cores {0,1} — the data lands dirty in
	// those cores' L1 D-caches.
	left, _ := tflex.ComposeRect(0, 0, 2)
	p1, err := chip.AddProc(left, build("fill"))
	if err != nil {
		log.Fatal(err)
	}
	p1.Regs[1] = 0x100000
	if err := chip.Run(10_000_000); err != nil {
		log.Fatal(err)
	}
	fwd0 := chip.L2.Stats.Forwards
	inv0 := chip.L2.Stats.Invals
	fmt.Printf("phase 1 on cores {0,1}:  sum=%d  %d cycles\n", p1.Regs[3], p1.Stats.Cycles)

	// Phase 2: recompose — resume the same thread (same memory image) on
	// cores {2,3,6,7}.  The new banks miss; the directory locates the old
	// copies and forwards/invalidates them, with no explicit flush.
	right := tflex.Processor{Cores: []int{2, 3, 6, 7}}
	p2, err := chip.AddProcShared(right, build("reset"), p1)
	if err != nil {
		log.Fatal(err)
	}
	if err := chip.Run(20_000_000); err != nil {
		log.Fatal(err)
	}
	// A resumed processor counts cycles from its launch, so phase 2's
	// count is its own leg; the chip's clock has run both phases.
	fmt.Printf("phase 2 on cores {2,3,6,7}: sum=%d  %d cycles (chip clock %d)\n", p2.Regs[3], p2.Stats.Cycles, chip.Now())
	fmt.Printf("directory activity during recomposition: %d forwards, %d invalidations\n",
		chip.L2.Stats.Forwards-fwd0, chip.L2.Stats.Invals-inv0)
	if p1.Regs[3] == p2.Regs[3] {
		fmt.Println("results agree: the thread moved cores without any cache flush.")
	}
}
