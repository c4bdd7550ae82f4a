package trips

import (
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/sim"
)

func sumProgram(t testing.TB) *prog.Program {
	b := prog.NewBuilder()
	bb := b.Block("loop")
	i := bb.Read(2)
	acc := bb.Read(3)
	n := bb.Read(1)
	bb.Write(3, bb.Add(acc, i))
	i2 := bb.AddI(i, 1)
	bb.Write(2, i2)
	bb.BranchIf(bb.Op(isa.OpLt, i2, n), "loop", "done")
	b.Block("done").Halt()
	pr, err := b.Program("loop")
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestTRIPSRunsCorrectly(t *testing.T) {
	p := sumProgram(t)
	m := exec.NewMachine(p)
	m.Regs[1] = 100
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}

	chip := sim.New(Options())
	proc, err := chip.AddProc(Processor(), p)
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 100
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if proc.Regs[3] != m.Regs[3] {
		t.Fatalf("TRIPS result %d != functional %d", proc.Regs[3], m.Regs[3])
	}
	if proc.Stats.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestTRIPSOptionsShape(t *testing.T) {
	o := Options()
	if o.Params.IssueTotal != 1 {
		t.Error("TRIPS tiles are single-issue")
	}
	if o.Params.OperandBW != 2/2 {
		t.Error("TRIPS operand network is 1x")
	}
	if !o.CentralPredictor {
		t.Error("TRIPS predictor is centralized")
	}
	if o.Params.WindowEntries != 64 {
		t.Error("TRIPS window is 64 entries per tile (8 blocks total)")
	}
	if len(o.DBanks) != 4 || len(o.RegBanks) != 4 {
		t.Error("TRIPS has 4 D-tiles and 4 register tiles")
	}
	if Processor().N() != 16 {
		t.Error("TRIPS is a 16-tile array")
	}
}

func parProgram(t testing.TB) *prog.Program {
	b := prog.NewBuilder()
	bb := b.Block("loop")
	var acc prog.Ref
	for lane := 0; lane < 12; lane++ {
		x := bb.Read(10 + lane)
		y := bb.MulI(bb.AddI(bb.MulI(x, 7), 3), 5)
		bb.Write(10+lane, y)
		if lane == 0 {
			acc = y
		} else {
			acc = bb.Add(acc, y)
		}
	}
	bb.Write(3, acc)
	i2 := bb.AddI(bb.Read(2), 1)
	bb.Write(2, i2)
	bb.BranchIf(bb.OpI(isa.OpLt, i2, 300), "loop", "done")
	b.Block("done").Halt()
	return b.MustProgram("loop")
}

func TestTRIPSOverlapsBlocks(t *testing.T) {
	// With a 64-entry window per tile and 16 tiles, 8 blocks are in
	// flight, so on a kernel with ILP the TRIPS array overlaps
	// fetch/execute/commit across blocks and beats a single-core
	// (1-block, dual-issue) TFlex.
	p := parProgram(t)
	chip := sim.New(Options())
	proc, err := chip.AddProc(Processor(), p)
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 200
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}

	one := sim.New(sim.DefaultOptions())
	oneProc, err := one.AddProc(compose.MustRect(0, 0, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	oneProc.Regs[1] = 200
	if err := one.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if proc.Stats.Cycles >= oneProc.Stats.Cycles {
		t.Fatalf("TRIPS (%d cycles) should beat 1-core TFlex (%d cycles)",
			proc.Stats.Cycles, oneProc.Stats.Cycles)
	}
}
