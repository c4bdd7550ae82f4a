package sim

import (
	"reflect"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// run executes a program on an n-core TFlex composition and returns the
// finished processor.
func run(t *testing.T, p *prog.Program, n int, setup func(*Proc)) *Proc {
	t.Helper()
	chip := New(DefaultOptions())
	proc, err := chip.AddProc(compose.MustRect(0, 0, n), p)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(proc)
	}
	if err := chip.Run(50_000_000); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	return proc
}

// expect runs the functional machine with the same setup for comparison.
func expect(t *testing.T, p *prog.Program, setup func(regs *[isa.NumRegs]uint64, m *exec.PageMem)) *exec.Machine {
	t.Helper()
	m := exec.NewMachine(p)
	if setup != nil {
		setup(&m.Regs, m.Mem.(*exec.PageMem))
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

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

func TestSimSumLoopAllCompositions(t *testing.T) {
	p := sumProgram(t)
	want := expect(t, p, func(r *[isa.NumRegs]uint64, _ *exec.PageMem) { r[1] = 50 })
	for _, n := range compose.Sizes() {
		proc := run(t, p, n, func(pr *Proc) { pr.Regs[1] = 50 })
		if proc.Regs[3] != want.Regs[3] {
			t.Fatalf("n=%d: r3=%d want %d", n, proc.Regs[3], want.Regs[3])
		}
		if proc.Stats.BlocksCommitted != 51 {
			t.Fatalf("n=%d: blocks=%d", n, proc.Stats.BlocksCommitted)
		}
		if proc.Stats.Cycles == 0 {
			t.Fatalf("n=%d: no cycles recorded", n)
		}
	}
}

// memProgram stores i*i into arr[i] then sums it back.
func memProgram(t testing.TB) *prog.Program {
	b := prog.NewBuilder()
	fill := b.Block("fill")
	i := fill.Read(2)
	base := fill.Read(1)
	n := fill.Read(4)
	addr := fill.Add(base, fill.ShlI(i, 3))
	fill.Store(addr, fill.Mul(i, i), 0, 8)
	i2 := fill.AddI(i, 1)
	fill.Write(2, i2)
	fill.BranchIf(fill.Op(isa.OpLt, i2, n), "fill", "sumInit")

	si := b.Block("sumInit")
	si.Write(2, si.Const(0))
	si.Write(3, si.Const(0))
	si.Branch("sum")

	sum := b.Block("sum")
	j := sum.Read(2)
	acc := sum.Read(3)
	sbase := sum.Read(1)
	sn := sum.Read(4)
	saddr := sum.Add(sbase, sum.ShlI(j, 3))
	v := sum.Load(saddr, 0, 8, false)
	sum.Write(3, sum.Add(acc, v))
	j2 := sum.AddI(j, 1)
	sum.Write(2, j2)
	sum.BranchIf(sum.Op(isa.OpLt, j2, sn), "sum", "done")
	b.Block("done").Halt()

	pr, err := b.Program("fill")
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestSimMemoryProgramAllCompositions(t *testing.T) {
	p := memProgram(t)
	setupRegs := func(r *[isa.NumRegs]uint64, _ *exec.PageMem) {
		r[1] = 0x100000
		r[4] = 40
	}
	want := expect(t, p, setupRegs)
	for _, n := range compose.Sizes() {
		proc := run(t, p, n, func(pr *Proc) {
			pr.Regs[1] = 0x100000
			pr.Regs[4] = 40
		})
		if proc.Regs[3] != want.Regs[3] {
			t.Fatalf("n=%d: sum=%d want %d", n, proc.Regs[3], want.Regs[3])
		}
		// Memory must be bit-identical.
		for i := uint64(0); i < 40; i++ {
			w := want.Mem.(*exec.PageMem).Read64(0x100000 + 8*i)
			g := proc.Mem.Read64(0x100000 + 8*i)
			if w != g {
				t.Fatalf("n=%d: mem[%d]=%d want %d", n, i, g, w)
			}
		}
		if proc.Stats.Loads == 0 || proc.Stats.Stores == 0 {
			t.Fatalf("n=%d: loads/stores not counted", n)
		}
	}
}

// branchyProgram has a data-dependent branch pattern (hard to predict).
func branchyProgram(t testing.TB) *prog.Program {
	b := prog.NewBuilder()
	bb := b.Block("loop")
	x := bb.Read(1)
	i := bb.Read(2)
	acc := bb.Read(3)
	n := bb.Read(4)
	// x = x*1103515245 + 12345 (LCG); branch on bit 8.
	x2 := bb.AddI(bb.MulI(x, 1103515245), 12345)
	bb.Write(1, x2)
	bit := bb.AndI(bb.ShrI(x2, 8), 1)
	i2 := bb.AddI(bb.Mov(i), 1)
	bb.Write(2, i2)
	done := bb.Op(isa.OpLe, bb.Read(4), i2)
	_ = n
	bb.Write(5, done)
	bb.BranchIf(bit, "odd", "even")

	odd := b.Block("odd")
	odd.Write(3, odd.AddI(odd.Read(3), 3))
	odd.BranchIf(odd.Read(5), "done", "loop")

	even := b.Block("even")
	even.Write(3, even.AddI(even.Read(3), 7))
	even.BranchIf(even.Read(5), "done", "loop")

	b.Block("done").Halt()
	_ = acc
	pr, err := b.Program("loop")
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestSimBranchyProgramMatchesFunctional(t *testing.T) {
	p := branchyProgram(t)
	setup := func(r *[isa.NumRegs]uint64, _ *exec.PageMem) {
		r[1] = 12345
		r[4] = 200
	}
	want := expect(t, p, setup)
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		proc := run(t, p, n, func(pr *Proc) {
			pr.Regs[1] = 12345
			pr.Regs[4] = 200
		})
		if proc.Regs[3] != want.Regs[3] {
			t.Fatalf("n=%d: acc=%d want %d", n, proc.Regs[3], want.Regs[3])
		}
		if n > 1 && proc.Stats.BranchFlushes == 0 {
			t.Errorf("n=%d: expected some branch mispredictions on an LCG pattern", n)
		}
	}
}

func callProgram(t testing.TB) *prog.Program {
	b := prog.NewBuilder()
	loop := b.Block("loop")
	i := loop.Read(2)
	loop.Write(10, loop.Mov(i)) // arg
	loop.Write(1, loop.LabelAddr("ret1"))
	loop.Call("square")

	fn := b.Block("square")
	a := fn.Read(10)
	fn.Write(11, fn.Mul(a, a))
	fn.Ret(fn.Read(1))

	ret1 := b.Block("ret1")
	acc := ret1.Read(3)
	ret1.Write(3, ret1.Add(acc, ret1.Read(11)))
	i2 := ret1.AddI(ret1.Read(2), 1)
	ret1.Write(2, i2)
	ret1.BranchIf(ret1.Op(isa.OpLt, i2, ret1.Read(4)), "loop", "done")
	b.Block("done").Halt()
	pr, err := b.Program("loop")
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestSimCallReturnAllCompositions(t *testing.T) {
	p := callProgram(t)
	setup := func(r *[isa.NumRegs]uint64, _ *exec.PageMem) { r[4] = 30 }
	want := expect(t, p, setup)
	for _, n := range []int{1, 2, 8, 32} {
		proc := run(t, p, n, func(pr *Proc) { pr.Regs[4] = 30 })
		if proc.Regs[3] != want.Regs[3] {
			t.Fatalf("n=%d: acc=%d want %d", n, proc.Regs[3], want.Regs[3])
		}
		if n > 1 && proc.Pred.Stats.RASPops == 0 {
			t.Errorf("n=%d: RAS never used for returns", n)
		}
	}
}

// violationProgram: block A stores to an address, block B (next) loads it
// through a long dependence chain on the store data so that the load can
// issue before the store, exercising violation detection.
func violationProgram(t testing.TB) *prog.Program {
	b := prog.NewBuilder()
	wr := b.Block("writer")
	base := wr.Read(1)
	v := wr.Read(2)
	// Slow down the store's value with a dependence chain.
	slow := v
	for k := 0; k < 12; k++ {
		slow = wr.MulI(slow, 3)
	}
	wr.Store(base, slow, 0, 8)
	wr.Branch("reader")

	rd := b.Block("reader")
	rbase := rd.Read(1)
	got := rd.Load(rbase, 0, 8, false)
	rd.Write(3, got)
	rd.Halt()

	pr, err := b.Program("writer")
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestSimDependenceViolationRecovers(t *testing.T) {
	p := violationProgram(t)
	setup := func(r *[isa.NumRegs]uint64, _ *exec.PageMem) {
		r[1] = 0x200000
		r[2] = 5
	}
	want := expect(t, p, setup)
	for _, n := range []int{2, 8, 32} {
		proc := run(t, p, n, func(pr *Proc) {
			pr.Regs[1] = 0x200000
			pr.Regs[2] = 5
		})
		if proc.Regs[3] != want.Regs[3] {
			t.Fatalf("n=%d: got %d want %d (load did not see older store)",
				n, proc.Regs[3], want.Regs[3])
		}
	}
}

func TestSimPredicatedStoreAllCompositions(t *testing.T) {
	b := prog.NewBuilder()
	bb := b.Block("m")
	i := bb.Read(2)
	base := bb.Read(1)
	// Store only even i.
	even := bb.OpI(isa.OpEq, bb.AndI(i, 1), 0)
	addr := bb.Add(base, bb.ShlI(i, 3))
	bb.When(even).Store(addr, i, 0, 8)
	i2 := bb.AddI(i, 1)
	bb.Write(2, i2)
	bb.BranchIf(bb.OpI(isa.OpLt, i2, 20), "m", "done")
	b.Block("done").Halt()
	p, err := b.Program("m")
	if err != nil {
		t.Fatal(err)
	}
	setup := func(r *[isa.NumRegs]uint64, m *exec.PageMem) {
		r[1] = 0x300000
		for k := uint64(0); k < 20; k++ {
			m.Write64(0x300000+8*k, 999)
		}
	}
	want := expect(t, p, setup)
	for _, n := range []int{1, 4, 16} {
		proc := run(t, p, n, func(pr *Proc) {
			pr.Regs[1] = 0x300000
			for k := uint64(0); k < 20; k++ {
				pr.Mem.Write64(0x300000+8*k, 999)
			}
		})
		for k := uint64(0); k < 20; k++ {
			w := want.Mem.(*exec.PageMem).Read64(0x300000 + 8*k)
			g := proc.Mem.Read64(0x300000 + 8*k)
			if w != g {
				t.Fatalf("n=%d: mem[%d]=%d want %d", n, k, g, w)
			}
		}
	}
}

func TestSimMoreCoresFasterOnParallelCode(t *testing.T) {
	// A wide-ILP kernel: many independent multiply chains per block.
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
	p, err := b.Program("loop")
	if err != nil {
		t.Fatal(err)
	}
	c1 := run(t, p, 1, nil).Stats.Cycles
	c8 := run(t, p, 8, nil).Stats.Cycles
	if c8 >= c1 {
		t.Fatalf("8 cores (%d cycles) not faster than 1 core (%d cycles)", c8, c1)
	}
}

func TestSimZeroHandshakeNotSlower(t *testing.T) {
	p := sumProgram(t)
	runOpt := func(zero bool) uint64 {
		opts := DefaultOptions()
		opts.ZeroHandshake = zero
		chip := New(opts)
		proc, err := chip.AddProc(compose.MustRect(0, 0, 16), p)
		if err != nil {
			t.Fatal(err)
		}
		proc.Regs[1] = 100
		if err := chip.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		return proc.Stats.Cycles
	}
	normal := runOpt(false)
	zero := runOpt(true)
	if zero > normal {
		t.Fatalf("zero-handshake (%d) slower than normal (%d)", zero, normal)
	}
	if zero == normal {
		t.Log("handshake-free run identical; acceptable but unexpected")
	}
}

func TestSimFetchCommitLatencyStats(t *testing.T) {
	p := sumProgram(t)
	proc := run(t, p, 16, func(pr *Proc) { pr.Regs[1] = 100 })
	constant, _, bcast, dispatch, _ := proc.Stats.FetchLatency()
	if constant != 7 {
		t.Fatalf("constant fetch latency %v, want 7 (predict 3 + tag 1 + init 3)", constant)
	}
	if bcast <= 0 {
		t.Fatalf("16-core fetch distribution should cost cycles, got %v", bcast)
	}
	if dispatch < 0 {
		t.Fatalf("dispatch latency %v", dispatch)
	}
	arch, handshake := proc.Stats.CommitLatency()
	if handshake <= 0 {
		t.Fatalf("16-core commit handshake should cost cycles, got %v", handshake)
	}
	if arch < 0 {
		t.Fatal("negative arch update latency")
	}

	// Single core: no prediction, so the constant part is 4.
	proc1 := run(t, p, 1, func(pr *Proc) { pr.Regs[1] = 100 })
	c1, h1, b1, d1, _ := proc1.Stats.FetchLatency()
	if c1 != 4 {
		t.Fatalf("1-core constant fetch latency %v, want 4", c1)
	}
	if h1 != 0 || b1 != 0 {
		t.Fatalf("1-core hand-off/broadcast should be free: %v %v", h1, b1)
	}
	if d1 <= dispatch {
		t.Fatalf("1-core dispatch (%v) should exceed 16-core dispatch (%v)", d1, dispatch)
	}
}

func TestSimDualIssueLimitsThroughput(t *testing.T) {
	// 1 core, a block of ~31 independent adds: at 2-wide issue the block
	// needs at least ~16 cycles of issue time.
	b := prog.NewBuilder()
	bb := b.Block("m")
	x := bb.Read(1)
	for k := 0; k < 30; k++ {
		bb.Write(10+k, bb.AddI(x, int64(k)))
	}
	bb.Halt()
	p, err := b.Program("m")
	if err != nil {
		t.Fatal(err)
	}
	proc := run(t, p, 1, nil)
	if proc.Stats.Cycles < 15 {
		t.Fatalf("%d cycles too fast for 30 insts at dual issue", proc.Stats.Cycles)
	}
}

func TestSimMultiProgrammedProcs(t *testing.T) {
	p := sumProgram(t)
	chip := New(DefaultOptions())
	procs := make([]*Proc, 4)
	parts, err := compose.Partition(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range procs {
		procs[i], err = chip.AddProc(parts[i], p)
		if err != nil {
			t.Fatal(err)
		}
		procs[i].Regs[1] = uint64(20 * (i + 1))
	}
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	for i, pr := range procs {
		n := uint64(20 * (i + 1))
		want := n * (n - 1) / 2
		if pr.Regs[3] != want {
			t.Fatalf("proc %d: sum=%d want %d", i, pr.Regs[3], want)
		}
	}
}

func TestSimRejectsOverlappingProcs(t *testing.T) {
	chip := New(DefaultOptions())
	p := sumProgram(t)
	if _, err := chip.AddProc(compose.MustRect(0, 0, 8), p); err != nil {
		t.Fatal(err)
	}
	if _, err := chip.AddProc(compose.MustRect(0, 0, 8), p); err == nil {
		t.Fatal("overlapping core sets should be rejected")
	}
}

// TestAddProcSharedRejectsBusyCores: recomposition resumes a finished
// processor on free cores; a running (or missing) predecessor and cores
// a running processor holds are errors, not two processors on one core.
func TestAddProcSharedRejectsBusyCores(t *testing.T) {
	chip := New(DefaultOptions())
	p := sumProgram(t)
	running, err := chip.AddProc(compose.MustRect(0, 0, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	running.Regs[1] = 50
	if _, err := chip.AddProcShared(compose.MustRect(0, 0, 2), p, running); err == nil {
		t.Error("recomposing onto the cores of a still-running processor should be rejected")
	}
	if _, err := chip.AddProcShared(compose.MustRect(2, 0, 2), p, running); err == nil {
		t.Error("resuming from a processor that has not halted should be rejected")
	}
	if _, err := chip.AddProcShared(compose.MustRect(2, 0, 2), p, nil); err == nil {
		t.Error("resuming from a nil processor should be rejected")
	}
	if err := chip.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	other, err := chip.AddProc(compose.MustRect(2, 0, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	other.Regs[1] = 50
	if _, err := chip.AddProcShared(compose.MustRect(2, 0, 2), p, running); err == nil {
		t.Error("recomposing onto the cores another running processor holds should be rejected")
	}
	if _, err := chip.AddProcShared(compose.MustRect(0, 0, 2), p, running); err != nil {
		t.Errorf("recomposing a halted processor onto its own freed cores: %v", err)
	}
}

// TestAddProcSharedResumesOnce: a halted thread is resumed at most once,
// and only from a processor of the same chip; either mistake is a sim:
// error that composes nothing.  Two successors of one processor would
// share its ID and memory, and one of them would vanish from the
// metrics.  A successor can be resumed in turn: the chain
// first -> second -> third sums as one run does.
func TestAddProcSharedResumesOnce(t *testing.T) {
	p := sumProgram(t)
	want := run(t, p, 2, func(pr *Proc) { pr.Regs[1] = 300 }).Regs[3]
	foreign := run(t, p, 2, func(pr *Proc) { pr.Regs[1] = 50 })

	chip := New(DefaultOptions())
	first, err := chip.AddProc(compose.MustRect(0, 0, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	first.Regs[1] = 100
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	// Each rejection names cores of its own, so none fails only because
	// the composition an earlier one wrongly allowed holds its cores.
	rejected := func(from *Proc, cores []int, why string) {
		t.Helper()
		n := len(chip.Procs)
		if _, err := chip.AddProcShared(compose.Processor{Cores: cores}, p, from); err == nil || !strings.HasPrefix(err.Error(), "sim: ") {
			t.Errorf("resuming %s: AddProcShared returned %v, want a sim: error", why, err)
		}
		if len(chip.Procs) != n {
			t.Errorf("resuming %s composed a processor", why)
		}
	}
	rejected(foreign, []int{8, 9}, "a processor of another chip")
	second, err := chip.AddProcShared(compose.MustRect(2, 0, 2), p, first)
	if err != nil {
		t.Fatal(err)
	}
	second.Regs[1] = 200
	rejected(first, []int{12, 13}, "a thread already resumed")
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	third, err := chip.AddProcShared(compose.MustRect(0, 0, 2), p, second)
	if err != nil {
		t.Fatalf("resuming the successor: %v", err)
	}
	third.Regs[1] = 300
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	rejected(first, []int{16, 17}, "a thread already resumed, after its successor halted")
	if third.Regs[3] != want {
		t.Errorf("three legs summed %d, one run %d", third.Regs[3], want)
	}
}

func TestSimICacheMissesOnLargePrograms(t *testing.T) {
	// A program with more blocks than a 1-core I-cache holds (8 blocks).
	b := prog.NewBuilder()
	const nBlocks = 24
	for i := 0; i < nBlocks; i++ {
		bb := b.Block(blockName(i))
		x := bb.Read(1)
		bb.Write(1, bb.AddI(x, int64(i)))
		if i == nBlocks-1 {
			cnt := bb.AddI(bb.Read(2), 1)
			bb.Write(2, cnt)
			bb.BranchIf(bb.OpI(isa.OpLt, cnt, 4), blockName(0), "fin")
		} else {
			bb.Branch(blockName(i + 1))
		}
	}
	b.Block("fin").Halt()
	p, err := b.Program(blockName(0))
	if err != nil {
		t.Fatal(err)
	}
	proc := run(t, p, 1, nil)
	if proc.Stats.ICacheMisses == 0 {
		t.Fatal("expected I-cache misses with 24 blocks in an 8-block cache")
	}
	// A 32-core composition holds 256 blocks: only cold misses.
	proc32 := run(t, p, 32, nil)
	if proc32.Stats.ICacheMisses > nBlocks+1 { // +1: the fin block
		t.Fatalf("32-core composition should only miss cold: %d misses", proc32.Stats.ICacheMisses)
	}
}

func blockName(i int) string { return "b" + string(rune('A'+i/10)) + string(rune('0'+i%10)) }

// TestSimRecompositionFindsOldL1Lines: a store-heavy thread runs on
// cores {0,1}, halts, and resumes (recomposes) on cores {2,3}: the
// directory must forward/invalidate the dirty lines without an explicit
// L1 flush.  Both engines run the two legs, and each leg's Stats,
// registers, memory digest and the directory's forward and invalidation
// counts must be the same on both.
func TestSimRecompositionFindsOldL1Lines(t *testing.T) {
	type leg struct {
		Stats            Stats
		Regs             [isa.NumRegs]uint64
		Digest           uint64
		Forwards, Invals uint64
	}
	recompose := func(reference bool) [2]leg {
		p := memProgram(t)
		opts := DefaultOptions()
		opts.Reference = reference
		chip := New(opts)
		finish := func(pr *Proc) leg {
			if err := chip.Run(10_000_000); err != nil {
				t.Fatal(err)
			}
			return leg{pr.Stats, pr.Regs, pr.Mem.Digest(), chip.L2.Stats.Forwards, chip.L2.Stats.Invals}
		}
		pr1, err := chip.AddProc(compose.Processor{Cores: []int{0, 1}}, p)
		if err != nil {
			t.Fatal(err)
		}
		pr1.Regs[1] = 0x100000
		pr1.Regs[4] = 64
		first := finish(pr1)
		pr2, err := chip.AddProcShared(compose.Processor{Cores: []int{2, 3}}, p, pr1)
		if err != nil {
			t.Fatal(err)
		}
		pr2.Regs[2] = 0
		pr2.Regs[3] = 0
		second := finish(pr2)
		if second.Regs[3] != first.Regs[3] {
			t.Fatalf("reference %t: recomposed run sum %d != original %d", reference, second.Regs[3], first.Regs[3])
		}
		if second.Forwards+second.Invals <= first.Forwards+first.Invals {
			t.Fatalf("reference %t: recomposition should trigger directory forwards/invalidations", reference)
		}
		return [2]leg{first, second}
	}
	opt, ref := recompose(false), recompose(true)
	for i := range opt {
		if !reflect.DeepEqual(opt[i], ref[i]) {
			t.Errorf("leg %d differs between the engines:\noptimized %+v\nreference %+v", i+1, opt[i], ref[i])
		}
	}
}

// TestRecomposedCyclesCountFromLaunch: a processor composed after a Run
// counts its cycles from its launch, not from cycle 0, so its IPC is its
// own leg's.  The launch and halt cycles are read off the flight ring:
// the second KCompose record and the last KCommit.
func TestRecomposedCyclesCountFromLaunch(t *testing.T) {
	p := sumProgram(t)
	chip := New(DefaultOptions())
	chip.EnableFlight(flight.DefaultEvents)
	first, err := chip.AddProc(compose.MustRect(0, 0, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	first.Regs[1] = 100
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	firstHalt := chip.Now()
	second, err := chip.AddProcShared(compose.MustRect(2, 0, 2), p, first)
	if err != nil {
		t.Fatal(err)
	}
	second.Regs[1] = 300
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	dump := chip.FlightDump()
	composed, commits := dump.Records(flight.KCompose), dump.Records(flight.KCommit)
	if len(composed) != 2 || len(commits) == 0 {
		t.Fatalf("flight ring holds %d compose and %d commit records, want 2 and some", len(composed), len(commits))
	}
	launch, halt := composed[1].Cycle, commits[len(commits)-1].Cycle
	if first.Stats.Cycles != firstHalt || launch < firstHalt {
		t.Errorf("first leg: %d cycles, the run ended at %d and the second leg launched at %d", first.Stats.Cycles, firstHalt, launch)
	}
	if second.Stats.Cycles != halt-launch {
		t.Errorf("second leg: Stats.Cycles %d, want halt %d - launch %d = %d", second.Stats.Cycles, halt, launch, halt-launch)
	}
	if want := float64(second.Stats.InstsCommitted) / float64(halt-launch); second.Stats.IPC() != want {
		t.Errorf("second leg: IPC %v, want %v over its own leg", second.Stats.IPC(), want)
	}
}
