package exec

import (
	"slices"
	"testing"

	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// isolationProgram builds a wide block — over 100 instructions, stores at
// LSIDs 0..27, eight write slots — and a short one whose predicate on r1
// squashes one of two paths, each with its own write and store.
func isolationProgram(t *testing.T) (wide, short *prog.Linked) {
	t.Helper()
	b := prog.NewBuilder()
	w := b.Block("wide")
	base, v := w.Read(2), w.Read(3)
	for i := 0; i < 28; i++ {
		v = w.AddI(w.MulI(v, 3), int64(i))
		w.Store(base, v, int64(8*i), 8)
		if i%4 == 0 {
			w.Write(10+i/4, v)
		}
	}
	w.Write(9, w.Load(base, 0, 8, false))
	w.Branch("short")

	s := b.Block("short")
	x, addr := s.Read(1), s.Read(2)
	p := s.OpI(isa.OpLt, x, 10)
	s.When(p).Write(4, s.When(p).AddI(x, 100))
	s.Unless(p).Write(4, s.Unless(p).MulI(x, 2))
	s.When(p).Store(addr, x, 0, 8)
	s.Unless(p).Store(addr, x, 8, 4)
	s.Write(5, s.Load(addr, 16, 8, false))
	s.Halt()

	pr, err := b.Program("wide")
	if err != nil {
		t.Fatal(err)
	}
	for i := range pr.Blocks {
		switch lk := pr.Linked(i); lk.Block.Name {
		case "wide":
			wide = lk
		case "short":
			short = lk
		}
	}
	if n := len(wide.Live); n <= 100 {
		t.Fatalf("wide block has %d live instructions, want > 100", n)
	}
	return wide, short
}

// blockOutcome is one block's outputs, copied out of the reused state.
type blockOutcome struct {
	writes []RegWrite
	stores []StoreOp
	branch BranchOut
	fired  int
	trace  []TraceEntry
}

// runTraced executes lk on r with a fresh memory, trace and register
// producer map.
func runTraced(t *testing.T, r *blockRun, lk *prog.Linked, regs [isa.NumRegs]uint64) blockOutcome {
	t.Helper()
	tr := &Trace{}
	var regSrc [isa.NumRegs]int32
	for i := range regSrc {
		regSrc[i] = -1
	}
	r.mem, r.trace, r.regSrc = NewPageMem(), tr, &regSrc
	res, err := r.runBlock(lk, &regs)
	if err != nil {
		t.Fatal(err)
	}
	return blockOutcome{
		writes: slices.Clone(res.Writes),
		stores: slices.Clone(res.Stores),
		branch: res.Branch,
		fired:  res.Fired,
		trace:  tr.Entries,
	}
}

// TestBlockStateIsolation holds the reuse invariant of the Machine's block
// state: after a wide block has fired write slots and resolved high LSIDs,
// a short block produces exactly what it produces on a fresh machine, on
// either predicated path.
func TestBlockStateIsolation(t *testing.T) {
	wide, short := isolationProgram(t)
	for _, x := range []uint64{3, 30} {
		var regs [isa.NumRegs]uint64
		regs[1], regs[2], regs[3] = x, 0x4000, 7

		var used, fresh blockRun
		runTraced(t, &used, wide, regs)
		got := runTraced(t, &used, short, regs)
		want := runTraced(t, &fresh, short, regs)

		if !slices.Equal(got.writes, want.writes) || !slices.Equal(got.stores, want.stores) ||
			got.branch != want.branch || got.fired != want.fired || !slices.Equal(got.trace, want.trace) {
			t.Errorf("x=%d: short block after the wide one\n got %+v\nwant %+v", x, got, want)
		}
		if len(want.writes) != 2 || len(want.stores) != 1 {
			t.Errorf("x=%d: %d writes and %d stores, want 2 and 1", x, len(want.writes), len(want.stores))
		}
	}
}

// TestTraceStopsAtTruncation: once a block is dropped for exceeding the
// limit, no later block is traced, even one small enough to fit.
func TestTraceStopsAtTruncation(t *testing.T) {
	p := sumProgram(t)
	run := func(tr *Trace) {
		m := NewMachine(p)
		m.Regs[1] = 5
		m.Trace = tr
		if _, err := m.Run(100); err != nil {
			t.Fatal(err)
		}
	}
	full := &Trace{}
	run(full)
	// The loop's blocks are alike and the final halt block is one entry:
	// a limit one short of the third loop block drops it, and the halt
	// block would fit.
	const k = 2
	size := full.Blocks[k+1] - full.Blocks[k]
	if halt := len(full.Entries) - full.Blocks[len(full.Blocks)-1]; halt >= size {
		t.Fatalf("halt block has %d entries, loop block %d: no smaller block to test with", halt, size)
	}
	tr := &Trace{Limit: full.Blocks[k] + size - 1}
	run(tr)
	if !tr.Truncated {
		t.Fatal("trace not marked truncated")
	}
	if !slices.Equal(tr.Blocks, full.Blocks[:k]) || !slices.Equal(tr.Entries, full.Entries[:full.Blocks[k]]) {
		t.Errorf("truncated trace has %d blocks and %d entries, want the first %d blocks (%d entries)",
			len(tr.Blocks), len(tr.Entries), k, full.Blocks[k])
	}
}
