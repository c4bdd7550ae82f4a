package arch

import (
	"encoding/binary"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// eightExecutors is the differential fuzzer's line-up: the two functional
// paths and both engines on 1, 2 and 4 cores.
func eightExecutors() []Executor {
	execs := []Executor{Functional{}, ConvTrace{}}
	for _, c := range []int{1, 2, 4} {
		execs = append(execs, Sim{Cores: c}, Sim{Cores: c, Reference: true})
	}
	return execs
}

// TestMisalignedAccessFailsEveryExecutor pins the half of the Executor
// contract that is about failure: an architecturally misaligned load or
// store is an error on every executor, never a State.  (The functional
// executor used to perform the access and return ok.)
func TestMisalignedAccessFailsEveryExecutor(t *testing.T) {
	cases := []struct {
		name  string
		build func(bb *prog.BlockBuilder)
	}{
		{"load", func(bb *prog.BlockBuilder) { bb.Write(3, bb.Load(bb.Const(3), 0, 8, false)) }},
		{"store", func(bb *prog.BlockBuilder) { bb.Store(bb.Const(0x1002), bb.Const(7), 0, 4) }},
		{"load nobody reads", func(bb *prog.BlockBuilder) { bb.Load(bb.Const(0x1001), 0, 2, false) }},
	}
	for _, tc := range cases {
		b := prog.NewBuilder()
		bb := b.Block("e")
		tc.build(bb)
		bb.Halt()
		p, err := b.Program("e")
		if err != nil {
			t.Fatalf("%s: build: %v", tc.name, err)
		}
		for _, ex := range eightExecutors() {
			_, err := ex.Run(p, Input{})
			if err == nil || !strings.Contains(err.Error(), "misaligned") {
				t.Errorf("%s on %s: err = %v, want a misaligned-access error", tc.name, ex.Name(), err)
			}
			if _, timing := ex.(Sim); timing && err != nil && !strings.HasPrefix(err.Error(), "sim: ") {
				t.Errorf("%s on %s: error %q is not a sim: error", tc.name, ex.Name(), err)
			}
		}
	}
}

// wrongPathProgram walks a table of 200 entries; entry i holds a pointer
// when flag[i] is set and the misaligned value 3 when it is clear, and
// block deref dereferences it only when the flag is set.  The flags are
// pseudo-random and reach the branch through four divides, so a composed
// processor runs deref speculatively — down the wrong path about every
// other trip — long before head's branch resolves.
func wrongPathProgram(t *testing.T) (*prog.Program, Input) {
	t.Helper()
	b := prog.NewBuilder()
	head := b.Block("head")
	f := head.Load(head.Add(head.Read(5), head.ShlI(head.Read(2), 3)), 0, 8, false)
	for i := 0; i < 4; i++ {
		f = head.Op(isa.OpDiv, f, head.Const(1))
	}
	head.BranchIf(head.OpI(isa.OpNe, f, 0), "deref", "skip")

	deref := b.Block("deref")
	ptr := deref.Load(deref.Add(deref.Read(4), deref.ShlI(deref.Read(2), 3)), 0, 8, false)
	deref.Write(3, deref.Add(deref.Read(3), deref.Load(ptr, 0, 8, false)))
	deref.Branch("skip")

	skip := b.Block("skip")
	i2 := skip.AddI(skip.Read(2), 1)
	skip.Write(2, i2)
	skip.BranchIf(skip.Op(isa.OpLt, i2, skip.Read(1)), "head", "done")
	b.Block("done").Halt()
	p, err := b.Program("head")
	if err != nil {
		t.Fatalf("build: %v", err)
	}

	const n, ptrs, vals, flags = 200, 0x100000, 0x200000, 0x300000
	var in Input
	in.Regs[1], in.Regs[4], in.Regs[5] = n, ptrs, flags
	in.MemBase = ptrs
	in.Mem = make([]byte, flags+8*n-ptrs)
	x := uint64(12345)
	for i := uint64(0); i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		flag := x >> 40 & 1
		binary.LittleEndian.PutUint64(in.Mem[flags-ptrs+8*i:], flag)
		binary.LittleEndian.PutUint64(in.Mem[vals-ptrs+8*i:], i)
		if flag == 1 {
			binary.LittleEndian.PutUint64(in.Mem[8*i:], vals+8*i)
		} else {
			binary.LittleEndian.PutUint64(in.Mem[8*i:], 3) // never dereferenced
		}
	}
	return p, in
}

// staleAddressProgram is the same hazard inside one block: the store
// (LSID 0) repairs the pointer the first load (LSID 1) reads, but its
// address arrives through twelve divides (longer than a DRAM miss), so the
// load runs early, reads the misaligned value 3 and the second load
// dereferences it.  The store's arrival flushes the block for the ordering
// violation; the replay reads the repaired pointer.  No block is older, so
// "oldest in the window" alone would have made the fault architectural.
func staleAddressProgram(t *testing.T) (*prog.Program, Input) {
	t.Helper()
	b := prog.NewBuilder()
	e := b.Block("e")
	slot := e.Read(4)
	late := slot
	for i := 0; i < 12; i++ {
		late = e.Op(isa.OpDiv, late, e.Const(1))
	}
	e.Store(late, e.Read(5), 0, 8)
	e.Write(3, e.Load(e.Load(slot, 0, 8, false), 0, 8, false))
	e.Halt()
	p, err := b.Program("e")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var in Input
	in.Regs[4], in.Regs[5] = 0x1000, 0x1008
	in.MemBase = 0x1000
	in.Mem = make([]byte, 16)
	binary.LittleEndian.PutUint64(in.Mem, 3)
	binary.LittleEndian.PutUint64(in.Mem[8:], 77)
	return p, in
}

// TestSpeculativeFaultDoesNotFailTheRun: a misaligned access the program
// never architecturally performs must not fail the run, on any
// composition or engine.  (It used to fail the chip at execute time: the
// first program ran on 1 core and died with "misaligned 8-byte load at
// 0x3" on 2 to 32.)
func TestSpeculativeFaultDoesNotFailTheRun(t *testing.T) {
	for name, build := range map[string]func(*testing.T) (*prog.Program, Input){
		"wrong path": wrongPathProgram, "stale address": staleAddressProgram,
	} {
		p, in := build(t)
		want, err := Functional{}.Run(p, in)
		if err != nil {
			t.Fatalf("%s: functional: %v", name, err)
		}
		for _, cores := range []int{1, 2, 4, 8, 16, 32} {
			for _, ref := range []bool{false, true} {
				ex := Sim{Cores: cores, Reference: ref}
				got, err := ex.Run(p, in)
				if err != nil {
					t.Errorf("%s on %s: %v", name, ex.Name(), err)
				} else if d := got.Diff(want); d != "" {
					t.Errorf("%s on %s diverges from functional: %s", name, ex.Name(), d)
				}
			}
		}
	}
}
