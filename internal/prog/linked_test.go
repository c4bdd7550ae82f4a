package prog_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/prog"
)

// TestLinkedMatchesRecount checks every field of every block's prog.Linked
// against a naive recount written from the field's doc comment, over the
// whole kernel population at scale 1 and 200 generated programs.  sim and
// exec used to decode blocks independently and so cross-checked each
// other; with one decoder, this is the cross-check.
func TestLinkedMatchesRecount(t *testing.T) {
	blocks := 0
	check := func(name string, p *prog.Program) {
		for i, b := range p.Blocks {
			blocks++
			lk := p.Linked(i)
			if lk.Block != b || lk.Index != i || p.BlockIndex(b.Addr) != i {
				t.Fatalf("%s block %s: Linked(%d) is block %s index %d", name, b.Name, i, lk.Block.Name, lk.Index)
			}
			if err := recount(b, lk); err != nil {
				t.Errorf("%s block %s: %v", name, b.Name, err)
			}
		}
	}
	for _, k := range append(kernels.All(), kernels.Extras()...) {
		inst, err := k.Build(1)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		check(k.Name, inst.Prog)
	}
	for seed := int64(0); seed < 200; seed++ {
		p, err := edgegen.GenSpec(seed).Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("seed %d", seed), p)
	}
	t.Logf("%d blocks recounted", blocks)
}

// producers counts the target fields in b naming (kind, index).
func producers(b *isa.Block, kind isa.TargetKind, index int) uint8 {
	n := uint8(0)
	count := func(ts []isa.Target) {
		for _, tg := range ts {
			if tg.Kind == kind && int(tg.Index) == index {
				n++
			}
		}
	}
	for _, r := range b.Reads {
		count(r.Targets)
	}
	for i := range b.Insts {
		count(b.Insts[i].Targets)
	}
	return n
}

func recount(b *isa.Block, lk *prog.Linked) error {
	if len(lk.Insts) != len(b.Insts) || len(lk.WriteProducers) != len(b.Writes) {
		return fmt.Errorf("%d insts and %d write slots linked, want %d and %d",
			len(lk.Insts), len(lk.WriteProducers), len(b.Insts), len(b.Writes))
	}
	var live []int32
	var mask uint32
	var cover, loads [isa.MaxMemOps][]int32
	var firstMem [isa.MaxMemOps]int16
	for l := range firstMem {
		firstMem[l] = -1
	}
	// The two definitions of MaxLSID the engines used to hold: exec's counts
	// a null's NullLSID, sim's only loads and stores.  They must agree — a
	// null carries its partner store's LSID — or taking exec's changed sim.
	var maxWithNulls, maxMemOnly int8
	for i := range b.Insts {
		in := &b.Insts[i]
		n := in.Op.NumOperands()
		want := prog.LinkedInst{
			Left:  prog.Operand{Need: n >= 1, Producers: producers(b, isa.TargetLeft, i)},
			Right: prog.Operand{Need: n == 2 && (!in.HasImm || in.Op.IsMem()), Producers: producers(b, isa.TargetRight, i)},
			Pred:  prog.Operand{Need: in.Pred != isa.PredNone, Producers: producers(b, isa.TargetPred, i)},
		}
		if lk.Insts[i] != want {
			return fmt.Errorf("inst %d (%s): operands %+v, want %+v", i, in, lk.Insts[i], want)
		}
		if in.Op != isa.OpNop {
			live = append(live, int32(i))
		}
		if in.Op == isa.OpLoad || in.Op == isa.OpStore {
			if firstMem[in.LSID] < 0 {
				firstMem[in.LSID] = int16(i)
			}
			maxWithNulls = max(maxWithNulls, in.LSID+1)
			maxMemOnly = max(maxMemOnly, in.LSID+1)
		}
		if in.Op == isa.OpLoad {
			loads[in.LSID] = append(loads[in.LSID], int32(i))
		}
		slot := int8(-1)
		if in.Op == isa.OpStore {
			slot = in.LSID
		} else if in.Op == isa.OpNull {
			slot = in.NullLSID
		}
		if slot >= 0 {
			mask |= 1 << uint(slot)
			cover[slot] = append(cover[slot], int32(i))
			maxWithNulls = max(maxWithNulls, slot+1)
		}
	}
	for w := range b.Writes {
		if got, want := lk.WriteProducers[w], producers(b, isa.TargetWrite, w); got != want {
			return fmt.Errorf("write slot %d: %d producers, want %d", w, got, want)
		}
	}
	var livePos [isa.MaxBlockInsts]int8
	for id := range livePos {
		livePos[id] = int8(slices.Index(live, int32(id)))
	}
	var regSlot [isa.NumRegs]int8
	for r := range regSlot {
		regSlot[r] = -1
		for w := len(b.Writes) - 1; w >= 0; w-- {
			if int(b.Writes[w].Reg) == r {
				regSlot[r] = int8(w)
			}
		}
	}
	if maxWithNulls != maxMemOnly {
		return fmt.Errorf("MaxLSID is %d counting nulls and %d without", maxWithNulls, maxMemOnly)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Live", lk.Live, live},
		{"LivePos", lk.LivePos, livePos},
		{"Outputs", lk.Outputs, len(b.Writes) + b.NumStores + 1},
		{"MaxLSID", lk.MaxLSID, maxWithNulls},
		{"StoreMask", lk.StoreMask, mask},
		{"Cover", lk.Cover, cover},
		{"FirstMem", lk.FirstMem, firstMem},
		{"Loads", lk.Loads, loads},
		{"RegSlot", lk.RegSlot, regSlot},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	return nil
}

// TestLinkedOperandNeeds pins the operand rule on one instruction of each
// shape: how many arrivals (left, right, predicate) it waits for.
func TestLinkedOperandNeeds(t *testing.T) {
	b := prog.NewBuilder()
	bb := b.Block("e")
	x, y := bb.Read(1), bb.Read(2)
	bb.Write(3, bb.Mul(x, y))            // two operands
	bb.Write(4, bb.ShlI(x, 4))           // the immediate replaces the right operand
	bb.Write(5, bb.When(y).Sub(x, y))    // ... and a predicate makes three
	bb.Write(6, bb.Load(x, 8, 8, false)) // a load's immediate is an offset: address only
	bb.Store(x, bb.Const(42), 16, 8)     // a store's too: address and value; a constant waits for nothing
	bb.Halt()
	p, err := b.Program("e")
	if err != nil {
		t.Fatal(err)
	}
	want := map[isa.Opcode]int{isa.OpMul: 2, isa.OpShl: 1, isa.OpSub: 3, isa.OpLoad: 1, isa.OpStore: 2, isa.OpGenC: 0, isa.OpHalt: 0}
	lk := p.Linked(0)
	for _, id := range lk.Live {
		in := &lk.Block.Insts[id]
		n, ok := want[in.Op]
		if !ok {
			continue // fan-out movs
		}
		delete(want, in.Op)
		got := 0
		for _, o := range []prog.Operand{lk.Insts[id].Left, lk.Insts[id].Right, lk.Insts[id].Pred} {
			if o.Need {
				got++
			}
		}
		if got != n {
			t.Errorf("%s waits for %d arrivals, want %d", in, got, n)
		}
	}
	if len(want) != 0 {
		t.Errorf("shapes not found in the block: %v", want)
	}
}
