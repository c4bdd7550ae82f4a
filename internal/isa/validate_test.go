package isa_test

import (
	"testing"

	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/kernels"
)

// malformed returns a valid five-instruction block — a predicated
// add/store pair, a null covering the store's slot on the other arm, a
// load and a branch — for a table row to break in one place.
func malformed(mutate func(*isa.Block)) *isa.Block {
	b := &isa.Block{
		Name: "b0",
		Reads: []isa.ReadSlot{
			{Reg: 1, Targets: []isa.Target{{Kind: isa.TargetLeft, Index: 0}, {Kind: isa.TargetLeft, Index: 1}}},
			{Reg: 2, Targets: []isa.Target{{Kind: isa.TargetRight, Index: 0}, {Kind: isa.TargetLeft, Index: 3}}},
			{Reg: 3, Targets: []isa.Target{{Kind: isa.TargetPred, Index: 1}, {Kind: isa.TargetPred, Index: 2}}},
		},
		Writes: []isa.WriteSlot{{Reg: 4}},
		Insts: []isa.Inst{
			{Op: isa.OpAdd, Targets: []isa.Target{{Kind: isa.TargetRight, Index: 1}}},
			{Op: isa.OpStore, Pred: isa.PredOnTrue, MemSize: 8, LSID: 0, NullLSID: -1},
			{Op: isa.OpNull, Pred: isa.PredOnFalse, NullLSID: 0},
			{Op: isa.OpLoad, MemSize: 4, LSID: 1, NullLSID: -1, Targets: []isa.Target{{Kind: isa.TargetWrite, Index: 0}}},
			{Op: isa.OpBro, BranchTo: "b0", Exit: 0},
		},
		NumStores: 1,
	}
	mutate(b)
	return b
}

// TestValidateMessages pins every message Validate can render, whole:
// the name of the offending read or instruction is built only when a
// message needs it, and must read exactly as it did when it was built
// for every instruction.
func TestValidateMessages(t *testing.T) {
	left := func(i uint8) isa.Target { return isa.Target{Kind: isa.TargetLeft, Index: i} }
	for _, c := range []struct {
		name   string
		mutate func(*isa.Block)
		want   string
	}{
		{"valid", func(b *isa.Block) {}, ""},
		{"empty", func(b *isa.Block) { b.Insts = nil }, "block b0: empty"},
		{"too many instructions", func(b *isa.Block) { b.Insts = make([]isa.Inst, isa.MaxBlockInsts+1) }, "block b0: 129 instructions exceeds 128"},
		{"too many reads", func(b *isa.Block) { b.Reads = make([]isa.ReadSlot, isa.MaxReads+1) }, "block b0: 33 reads exceeds 32"},
		{"too many writes", func(b *isa.Block) { b.Writes = make([]isa.WriteSlot, isa.MaxWrites+1) }, "block b0: 33 writes exceeds 32"},
		{"read: too many targets", func(b *isa.Block) { b.Reads[1].Targets = []isa.Target{left(0), left(0), left(0)} }, "block b0: read 1 has 3 targets (max 2)"},
		{"inst: too many targets", func(b *isa.Block) { b.Insts[0].Targets = []isa.Target{left(3), left(3), left(3)} }, "block b0: inst 0 (add) has 3 targets (max 2)"},
		{"read: bad write slot", func(b *isa.Block) { b.Reads[2].Targets[0] = isa.Target{Kind: isa.TargetWrite, Index: 7} }, "block b0: read 2 targets write slot 7 of 1"},
		{"inst: bad write slot", func(b *isa.Block) { b.Insts[3].Targets[0].Index = 1 }, "block b0: inst 3 (ld) targets write slot 1 of 1"},
		{"read: bad instruction", func(b *isa.Block) { b.Reads[0].Targets[0].Index = 100 }, "block b0: read 0 targets instruction 100 of 5"},
		{"inst: bad instruction", func(b *isa.Block) { b.Insts[0].Targets[0].Index = 5 }, "block b0: inst 0 (add) targets instruction 5 of 5"},
		{"inst: unused slot, and its operands", func(b *isa.Block) {
			b.Insts = append(b.Insts, isa.Inst{})
			b.Insts[0].Targets = []isa.Target{{Kind: isa.TargetRight, Index: 5}, {Kind: isa.TargetPred, Index: 5}}
		}, "block b0: inst 0 (add) targets unused slot 5\nblock b0: inst 0 (add) targets right operand of 1-operand inst 5\nblock b0: inst 0 (add) targets unused slot 5\nblock b0: inst 0 (add) targets predicate of unpredicated inst 5"},
		{"read: predicate of unpredicated", func(b *isa.Block) { b.Reads[2].Targets[0].Index = 0 }, "block b0: read 2 targets predicate of unpredicated inst 0"},
		{"inst: right operand of one-operand", func(b *isa.Block) { b.Insts[0].Targets[0].Index = 3 }, "block b0: inst 0 (add) targets right operand of 1-operand inst 3"},
		{"bad registers", func(b *isa.Block) { b.Reads[1].Reg, b.Writes[0].Reg = 200, 128 }, "block b0: read 1 of invalid register 200\nblock b0: write 0 of invalid register 128"},
		{"invalid LSID", func(b *isa.Block) { b.Insts[3].LSID = isa.MaxMemOps }, "block b0: inst 3 (ld) has invalid LSID 32"},
		{"negative LSID", func(b *isa.Block) { b.Insts[3].LSID = -1 }, "block b0: inst 3 (ld) has invalid LSID -1"},
		{"store reuses LSID unpredicated", func(b *isa.Block) {
			b.Insts[3] = isa.Inst{Op: isa.OpStore, MemSize: 8, LSID: 0, NullLSID: -1}
			b.Reads[1].Targets[1] = isa.Target{Kind: isa.TargetRight, Index: 3}
		}, "block b0: inst 3 (st) reuses LSID 0 without predication"},
		{"invalid size", func(b *isa.Block) { b.Insts[1].MemSize, b.Insts[3].MemSize = 3, 0 }, "block b0: inst 1 (st) has invalid size 3\nblock b0: inst 3 (ld) has invalid size 0"},
		{"unconditional null", func(b *isa.Block) { b.Insts[2].Pred = isa.PredNone }, "block b0: read 2 targets predicate of unpredicated inst 2\nblock b0: inst 2 (null) nullifies store 0 unconditionally"},
		{"null of invalid LSID", func(b *isa.Block) { b.Insts[2].NullLSID = isa.MaxMemOps }, "block b0: inst 2 (null) nullifies invalid LSID 32"},
		{"exit out of range and no label", func(b *isa.Block) { b.Insts[4].Exit, b.Insts[4].BranchTo = isa.NumExits, "" }, "block b0: inst 4 (bro) exit 8 out of range\nblock b0: inst 4 (bro) missing target label"},
		{"no branch", func(b *isa.Block) {
			b.Insts[4] = isa.Inst{Op: isa.OpMov, Targets: []isa.Target{{Kind: isa.TargetWrite, Index: 0}}}
		}, "block b0: no branch"},
		{"two unpredicated branches", func(b *isa.Block) { b.Insts = append(b.Insts, isa.Inst{Op: isa.OpHalt}) }, "block b0: 2 unpredicated branches"},
		{"store mask", func(b *isa.Block) { b.NumStores = 3 }, "block b0: store mask 3, but 1 store slots"},
		{"unknown opcode", func(b *isa.Block) { b.Insts[0].Op = isa.Opcode(200); b.Insts[0].Targets[0].Index = 9 }, "block b0: inst 0 (op(200)) targets instruction 9 of 5"},
	} {
		got := ""
		if err := malformed(c.mutate).Validate(); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestValidateAllocatesNothingPerInstruction: a block with nothing wrong
// with it renders no name and no message, so validating it costs a fixed
// handful of allocations however many instructions and reads it has.
func TestValidateAllocatesNothingPerInstruction(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "conv", "ct"} {
		k, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		inst, err := k.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		largest := inst.Prog.Blocks[0]
		for _, b := range inst.Prog.Blocks {
			if len(b.Insts) > len(largest.Insts) {
				largest = b
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := largest.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s block %s: %d instructions, %d reads, %.0f allocations", name, largest.Name, len(largest.Insts), len(largest.Reads), allocs)
		if len(largest.Insts) < 90 {
			t.Errorf("%s: largest block has %d instructions; pick a kernel with a full one", name, len(largest.Insts))
		}
		if allocs > 8 {
			t.Errorf("%s block %s: Validate allocates %.0f times, want <= 8", name, largest.Name, allocs)
		}
	}
}
