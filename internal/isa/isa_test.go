package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTargetEncodeRoundTrip(t *testing.T) {
	for _, k := range []TargetKind{TargetLeft, TargetRight, TargetPred, TargetWrite} {
		for idx := 0; idx < 128; idx++ {
			tg := Target{Kind: k, Index: uint8(idx)}
			got := DecodeTarget(tg.Encode())
			if got != tg {
				t.Fatalf("round trip %v -> %v", tg, got)
			}
		}
	}
}

func TestTargetEncodeIs9Bits(t *testing.T) {
	f := func(kind uint8, idx uint8) bool {
		tg := Target{Kind: TargetKind(kind % 4), Index: idx % 128}
		return tg.Encode() < 1<<9 && DecodeTarget(tg.Encode()) == tg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpcodeMetadata(t *testing.T) {
	cases := []struct {
		op     Opcode
		nOps   int
		fp     bool
		mem    bool
		branch bool
	}{
		{OpAdd, 2, false, false, false},
		{OpGenC, 0, false, false, false},
		{OpMov, 1, false, false, false},
		{OpFAdd, 2, true, false, false},
		{OpFSqrt, 1, true, false, false},
		{OpLoad, 1, false, true, false},
		{OpStore, 2, false, true, false},
		{OpBro, 0, false, false, true},
		{OpRet, 1, false, false, true},
		{OpHalt, 0, false, false, true},
		{OpNull, 0, false, false, false},
	}
	for _, c := range cases {
		if got := c.op.NumOperands(); got != c.nOps {
			t.Errorf("%s: NumOperands = %d, want %d", c.op, got, c.nOps)
		}
		if got := c.op.IsFP(); got != c.fp {
			t.Errorf("%s: IsFP = %v, want %v", c.op, got, c.fp)
		}
		if got := c.op.IsMem(); got != c.mem {
			t.Errorf("%s: IsMem = %v, want %v", c.op, got, c.mem)
		}
		if got := c.op.IsBranch(); got != c.branch {
			t.Errorf("%s: IsBranch = %v, want %v", c.op, got, c.branch)
		}
	}
}

func TestOpcodeStringsUnique(t *testing.T) {
	seen := map[string]Opcode{}
	for op := OpNop; op < Opcode(NumOpcodes); op++ {
		s := op.String()
		if strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no name", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("opcodes %d and %d share name %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestBranchTypes(t *testing.T) {
	if OpBro.Type() != BranchRegular || OpCallo.Type() != BranchCall ||
		OpRet.Type() != BranchReturn || OpHalt.Type() != BranchHalt {
		t.Fatal("branch type classification wrong")
	}
	if OpAdd.Type() != BranchNone {
		t.Fatal("add should not classify as branch")
	}
}

func validBlock() *Block {
	return &Block{
		Name: "b0",
		Reads: []ReadSlot{
			{Reg: 1, Targets: []Target{{TargetLeft, 0}}},
			{Reg: 2, Targets: []Target{{TargetRight, 0}}},
		},
		Writes: []WriteSlot{{Reg: 3}},
		Insts: []Inst{
			{Op: OpAdd, Targets: []Target{{TargetWrite, 0}, {TargetLeft, 1}}},
			{Op: OpStore, HasImm: true, Imm: 16, MemSize: 8, LSID: 0, NullLSID: -1,
				Targets: nil}, // store needs addr+value; value comes from inst 0, addr from read below
			{Op: OpBro, BranchTo: "b0", Exit: 0},
		},
		NumStores: 1,
	}
}

func TestBlockValidate(t *testing.T) {
	b := validBlock()
	// Give the store an address operand.
	b.Reads = append(b.Reads, ReadSlot{Reg: 4, Targets: []Target{{TargetLeft, 1}}})
	// inst 0's second target feeds the store's right (value) operand.
	b.Insts[0].Targets[1] = Target{TargetRight, 1}
	if err := b.Validate(); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}
}

func TestBlockValidateRejects(t *testing.T) {
	cases := map[string]func(*Block){
		"no branch":       func(b *Block) { b.Insts = b.Insts[:2] },
		"bad write slot":  func(b *Block) { b.Insts[0].Targets[0] = Target{TargetWrite, 5} },
		"bad inst target": func(b *Block) { b.Insts[0].Targets[0] = Target{TargetLeft, 100} },
		"pred target of unpredicated": func(b *Block) {
			b.Insts[0].Targets[0] = Target{TargetPred, 2}
		},
		"bad mem size":     func(b *Block) { b.Insts[1].MemSize = 3 },
		"bad exit":         func(b *Block) { b.Insts[2].Exit = 9 },
		"missing label":    func(b *Block) { b.Insts[2].BranchTo = "" },
		"too many targets": func(b *Block) { b.Insts[0].Targets = make([]Target, 3) },
		"bad read reg":     func(b *Block) { b.Reads[0].Reg = 200 },
		"target names an unused slot": func(b *Block) {
			b.Insts = append(b.Insts, Inst{}) // a nop: executors keep no state for it
			b.Insts[0].Targets[0] = Target{TargetLeft, 3}
		},
		"two unpredicated branches": func(b *Block) {
			b.Insts = append(b.Insts, Inst{Op: OpHalt}) // fire both: which one commits?
		},
		"store mask too small": func(b *Block) { b.NumStores = 0 }, // would commit before the store
		"store mask too large": func(b *Block) { b.NumStores = 2 }, // would never commit
		"null of invalid LSID": func(b *Block) {
			b.Insts = append(b.Insts, Inst{Op: OpNull, Pred: PredOnTrue, NullLSID: MaxMemOps})
		},
	}
	for name, mutate := range cases {
		b := validBlock()
		b.Reads = append(b.Reads, ReadSlot{Reg: 4, Targets: []Target{{TargetLeft, 1}}})
		b.Insts[0].Targets[1] = Target{TargetRight, 1}
		mutate(b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestBlockStringRenders(t *testing.T) {
	b := validBlock()
	s := b.String()
	for _, want := range []string{"block b0", "read[0] r1", "write[0] r3", "bro"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}
