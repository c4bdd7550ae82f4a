package edgegen

import (
	"reflect"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/arch"
	"github.com/clp-sim/tflex/internal/asm"
	"github.com/clp-sim/tflex/internal/isa"
)

// TestGenSpecDeterministic pins the seed contract: same seed, same
// program text, same input.
func TestGenSpecDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a, b := GenSpec(seed), GenSpec(seed)
		if a.Asm() != b.Asm() {
			t.Fatalf("seed %d: two generations render different programs", seed)
		}
		ia, ib := a.Input(), b.Input()
		if ia.Regs != ib.Regs || string(ia.Mem) != string(ib.Mem) {
			t.Fatalf("seed %d: two generations produce different inputs", seed)
		}
	}
}

// TestGenSpecBuildsAndRuns drives many seeds through the full pipeline:
// every generated Spec must validate, assemble, and run to a halt on
// the functional executor within its own bounds.
func TestGenSpecBuildsAndRuns(t *testing.T) {
	var withStore, withLoop, withSelect, withGuard, withLoad int
	for seed := int64(0); seed < 300; seed++ {
		s := GenSpec(seed)
		p, err := s.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v\nprogram:\n%s", seed, err, s.Asm())
		}
		st, err := (arch.Functional{}).Run(p, s.Input())
		if err != nil {
			t.Fatalf("seed %d: run: %v\nprogram:\n%s", seed, err, s.Asm())
		}
		if st.Blocks == 0 {
			t.Fatalf("seed %d: retired zero blocks", seed)
		}
		for _, blk := range s.Blocks {
			if blk.Term.Kind == TLoop {
				withLoop++
			}
			for _, op := range blk.Ops {
				switch op.Kind {
				case KStore:
					withStore++
					if op.Guard >= 0 {
						withGuard++
					}
				case KSelect:
					withSelect++
				case KLoad:
					withLoad++
				}
			}
		}
	}
	// Feature coverage: the corpus must actually exercise the surfaces
	// the fuzzer exists to test.
	if withStore == 0 || withLoop == 0 || withSelect == 0 || withGuard == 0 || withLoad == 0 {
		t.Errorf("degenerate corpus: stores=%d loops=%d selects=%d guarded=%d loads=%d",
			withStore, withLoop, withSelect, withGuard, withLoad)
	}
}

// TestSpecValidateRejects pins that Spec.Validate catches the
// structural corruption a buggy shrinking pass could introduce.
func TestSpecValidateRejects(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Mem: make([]byte, DataBytes),
			Blocks: []BlockSpec{
				{Ops: []OpSpec{{Kind: KConst, Imm: 1, A: -1, B: -1, C: -1, Guard: -1}},
					Term: TermSpec{Kind: TBranch, To1: 1}},
				{Ops: []OpSpec{{Kind: KConst, Imm: 2, A: -1, B: -1, C: -1, Guard: -1}},
					Term: TermSpec{Kind: THalt}},
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
	// textFails marks the corruptions the assembly text path rejects as
	// well, so Build and asm.Assemble(Asm()) agree on them.
	cases := []struct {
		name      string
		corrupt   func(*Spec)
		want      string
		textFails bool
	}{
		{"backward branch", func(s *Spec) { s.Blocks[1].Term = TermSpec{Kind: TBranch, To1: 0} }, "not a forward block", false},
		{"self-referential operand", func(s *Spec) {
			s.Blocks[0].Ops[0] = OpSpec{Kind: KALUImm, A: 0, B: -1, C: -1, Guard: -1}
		}, "at or after itself", true},
		{"operand out of range", func(s *Spec) {
			s.Blocks[0].Ops = append(s.Blocks[0].Ops, OpSpec{Kind: KWrite, Reg: 3, A: 9, B: -1, C: -1, Guard: -1})
		}, "out of range", true},
		{"double write", func(s *Spec) {
			s.Blocks[0].Ops = append(s.Blocks[0].Ops,
				OpSpec{Kind: KWrite, Reg: 3, A: 0, B: -1, C: -1, Guard: -1},
				OpSpec{Kind: KWrite, Reg: 3, A: 0, B: -1, C: -1, Guard: -1})
		}, "writes r3 twice", false},
		{"write to loop register", func(s *Spec) {
			s.Blocks[0].Ops = append(s.Blocks[0].Ops, OpSpec{Kind: KWrite, Reg: loopRegBase, A: 0, B: -1, C: -1, Guard: -1})
		}, "outside the general window", false},
		{"zero-trip loop", func(s *Spec) {
			s.Blocks[0].Term = TermSpec{Kind: TLoop, Trips: 0, To1: 1}
		}, "0 trips", false},
		{"store referencing value-less slot", func(s *Spec) {
			s.Blocks[0].Ops = append(s.Blocks[0].Ops,
				OpSpec{Kind: KWrite, Reg: 3, A: 0, B: -1, C: -1, Guard: -1},
				OpSpec{Kind: KStore, A: 1, B: 0, Size: 8, C: -1, Guard: -1})
		}, "value-less op", true},
		{"opcode outside the ALU set", func(s *Spec) {
			s.Blocks[0].Ops = append(s.Blocks[0].Ops, OpSpec{Kind: KALU, Op: isa.OpFDiv, A: 0, B: 0, C: -1, Guard: -1})
		}, "outside the generator's ALU set", true},
		{"FP opcode with an immediate", func(s *Spec) {
			s.Blocks[0].Ops = append(s.Blocks[0].Ops, OpSpec{Kind: KALUImm, Op: isa.OpFAdd, A: 0, Imm: 1, B: -1, C: -1, Guard: -1})
		}, "gives FP opcode fadd an immediate", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.corrupt(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("corrupted spec accepted (want error containing %q)", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want it to contain %q", err, tc.want)
			}
			if _, err := s.Build(); err == nil {
				t.Error("Build accepted a spec Validate rejects")
			}
			if _, err := asm.Assemble(s.Asm()); tc.textFails && err == nil {
				t.Errorf("the assembly text path accepted the spec:\n%s", s.Asm())
			}
		})
	}
}

// TestBuildMatchesAssembly holds Build to the text path it replaced: the
// program it lowers directly deep-equals the one asm.Assemble makes of
// Asm's text, so a .tfa dump replays exactly the program the harness ran.
// The fuzz package checks its shrink candidates and fuzz inputs the same
// way.
func TestBuildMatchesAssembly(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		s := GenSpec(seed)
		got, err := s.Build()
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		want, err := asm.Assemble(s.Asm())
		if err != nil {
			t.Fatalf("seed %d: Assemble: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Build and asm.Assemble(Asm()) differ\nBuild:\n%s\nAssemble:\n%s",
				seed, asm.Disassemble(got), asm.Disassemble(want))
		}
	}
}

// TestCloneIsDeep pins that shrink candidates cannot alias the parent.
func TestCloneIsDeep(t *testing.T) {
	s := GenSpec(7)
	c := s.Clone()
	c.Blocks[0].Ops[0] = OpSpec{Kind: KConst, Imm: 99, A: -1, B: -1, C: -1, Guard: -1}
	c.Mem[0] ^= 0xff
	if s.Blocks[0].Ops[0] == c.Blocks[0].Ops[0] {
		t.Error("Clone shares op storage with the parent")
	}
	if s.Mem[0] == c.Mem[0] {
		t.Error("Clone shares the memory image with the parent")
	}
}
