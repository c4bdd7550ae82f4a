// Package edgegen generates random valid EDGE block programs for
// differential testing, in the spirit of microsmith-style compiler
// fuzzing: a seeded generator emits a small program-shaped IR (Spec),
// and Build lowers it straight into the hardened builder/validation
// pipeline.  Asm renders the same Spec in the textual assembly grammar
// for reproducer dumps; Build makes the builder calls the assembler
// makes for that text, in the same order, so the two programs are
// deep-equal (TestBuildMatchesAssembly holds it).  Every
// program respects the architectural limits — at most 128 instructions
// and 32 reads/writes/memory-ops per block — and terminates by
// construction: inter-block control flow is a forward DAG, and loops
// are self-loops with bounded trip counts on dedicated loop registers.
//
// Spec, not the built program, is the unit of shrinking: the fuzz
// harness mutates Specs (dropping blocks, simplifying terminators,
// neutralizing ops) and rebuilds, so every shrink candidate is again a
// valid program expressible in the assembly grammar.
package edgegen

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/clp-sim/tflex/internal/arch"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// Generated programs confine their memory traffic to a small data
// region so images stay comparable and dumps stay readable.  Every
// load/store address is computed as DataBase + (value & alignment
// mask), which keeps all accesses in [DataBase, DataBase+DataBytes).
const (
	DataBase  uint64 = 0x0040_0000
	DataBytes        = 512
)

// NumGenRegs is how many general registers (r1..r12) generated code
// reads and writes.  Loop counters live far away at loopRegBase so a
// generated write can never corrupt a trip count.
const (
	NumGenRegs  = 12
	loopRegBase = 64
)

// Run bounds for generated programs: tight enough that a runaway
// executor fails in milliseconds, generous enough that no valid
// generated program (worst case: every block a max-trip loop) can hit
// them.  Shared by Spec.Input and .tfa reproducer replay.
const (
	RunMaxBlocks uint64 = 1 << 14
	RunMaxCycles uint64 = 1 << 24
)

// OpKind classifies one Spec operation.  Every op owns one value slot;
// KStore and KWrite produce nothing and their slots must never be
// referenced (Validate enforces it), which keeps slot indices stable
// when a shrinking pass replaces an op in place.
type OpKind uint8

const (
	KConst OpKind = iota
	KRead
	KALU
	KALUImm
	KLoad
	KSelect
	KStore
	KWrite
)

// OpSpec is one operation of a block body.
type OpSpec struct {
	Kind OpKind
	Op   isa.Opcode // KALU, KALUImm
	// A, B, C are value-slot operands (-1 unused): KALU uses A,B;
	// KALUImm and KWrite use A; KLoad uses A as the address seed;
	// KSelect uses A (predicate), B, C; KStore uses A (address seed)
	// and B (data).
	A, B, C  int
	Imm      int64 // KConst, KALUImm
	Reg      uint8 // KRead, KWrite
	Size     uint8 // KLoad, KStore: 1, 2, 4 or 8
	Signed   bool  // KLoad
	Guard    int   // KStore, KWrite: predicate slot or -1
	GuardNeg bool  // guard sense: true = "unless"
}

// TermKind classifies a block terminator.
type TermKind uint8

const (
	THalt TermKind = iota
	TBranch
	TBranchIf
	TLoop
)

// TermSpec is a block terminator.  All targets are forward block
// indices (strictly greater than the block's own), except the implicit
// self-edge of TLoop.
type TermSpec struct {
	Kind     TermKind
	P        int   // TBranchIf: predicate slot
	To1, To2 int   // TBranch/TLoop use To1; TBranchIf uses both
	Trips    int64 // TLoop: trip count >= 1
}

// BlockSpec is one block: an op list and a terminator.
type BlockSpec struct {
	Ops  []OpSpec
	Term TermSpec
}

// Spec is a complete generated program plus its initial architectural
// state.  Build/Asm/Input are pure functions of the Spec, so a Spec
// (not a seed) is the reproducer the shrinker minimizes.
type Spec struct {
	Seed     int64
	InitRegs [NumGenRegs]uint64 // r1..r12
	Mem      []byte             // initial image at DataBase
	Blocks   []BlockSpec
}

// producesValue reports whether the op kind fills its value slot.
func (k OpKind) producesValue() bool { return k != KStore && k != KWrite }

// operands is how many of A, B, C (in that order) the op kind reads.
func (k OpKind) operands() int {
	switch k {
	case KALUImm, KLoad, KWrite:
		return 1
	case KALU, KStore:
		return 2
	case KSelect:
		return 3
	}
	return 0
}

// badSlot reports why slot cannot be read in blk, or "" when it can.
func (blk *BlockSpec) badSlot(slot int) string {
	if slot < 0 || slot >= len(blk.Ops) {
		return "out of range"
	}
	if !blk.Ops[slot].Kind.producesValue() {
		return "names a value-less op"
	}
	return ""
}

// Validate checks Spec-level structure: operand slots reference earlier
// value-producing ops, guards likewise, ALU opcodes come from the
// generator's set (aluNames) and only integer ones take an immediate,
// read and write registers stay inside the general-register window, at
// most one write per register per block (two non-complementary
// producers of one write slot would deadlock the dataflow), and control
// flow is forward-only with positive trip counts.  A Spec that passes
// lowers to the same builder calls through Build as through Asm and the
// assembler.  Program-level ISA constraints are rechecked downstream by
// prog.Validate when the Spec is built.
func (s *Spec) Validate() error {
	nb := len(s.Blocks)
	if nb == 0 {
		return fmt.Errorf("edgegen: no blocks")
	}
	for bi := range s.Blocks {
		blk := &s.Blocks[bi]
		var written [NumGenRegs + 1]bool
		for oi, op := range blk.Ops {
			slots := [3]int{op.A, op.B, op.C}
			for _, slot := range slots[:op.Kind.operands()] {
				if why := blk.badSlot(slot); why != "" {
					return fmt.Errorf("edgegen: b%d: op %d operand slot %d %s", bi, oi, slot, why)
				}
				if slot >= oi {
					return fmt.Errorf("edgegen: b%d: op %d references slot %d at or after itself", bi, oi, slot)
				}
			}
			switch op.Kind {
			case KALU, KALUImm:
				if _, ok := aluNames[op.Op]; !ok {
					return fmt.Errorf("edgegen: b%d: op %d has opcode %s outside the generator's ALU set", bi, oi, op.Op)
				}
				if op.Kind == KALUImm && op.Op.IsFP() {
					return fmt.Errorf("edgegen: b%d: op %d gives FP opcode %s an immediate", bi, oi, op.Op)
				}
			case KLoad, KStore:
				switch op.Size {
				case 1, 2, 4, 8:
				default:
					return fmt.Errorf("edgegen: b%d: op %d has size %d", bi, oi, op.Size)
				}
			case KRead:
				if op.Reg < 1 || op.Reg > NumGenRegs {
					return fmt.Errorf("edgegen: b%d: op %d reads r%d outside the general window", bi, oi, op.Reg)
				}
			case KWrite:
				if op.Reg < 1 || op.Reg > NumGenRegs {
					return fmt.Errorf("edgegen: b%d: op %d writes r%d outside the general window", bi, oi, op.Reg)
				}
				if written[op.Reg] {
					return fmt.Errorf("edgegen: b%d: op %d writes r%d twice in one block", bi, oi, op.Reg)
				}
				written[op.Reg] = true
			}
			if (op.Kind == KStore || op.Kind == KWrite) && op.Guard >= 0 {
				if why := blk.badSlot(op.Guard); why != "" {
					return fmt.Errorf("edgegen: b%d: op %d guard slot %d %s", bi, oi, op.Guard, why)
				}
				if op.Guard >= oi {
					return fmt.Errorf("edgegen: b%d: op %d guard slot %d at or after itself", bi, oi, op.Guard)
				}
			}
		}
		t := blk.Term
		forward := func(to int, what string) error {
			if to <= bi || to >= nb {
				return fmt.Errorf("edgegen: b%d: %s target b%d is not a forward block", bi, what, to)
			}
			return nil
		}
		switch t.Kind {
		case THalt:
		case TBranch:
			if err := forward(t.To1, "branch"); err != nil {
				return err
			}
		case TBranchIf:
			if why := blk.badSlot(t.P); why != "" {
				return fmt.Errorf("edgegen: b%d: branch predicate slot %d %s", bi, t.P, why)
			}
			if err := forward(t.To1, "then"); err != nil {
				return err
			}
			if err := forward(t.To2, "else"); err != nil {
				return err
			}
		case TLoop:
			if t.Trips < 1 {
				return fmt.Errorf("edgegen: b%d: loop with %d trips", bi, t.Trips)
			}
			if err := forward(t.To1, "loop exit"); err != nil {
				return err
			}
		default:
			return fmt.Errorf("edgegen: b%d: unknown terminator %d", bi, t.Kind)
		}
	}
	return nil
}

// aluNames maps the ALU opcodes the generator emits to their assembly
// mnemonics; Validate rejects a KALU or KALUImm opcode it does not name,
// since Asm could print no text for it.
var aluNames = map[isa.Opcode]string{
	isa.OpAdd: "add", isa.OpSub: "sub", isa.OpMul: "mul",
	isa.OpDiv: "div", isa.OpDivU: "divu", isa.OpMod: "mod",
	isa.OpAnd: "and", isa.OpOr: "or", isa.OpXor: "xor",
	isa.OpShl: "shl", isa.OpShr: "shr", isa.OpSra: "sra",
	isa.OpEq: "eq", isa.OpNe: "ne", isa.OpLt: "lt", isa.OpLe: "le",
	isa.OpLtU: "ltu", isa.OpLeU: "leu",
	isa.OpFAdd: "fadd", isa.OpFSub: "fsub", isa.OpFMul: "fmul",
}

// addrMask is the mask a size-byte access's address seed is ANDed with:
// it keeps the access inside the data region and aligned to its size.
func addrMask(size uint8) int64 { return int64(DataBytes-1) &^ int64(size-1) }

// Asm renders the Spec in the textual assembly grammar (internal/asm)
// — the same text a .tfa reproducer dump contains.  asm.Assemble of
// this text deep-equals Build's program (TestBuildMatchesAssembly), so
// a dumped program replays the program the harness ran.
func (s *Spec) Asm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; edgegen seed=%d\n", s.Seed)
	for bi, blk := range s.Blocks {
		fmt.Fprintf(&b, "block b%d:\n", bi)
		v := func(slot int) string { return fmt.Sprintf("%%b%dv%d", bi, slot) }
		// addr emits the two-op address computation confining a memory
		// access to the data region, returning the address value name.
		addr := func(oi int, seed int, size uint8) string {
			fmt.Fprintf(&b, "    %%b%da%d = and %s, #%d\n", bi, oi, v(seed), addrMask(size))
			fmt.Fprintf(&b, "    %%b%dm%d = add %%b%da%d, #%d\n", bi, oi, bi, oi, int64(DataBase))
			return fmt.Sprintf("%%b%dm%d", bi, oi)
		}
		guard := func(op OpSpec) string {
			if op.Guard < 0 {
				return ""
			}
			if op.GuardNeg {
				return " unless " + v(op.Guard)
			}
			return " if " + v(op.Guard)
		}
		for oi, op := range blk.Ops {
			switch op.Kind {
			case KConst:
				fmt.Fprintf(&b, "    %s = const %d\n", v(oi), op.Imm)
			case KRead:
				fmt.Fprintf(&b, "    %s = read r%d\n", v(oi), op.Reg)
			case KALU:
				fmt.Fprintf(&b, "    %s = %s %s, %s\n", v(oi), aluNames[op.Op], v(op.A), v(op.B))
			case KALUImm:
				fmt.Fprintf(&b, "    %s = %s %s, #%d\n", v(oi), aluNames[op.Op], v(op.A), op.Imm)
			case KLoad:
				a := addr(oi, op.A, op.Size)
				if op.Signed {
					fmt.Fprintf(&b, "    %s = load.%d %s, signed\n", v(oi), op.Size, a)
				} else {
					fmt.Fprintf(&b, "    %s = load.%d %s\n", v(oi), op.Size, a)
				}
			case KSelect:
				fmt.Fprintf(&b, "    %s = select %s, %s, %s\n", v(oi), v(op.A), v(op.B), v(op.C))
			case KStore:
				a := addr(oi, op.A, op.Size)
				fmt.Fprintf(&b, "    store.%d %s, %s%s\n", op.Size, a, v(op.B), guard(op))
			case KWrite:
				fmt.Fprintf(&b, "    write r%d, %s%s\n", op.Reg, v(op.A), guard(op))
			}
		}
		switch t := blk.Term; t.Kind {
		case THalt:
			fmt.Fprintf(&b, "    halt\n")
		case TBranch:
			fmt.Fprintf(&b, "    branch b%d\n", t.To1)
		case TBranchIf:
			fmt.Fprintf(&b, "    branch b%d if %s else b%d\n", t.To1, v(t.P), t.To2)
		case TLoop:
			lr := loopRegBase + bi
			fmt.Fprintf(&b, "    %%b%dli = read r%d\n", bi, lr)
			fmt.Fprintf(&b, "    %%b%dli2 = add %%b%dli, #1\n", bi, bi)
			fmt.Fprintf(&b, "    write r%d, %%b%dli2\n", lr, bi)
			fmt.Fprintf(&b, "    %%b%dlp = lt %%b%dli2, #%d\n", bi, bi, t.Trips)
			fmt.Fprintf(&b, "    branch b%d if %%b%dlp else b%d\n", bi, bi, t.To1)
		}
	}
	return b.String()
}

// Build lowers a valid Spec to a laid-out program.  It makes the
// builder calls asm.Assemble makes for the text Asm renders, in the same
// order — the and/add address pair before each load and store, guards
// through When and Unless, the five-instruction loop tail, blocks named
// b<i> with entry b0 — so the program deep-equals the assembled text's
// without printing or parsing it (TestBuildMatchesAssembly).
func (s *Spec) Build() (*prog.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := prog.NewBuilder()
	names := make([]string, len(s.Blocks))
	for bi := range names {
		names[bi] = "b" + strconv.Itoa(bi)
	}
	// vals[slot] is the value of op slot in the block being lowered;
	// Validate admits reads of earlier value-producing slots only.
	var buf [maxOps]prog.Ref
	vals := buf[:]
	for bi := range s.Blocks {
		blk := &s.Blocks[bi]
		if len(blk.Ops) > len(vals) {
			vals = make([]prog.Ref, len(blk.Ops))
		}
		bb := b.Block(names[bi])
		for oi := range blk.Ops {
			op := &blk.Ops[oi]
			switch op.Kind {
			case KConst:
				vals[oi] = bb.Const(op.Imm)
			case KRead:
				vals[oi] = bb.Read(int(op.Reg))
			case KALU:
				vals[oi] = bb.Op(op.Op, vals[op.A], vals[op.B])
			case KALUImm:
				vals[oi] = bb.OpI(op.Op, vals[op.A], op.Imm)
			case KLoad:
				vals[oi] = bb.Load(dataAddr(bb, vals[op.A], op.Size), 0, int(op.Size), op.Signed)
			case KSelect:
				vals[oi] = bb.Select(vals[op.A], vals[op.B], vals[op.C])
			case KStore:
				a := dataAddr(bb, vals[op.A], op.Size)
				guarded(bb, op, vals).Store(a, vals[op.B], 0, int(op.Size))
			case KWrite:
				guarded(bb, op, vals).Write(int(op.Reg), vals[op.A])
			}
		}
		switch t := blk.Term; t.Kind {
		case THalt:
			bb.Halt()
		case TBranch:
			bb.Branch(names[t.To1])
		case TBranchIf:
			bb.BranchIf(vals[t.P], names[t.To1], names[t.To2])
		case TLoop:
			lr := loopRegBase + bi
			li2 := bb.OpI(isa.OpAdd, bb.Read(lr), 1)
			bb.Write(lr, li2)
			bb.BranchIf(bb.OpI(isa.OpLt, li2, t.Trips), names[bi], names[t.To1])
		}
	}
	p, err := b.Program(names[0])
	if err != nil {
		return nil, fmt.Errorf("edgegen: %w", err)
	}
	return p, nil
}

// dataAddr emits the two-op address computation that confines a
// size-byte access seeded by seed to the data region.
func dataAddr(bb *prog.BlockBuilder, seed prog.Ref, size uint8) prog.Ref {
	return bb.OpI(isa.OpAdd, bb.OpI(isa.OpAnd, seed, addrMask(size)), int64(DataBase))
}

// guarded returns the builder a store or write emits through: bb
// itself, or bb predicated on the op's guard slot.
func guarded(bb *prog.BlockBuilder, op *OpSpec, vals []prog.Ref) *prog.BlockBuilder {
	switch {
	case op.Guard < 0:
		return bb
	case op.GuardNeg:
		return bb.Unless(vals[op.Guard])
	}
	return bb.When(vals[op.Guard])
}

// Input returns the initial architectural state for running the Spec:
// seeded general registers, zeroed loop counters, and the data-region
// image.  Bounds are tight — generated programs retire well under a
// hundred blocks, so a runaway executor fails fast.
func (s *Spec) Input() arch.Input {
	var in arch.Input
	for i, rv := range s.InitRegs {
		in.Regs[1+i] = rv
	}
	in.MemBase = DataBase
	in.Mem = append([]byte(nil), s.Mem...)
	in.MaxBlocks = RunMaxBlocks
	in.MaxCycles = RunMaxCycles
	return in
}

// Size is the shrinking metric: total ops plus blocks.  Smaller is a
// better reproducer.
func (s *Spec) Size() int {
	n := len(s.Blocks)
	for _, blk := range s.Blocks {
		n += len(blk.Ops)
	}
	return n
}

// Clone deep-copies the Spec so shrinking passes can mutate freely.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Mem = append([]byte(nil), s.Mem...)
	c.Blocks = make([]BlockSpec, len(s.Blocks))
	for i, blk := range s.Blocks {
		c.Blocks[i] = BlockSpec{Ops: append([]OpSpec(nil), blk.Ops...), Term: blk.Term}
	}
	return &c
}
