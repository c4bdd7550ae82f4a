package edgegen

import (
	"math/rand"

	"github.com/clp-sim/tflex/internal/isa"
)

// Generation ceilings.  Instruction budget per block after lowering:
// each op costs at most 4 instructions (store: and+add+store+null),
// fan-out movs are bounded by total operand uses, and a loop
// terminator adds 5 — maxOps*4 + uses + loop stays comfortably under
// the 128-instruction block limit, and memory ops stay under the
// 32-LSID limit.
const (
	minBlocks    = 2
	maxBlocks    = 6
	minOps       = 3
	maxOps       = 13
	maxMemPerBlk = 8
	maxTrips     = 4
)

// aluOps is the opcode pool for KALU/KALUImm.  Division and remainder
// are included deliberately: divide-by-zero is defined (result 0) and
// shared through exec.EvalALU, so it is exactly the kind of edge every
// executor must agree on.  The FP ops run on register bit patterns;
// all executors share one evaluator, so NaN propagation is identical.
var aluOps = []isa.Opcode{
	isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpDivU, isa.OpMod,
	isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSra,
	isa.OpEq, isa.OpNe, isa.OpLt, isa.OpLe, isa.OpLtU, isa.OpLeU,
	isa.OpFAdd, isa.OpFSub, isa.OpFMul,
}

// immOps excludes the FP opcodes, which cannot take immediates.
var immOps = aluOps[:len(aluOps)-3]

var memSizes = []uint8{1, 2, 4, 8}

// GenSpec deterministically generates a random valid program spec from
// the seed: same seed, same Spec, same program, same input — the
// property the corpus gate, seed replay (tflexsim -fuzz-seed) and
// native fuzzing all rely on.
func GenSpec(seed int64) *Spec {
	r := rand.New(rand.NewSource(seed))
	s := &Spec{Seed: seed}
	for i := range s.InitRegs {
		s.InitRegs[i] = r.Uint64()
	}
	s.Mem = make([]byte, DataBytes)
	r.Read(s.Mem)

	nb := minBlocks + r.Intn(maxBlocks-minBlocks+1)
	s.Blocks = make([]BlockSpec, nb)
	for bi := range s.Blocks {
		s.Blocks[bi] = genBlock(r, bi, nb)
	}
	return s
}

func genBlock(r *rand.Rand, bi, nb int) BlockSpec {
	nops := minOps + r.Intn(maxOps-minOps+1)
	blk := BlockSpec{Ops: make([]OpSpec, 0, nops)}
	memOps := 0
	// usable tracks value-producing slots, the legal operand pool.
	var usableBuf [maxOps]int
	usable := usableBuf[:0]
	var written [NumGenRegs + 1]bool
	pick := func() int { return usable[r.Intn(len(usable))] }
	for oi := 0; oi < nops; oi++ {
		op := genOp(r, len(usable) == 0, pick, &written, &memOps)
		if op.Kind.producesValue() {
			usable = append(usable, oi)
		}
		blk.Ops = append(blk.Ops, op)
	}

	last := bi == nb-1
	switch {
	case last:
		blk.Term = TermSpec{Kind: THalt}
	default:
		fwd := func() int { return bi + 1 + r.Intn(nb-bi-1) }
		switch r.Intn(5) {
		case 0:
			blk.Term = TermSpec{Kind: TBranch, To1: fwd()}
		case 1, 2:
			blk.Term = TermSpec{Kind: TBranchIf, P: pick(), To1: fwd(), To2: fwd()}
		case 3:
			blk.Term = TermSpec{Kind: TLoop, Trips: int64(1 + r.Intn(maxTrips)), To1: fwd()}
		default:
			blk.Term = TermSpec{Kind: TBranch, To1: bi + 1}
		}
	}
	return blk
}

// genOp draws one op; first is set while no earlier op of the block
// produces a value.
func genOp(r *rand.Rand, first bool, pick func() int, written *[NumGenRegs + 1]bool, memOps *int) OpSpec {
	op := OpSpec{A: -1, B: -1, C: -1, Guard: -1}
	// The first op of a block must produce a value so every later op
	// (and the terminator) has an operand pool.
	kind := r.Intn(10)
	if first {
		kind = r.Intn(2) // KConst or KRead
	}
	switch kind {
	case 0: // constant: small values dominate so compares/shifts bite
		op.Kind = KConst
		if r.Intn(4) == 0 {
			op.Imm = int64(r.Uint64())
		} else {
			op.Imm = int64(r.Intn(512)) - 128
		}
	case 1, 2:
		op.Kind = KRead
		op.Reg = uint8(1 + r.Intn(NumGenRegs))
	case 3, 4, 5:
		op.Kind = KALU
		op.Op = aluOps[r.Intn(len(aluOps))]
		op.A, op.B = pick(), pick()
	case 6:
		op.Kind = KALUImm
		op.Op = immOps[r.Intn(len(immOps))]
		op.A = pick()
		op.Imm = int64(r.Intn(256)) - 64
	case 7:
		if *memOps >= maxMemPerBlk {
			op.Kind = KRead
			op.Reg = uint8(1 + r.Intn(NumGenRegs))
			break
		}
		*memOps++
		op.Kind = KLoad
		op.A = pick()
		op.Size = memSizes[r.Intn(len(memSizes))]
		op.Signed = r.Intn(2) == 0
	case 8:
		if *memOps >= maxMemPerBlk {
			op.Kind = KSelect
			op.A, op.B, op.C = pick(), pick(), pick()
			break
		}
		*memOps++
		op.Kind = KStore
		op.A, op.B = pick(), pick()
		op.Size = memSizes[r.Intn(len(memSizes))]
		if r.Intn(2) == 0 {
			op.Guard = pick()
			op.GuardNeg = r.Intn(2) == 0
		}
	default:
		reg := uint8(1 + r.Intn(NumGenRegs))
		if written[reg] {
			// One write per register per block; fall back to a select
			// so the op still exercises predication.
			op.Kind = KSelect
			op.A, op.B, op.C = pick(), pick(), pick()
			break
		}
		written[reg] = true
		op.Kind = KWrite
		op.Reg = reg
		op.A = pick()
		if r.Intn(2) == 0 {
			op.Guard = pick()
			op.GuardNeg = r.Intn(2) == 0
		}
	}
	return op
}
