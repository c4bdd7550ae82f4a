package isa

import "fmt"

// Architectural limits, matching the TRIPS ISA.
const (
	MaxBlockInsts = 128 // instructions per block
	MaxReads      = 32  // register read slots per block
	MaxWrites     = 32  // register write slots per block
	MaxMemOps     = 32  // load/store IDs per block
	NumRegs       = 128 // architectural registers
	MaxTargets    = 2   // explicit targets per instruction (fan-out uses movs)
	NumExits      = 8   // 3 exit bits per branch
)

// TargetKind selects which input of the consumer a target field names.
type TargetKind uint8

const (
	TargetLeft  TargetKind = iota // left operand of an instruction
	TargetRight                   // right operand of an instruction
	TargetPred                    // predicate operand of an instruction
	TargetWrite                   // a register write slot of the block
)

func (k TargetKind) String() string {
	switch k {
	case TargetLeft:
		return "L"
	case TargetRight:
		return "R"
	case TargetPred:
		return "P"
	case TargetWrite:
		return "W"
	}
	return "?"
}

// Target is a decoded 9-bit target field: two bits of kind and seven bits of
// destination index.  For TargetLeft/Right/Pred the index is an instruction
// ID within the block (0..127); for TargetWrite it is a write-slot index.
type Target struct {
	Kind  TargetKind
	Index uint8
}

// Encode packs the target into the 9-bit wire format used by the ISA.
func (t Target) Encode() uint16 {
	return uint16(t.Kind)<<7 | uint16(t.Index&0x7f)
}

// DecodeTarget unpacks a 9-bit target field.
func DecodeTarget(bits uint16) Target {
	return Target{Kind: TargetKind((bits >> 7) & 0x3), Index: uint8(bits & 0x7f)}
}

func (t Target) String() string { return fmt.Sprintf("%s[%d]", t.Kind, t.Index) }

// PredKind states how an instruction is predicated.
type PredKind uint8

const (
	PredNone    PredKind = iota // not predicated
	PredOnTrue                  // fires only if the predicate operand is non-zero
	PredOnFalse                 // fires only if the predicate operand is zero
)

func (p PredKind) String() string {
	switch p {
	case PredOnTrue:
		return "_t"
	case PredOnFalse:
		return "_f"
	}
	return ""
}

// Inst is one EDGE instruction.  The zero value is a nop.
type Inst struct {
	Op   Opcode
	Pred PredKind

	// Imm is the immediate: the constant for OpGenC, the right operand for
	// two-operand integer ops with HasImm set, or the address offset for
	// loads and stores.
	Imm    int64
	HasImm bool

	// Targets lists the consumers of this instruction's result.
	Targets []Target

	// LSID orders memory operations within the block (0..31).  Set for
	// OpLoad, OpStore, and store-nullifying OpNull (NullLSID >= 0).
	LSID int8
	// NullLSID distinguishes an OpNull that retires a store slot (>= 0,
	// the LSID retired) from one that nullifies register writes (-1).
	NullLSID int8

	// MemSize is the access width in bytes (1, 2, 4 or 8) and MemSigned
	// selects sign extension for sub-word loads.
	MemSize   uint8
	MemSigned bool

	// Exit is the 3-bit exit number carried by branches.
	Exit uint8
	// BranchTo names the target block of OpBro/OpCallo; resolved to an
	// address when the program is laid out.
	BranchTo string
	// TargetAddr is the laid-out address of BranchTo, filled by program
	// layout so branch execution never repeats the name lookup (0 until
	// layout runs; block addresses are never 0).
	TargetAddr uint64
}

// String renders the instruction in a readable assembly-like form.
func (in *Inst) String() string {
	s := in.Op.String() + in.Pred.String()
	if in.Op.IsMem() {
		s += fmt.Sprintf(" lsid=%d size=%d off=%d", in.LSID, in.MemSize, in.Imm)
	} else if in.HasImm {
		s += fmt.Sprintf(" #%d", in.Imm)
	}
	if in.Op.IsBranch() {
		s += fmt.Sprintf(" exit=%d", in.Exit)
		if in.BranchTo != "" {
			s += " " + in.BranchTo
		}
	}
	for _, t := range in.Targets {
		s += " ->" + t.String()
	}
	return s
}
