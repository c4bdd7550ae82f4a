package isa

import (
	"errors"
	"fmt"
	"math/bits"
)

// BlockBytes is the instruction-cache footprint of one block.  Blocks are
// fixed-size chunks (as in TRIPS, where the compiler pads blocks to the
// 128-instruction format): a header plus 128 instruction slots.
const BlockBytes = 1 << 10

// ReadSlot injects an architectural register value into the block's
// dataflow graph.  Reads are part of the block header and are dispatched to
// the register bank holding Reg.
type ReadSlot struct {
	Reg     uint8
	Targets []Target
}

// WriteSlot names an architectural register written by the block.  The
// value arrives from an instruction (or read) targeting the slot; a null
// arrival leaves the register unchanged.
type WriteSlot struct {
	Reg uint8
}

// Block is one EDGE code block: the atomic unit of fetch, execution and
// commit.  Addr is assigned when the program is laid out.
type Block struct {
	Name string
	Addr uint64

	Reads  []ReadSlot
	Writes []WriteSlot
	Insts  []Inst

	// NumStores is the cardinality of the store mask: how many store LSIDs
	// must complete (store or be nulled) before the block can commit.
	NumStores int
}

// blockPart names a read slot or an instruction in a Validate message.
// It is a value, rendered only when a message is: a valid block formats
// nothing.
type blockPart struct {
	read bool
	i    int
	op   Opcode
}

func (w blockPart) String() string {
	if w.read {
		return fmt.Sprintf("read %d", w.i)
	}
	return fmt.Sprintf("inst %d (%s)", w.i, w.op)
}

// Validate checks every architectural constraint on the block encoding.
func (b *Block) Validate() error {
	if len(b.Insts) == 0 {
		return fmt.Errorf("block %s: empty", b.Name)
	}
	if len(b.Insts) > MaxBlockInsts {
		return fmt.Errorf("block %s: %d instructions exceeds %d", b.Name, len(b.Insts), MaxBlockInsts)
	}
	if len(b.Reads) > MaxReads {
		return fmt.Errorf("block %s: %d reads exceeds %d", b.Name, len(b.Reads), MaxReads)
	}
	if len(b.Writes) > MaxWrites {
		return fmt.Errorf("block %s: %d writes exceeds %d", b.Name, len(b.Writes), MaxWrites)
	}
	var errs []error
	checkTargets := func(who blockPart, targets []Target) {
		if len(targets) > MaxTargets {
			errs = append(errs, fmt.Errorf("block %s: %s has %d targets (max %d)", b.Name, who, len(targets), MaxTargets))
		}
		for _, t := range targets {
			switch t.Kind {
			case TargetWrite:
				if int(t.Index) >= len(b.Writes) {
					errs = append(errs, fmt.Errorf("block %s: %s targets write slot %d of %d", b.Name, who, t.Index, len(b.Writes)))
				}
			default:
				if int(t.Index) >= len(b.Insts) {
					errs = append(errs, fmt.Errorf("block %s: %s targets instruction %d of %d", b.Name, who, t.Index, len(b.Insts)))
					continue
				}
				dst := &b.Insts[t.Index]
				if dst.Op == OpNop {
					// Executors keep state for live slots only.
					errs = append(errs, fmt.Errorf("block %s: %s targets unused slot %d", b.Name, who, t.Index))
				}
				if t.Kind == TargetPred && dst.Pred == PredNone {
					errs = append(errs, fmt.Errorf("block %s: %s targets predicate of unpredicated inst %d", b.Name, who, t.Index))
				}
				if t.Kind == TargetRight && dst.Op.NumOperands() < 2 {
					errs = append(errs, fmt.Errorf("block %s: %s targets right operand of 1-operand inst %d", b.Name, who, t.Index))
				}
			}
		}
	}
	for i, r := range b.Reads {
		if int(r.Reg) >= NumRegs {
			errs = append(errs, fmt.Errorf("block %s: read %d of invalid register %d", b.Name, i, r.Reg))
		}
		checkTargets(blockPart{read: true, i: i}, r.Targets)
	}
	for i, w := range b.Writes {
		if int(w.Reg) >= NumRegs {
			errs = append(errs, fmt.Errorf("block %s: write %d of invalid register %d", b.Name, i, w.Reg))
		}
	}
	memIDs := map[int8]bool{}
	storeMask := uint32(0) // LSIDs that are store slots
	branches, unpredicated := 0, 0
	for i := range b.Insts {
		in := &b.Insts[i]
		who := blockPart{i: i, op: in.Op}
		checkTargets(who, in.Targets)
		if in.Op.IsMem() {
			if in.LSID < 0 || int(in.LSID) >= MaxMemOps {
				errs = append(errs, fmt.Errorf("block %s: %s has invalid LSID %d", b.Name, who, in.LSID))
			} else if in.Op == OpStore {
				storeMask |= 1 << uint(in.LSID)
				// Duplicate store LSIDs are allowed only across predicate
				// arms; the builder guarantees complementary predication,
				// so here we only require that duplicates be predicated.
				if memIDs[in.LSID] && in.Pred == PredNone {
					errs = append(errs, fmt.Errorf("block %s: %s reuses LSID %d without predication", b.Name, who, in.LSID))
				}
			}
			memIDs[in.LSID] = true
			switch in.MemSize {
			case 1, 2, 4, 8:
			default:
				errs = append(errs, fmt.Errorf("block %s: %s has invalid size %d", b.Name, who, in.MemSize))
			}
		}
		if in.Op == OpNull && in.NullLSID >= 0 {
			if in.Pred == PredNone {
				errs = append(errs, fmt.Errorf("block %s: %s nullifies store %d unconditionally", b.Name, who, in.NullLSID))
			}
			if int(in.NullLSID) >= MaxMemOps {
				errs = append(errs, fmt.Errorf("block %s: %s nullifies invalid LSID %d", b.Name, who, in.NullLSID))
			} else {
				storeMask |= 1 << uint(in.NullLSID)
			}
		}
		if in.Op.IsBranch() {
			branches++
			if in.Pred == PredNone {
				unpredicated++
			}
			if in.Exit >= NumExits {
				errs = append(errs, fmt.Errorf("block %s: %s exit %d out of range", b.Name, who, in.Exit))
			}
			if (in.Op == OpBro || in.Op == OpCallo) && in.BranchTo == "" {
				errs = append(errs, fmt.Errorf("block %s: %s missing target label", b.Name, who))
			}
		}
	}
	if branches == 0 {
		errs = append(errs, fmt.Errorf("block %s: no branch", b.Name))
	}
	if unpredicated > 1 {
		// Both would fire: the executors disagree on which one commits.
		errs = append(errs, fmt.Errorf("block %s: %d unpredicated branches", b.Name, unpredicated))
	}
	if n := bits.OnesCount32(storeMask); b.NumStores != n {
		// The block completes after NumStores store slots resolve; any other
		// count commits it early or never.
		errs = append(errs, fmt.Errorf("block %s: store mask %d, but %d store slots", b.Name, b.NumStores, n))
	}
	return errors.Join(errs...)
}

// String renders the block for debugging.
func (b *Block) String() string {
	s := fmt.Sprintf("block %s @%#x (reads=%d writes=%d stores=%d insts=%d)\n",
		b.Name, b.Addr, len(b.Reads), len(b.Writes), b.NumStores, len(b.Insts))
	for i, r := range b.Reads {
		s += fmt.Sprintf("  read[%d] r%d", i, r.Reg)
		for _, t := range r.Targets {
			s += " ->" + t.String()
		}
		s += "\n"
	}
	for i, w := range b.Writes {
		s += fmt.Sprintf("  write[%d] r%d\n", i, w.Reg)
	}
	for i := range b.Insts {
		s += fmt.Sprintf("  [%3d] %s\n", i, b.Insts[i].String())
	}
	return s
}
