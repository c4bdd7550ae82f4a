package prog

import "github.com/clp-sim/tflex/internal/isa"

// Operand is the static half of one operand slot: whether the instruction
// waits on it, and how many target fields in the block name it.
type Operand struct {
	Need      bool
	Producers uint8
}

// LinkedInst holds one instruction slot's three operand slots.  Left is
// needed when the opcode takes an operand; Right when it takes two and no
// immediate stands in for the second (a memory operation's immediate is an
// address offset, not an operand); Pred when the instruction is predicated.
type LinkedInst struct{ Left, Right, Pred Operand }

// Linked is the decoded form of one block: everything an executor derives
// from the encoding before it can run the block.  Program.layout builds it
// once; the functional executor and both timing engines read it and
// decode nothing themselves.  It depends on the block alone, never on a
// composition — placement is a function of (instruction ID, core count)
// the timing model applies on top (paper §4.1) — and it is read-only, so
// any number of machines and chips may share one Program.
type Linked struct {
	Block *isa.Block
	Index int // Program.Blocks[Index] == Block

	Insts []LinkedInst // by instruction ID
	// WriteProducers[w] counts the target fields naming write slot w.
	WriteProducers []uint8
	// Live lists the non-nop instruction IDs, ascending: the slots that are
	// dispatched and — Validate rejects a target field naming any other —
	// the only ones an executor keeps state for.
	Live []int32
	// LivePos is the inverse of Live: LivePos[id] is instruction id's
	// position in Live, or -1 for a nop or an ID past the block's end.
	LivePos [isa.MaxBlockInsts]int8
	// Outputs is what the block must produce to complete: every write
	// slot, every store slot (Block.NumStores) and one branch.
	Outputs int
	// MaxLSID is one past the largest LSID of a load or store or NullLSID
	// of a null; 0 when the block has none.
	MaxLSID int8
	// StoreMask has bit l set when LSID l is a store slot: a store carries
	// LSID l or a null carries NullLSID l.  Cover[l] lists those
	// instructions, ascending — the ones that can resolve the slot.
	StoreMask uint32
	Cover     [isa.MaxMemOps][]int32
	// FirstMem[l] is the lowest-numbered load or store with LSID l, or -1;
	// Loads[l] lists every load with LSID l, ascending.
	FirstMem [isa.MaxMemOps]int16
	Loads    [isa.MaxMemOps][]int32
	// RegSlot[r] is the lowest-numbered write slot naming register r, or -1.
	RegSlot [isa.NumRegs]int8
}

// Linked returns the decoded form of the i-th block.
func (p *Program) Linked(i int) *Linked { return &p.linked[i] }

// link decodes b, the program's idx-th block; Validate has accepted it.
func link(b *isa.Block, idx int) Linked {
	l := Linked{
		Block:          b,
		Index:          idx,
		Insts:          make([]LinkedInst, len(b.Insts)),
		WriteProducers: make([]uint8, len(b.Writes)),
		Outputs:        len(b.Writes) + b.NumStores + 1,
	}
	count := func(targets []isa.Target) {
		for _, t := range targets {
			switch t.Kind {
			case isa.TargetWrite:
				l.WriteProducers[t.Index]++
			case isa.TargetLeft:
				l.Insts[t.Index].Left.Producers++
			case isa.TargetRight:
				l.Insts[t.Index].Right.Producers++
			case isa.TargetPred:
				l.Insts[t.Index].Pred.Producers++
			}
		}
	}
	for i := range b.Reads {
		count(b.Reads[i].Targets)
	}
	// Live and every Cover and Loads list are carved from one slice, each
	// capped at its own length.
	var nLive int
	var nLoads, nCover [isa.MaxMemOps]int
	for i := range b.Insts {
		switch in := &b.Insts[i]; {
		case in.Op == isa.OpNop:
			continue
		case in.Op == isa.OpLoad:
			nLoads[in.LSID]++
		case in.Op == isa.OpStore:
			nCover[in.LSID]++
		case in.Op == isa.OpNull && in.NullLSID >= 0:
			nCover[in.NullLSID]++
		}
		nLive++
	}
	total := nLive
	for lsid := range nLoads {
		total += nLoads[lsid] + nCover[lsid]
	}
	ids := make([]int32, total)
	carve := func(n int) []int32 {
		if n == 0 {
			return nil
		}
		s := ids[:0:n]
		ids = ids[n:]
		return s
	}
	l.Live = carve(nLive)
	for lsid := range nLoads {
		l.Loads[lsid] = carve(nLoads[lsid])
		l.Cover[lsid] = carve(nCover[lsid])
	}
	for i := range l.FirstMem {
		l.FirstMem[i] = -1
	}
	for i := range l.LivePos {
		l.LivePos[i] = -1
	}
	storeSlot := func(lsid int8, i int) {
		l.StoreMask |= 1 << uint(lsid)
		l.Cover[lsid] = append(l.Cover[lsid], int32(i))
		l.MaxLSID = max(l.MaxLSID, lsid+1)
	}
	for i := range b.Insts {
		in := &b.Insts[i]
		count(in.Targets)
		n := in.Op.NumOperands()
		li := &l.Insts[i]
		li.Left.Need = n >= 1
		li.Right.Need = n >= 2 && !(in.HasImm && !in.Op.IsMem())
		li.Pred.Need = in.Pred != isa.PredNone
		if in.Op != isa.OpNop {
			l.LivePos[i] = int8(len(l.Live))
			l.Live = append(l.Live, int32(i))
		}
		if in.Op.IsMem() && l.FirstMem[in.LSID] < 0 {
			l.FirstMem[in.LSID] = int16(i)
		}
		switch {
		case in.Op == isa.OpLoad:
			l.Loads[in.LSID] = append(l.Loads[in.LSID], int32(i))
			l.MaxLSID = max(l.MaxLSID, in.LSID+1)
		case in.Op == isa.OpStore:
			storeSlot(in.LSID, i)
		case in.Op == isa.OpNull && in.NullLSID >= 0:
			storeSlot(in.NullLSID, i)
		}
	}
	for r := range l.RegSlot {
		l.RegSlot[r] = -1
	}
	for w := len(b.Writes) - 1; w >= 0; w-- {
		l.RegSlot[b.Writes[w].Reg] = int8(w)
	}
	return l
}
