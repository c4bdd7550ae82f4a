package exec

import (
	"slices"

	"github.com/clp-sim/tflex/internal/isa"
)

// TraceEntry is one dynamic instruction in the linearized trace consumed by
// the conventional-superscalar model.  Fan-out movs are elided (their
// consumers depend directly on the mov's producer), and register
// reads/writes become cross-entry dependences, so the trace approximates
// what a conventional compiler would have emitted for the same dataflow.
type TraceEntry struct {
	Op         isa.Opcode
	PC         uint64
	Src1, Src2 int32 // producer trace indices; -1 = none/architectural
	Addr       uint64
	Size       uint8
	Val        uint64 // store data value (stores only)
	LSID       int8   // within-block memory program order (mem ops only, else -1)
	IsLoad     bool
	IsStore    bool
	IsBranch   bool
	Taken      bool
	Target     uint64
}

// Trace accumulates linearized dynamic instructions.
type Trace struct {
	Entries []TraceEntry
	// Blocks holds the starting entry index of each dynamic block, so
	// consumers can recover block boundaries (entries within a block are
	// in instruction-ID order, not LSID order).
	Blocks    []int
	Truncated bool // entries were dropped after hitting Limit
	Limit     int  // maximum entries (0 = default)
}

// DefaultTraceLimit bounds trace memory for runaway programs.
const DefaultTraceLimit = 8 << 20

func (t *Trace) limit() int {
	if t.Limit > 0 {
		return t.Limit
	}
	return DefaultTraceLimit
}

// src encoding inside a block run: values >= 0 are global trace indices
// (cross-block producers); -1 is "no producer"; values <= -2 encode local
// instruction node indices as -(idx+2), resolved when the block's entries
// are appended to the trace.
func localSrc(idx int) int32 { return int32(-(idx + 2)) }

// emitTrace appends the block's fired instructions to the trace in
// program order.  Once a block has been dropped for exceeding the limit,
// tracing stops for good: a later, smaller block would leave a hole and
// resolve its register sources against a stale regSrc.
func (r *blockRun) emitTrace() {
	t := r.trace
	if t == nil || t.Truncated {
		return
	}
	// Program order: instruction IDs ascending (they are distinct).
	ids := r.firedIDs
	slices.Sort(ids)
	base := len(t.Entries)
	if base+len(ids) > t.limit() {
		t.Truncated = true
		return // stop tracing; callers check Truncated
	}
	t.Blocks = append(t.Blocks, base)
	// Every local source names a fired producer, so it is in ids.  One not
	// yet appended (a higher ID than its consumer) resolves to -1.
	r.global = grow(r.global, len(r.lk.Live))
	for _, idx := range ids {
		r.global[r.lk.LivePos[idx]] = -1
	}
	for _, idx := range ids {
		in := &r.b.Insts[idx]
		st, li := r.inst(idx), &r.lk.Insts[idx]
		r.global[r.lk.LivePos[idx]] = int32(len(t.Entries))
		e := TraceEntry{
			Op:   in.Op,
			PC:   r.b.Addr + uint64(idx)*4,
			LSID: -1,
		}
		switch {
		case in.Op == isa.OpLoad:
			e.IsLoad = true
			e.Addr = st.left.val + uint64(in.Imm)
			e.Size = in.MemSize
			e.LSID = in.LSID
			e.Src1 = r.resolve(st.left.src)
		case in.Op == isa.OpStore:
			e.IsStore = true
			e.Addr = st.left.val + uint64(in.Imm)
			e.Size = in.MemSize
			e.Val = st.right.val
			e.LSID = in.LSID
			e.Src1 = r.resolve(st.left.src)
			e.Src2 = r.resolve(st.right.src)
		case in.Op.IsBranch():
			e.IsBranch = true
			e.Target = r.res.Branch.Target
			// Taken if the target is not the next sequential block.
			e.Taken = r.res.Branch.Target != r.b.Addr+uint64(isa.BlockBytes)
			e.Src1 = r.resolve(st.left.src)
			e.Src2 = -1
		default:
			e.Src1 = -1
			e.Src2 = -1
			if li.Left.Need {
				e.Src1 = r.resolve(st.left.src)
			}
			if li.Right.Need {
				e.Src2 = r.resolve(st.right.src)
			}
		}
		if in.Pred != isa.PredNone && e.Src2 < 0 {
			// The predicate is a real data dependence in conventional code
			// (it would be a compare+cmov or branch); model it as a source.
			e.Src2 = r.resolve(st.pred.src)
		}
		t.Entries = append(t.Entries, e)
	}
	// Update the machine-level register producer map with global indices.
	if r.regSrc != nil {
		for i := range r.wr {
			if r.wr[i].got {
				r.regSrc[r.b.Writes[i].Reg] = r.resolve(r.wr[i].src)
			}
		}
	}
}

// resolve maps a source in the block-run encoding to a global trace index.
func (r *blockRun) resolve(src int32) int32 {
	if src >= -1 {
		return src
	}
	return r.global[r.lk.LivePos[-(src+2)]]
}
