package sim

import (
	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/predictor"
)

// The decoded-block cache.  A block fetched N times used to be re-decoded
// N times: operand counts re-derived, fan-out targets re-walked, slices
// reallocated.  blockMeta captures everything about a block that is
// static for one composed processor — operand-needs templates, per-
// instruction core placement, write-slot and LSID lookup tables — so a
// fetch is a couple of memcopies from the template into a pooled IFB.
//
// Invariant: blockMeta is immutable after build.  Everything mutable
// per dynamic block instance lives in the IFB and is re-initialized by
// resetIFB from the template on every fetch (see DESIGN.md, "Pooling
// invariants").

type blockMeta struct {
	blk    *isa.Block
	blkIdx int // dense program index (violation-memo addressing)
	owner  int // participating-core index owning this block

	// Templates copied into the IFB on fetch: per-instruction operand
	// needs and producer counts, and per-write-slot producer counts.
	instInit []instTS
	wrInit   []wslot

	outputs int // writes + store mask + branch
	maxLSID int8

	instCore []uint8 // participating-core index per instruction ID
	nonNop   []int32 // dispatched (non-nop) instruction IDs, ascending

	// regSlot maps an architectural register to the block's write-slot
	// index for it, or -1 — the forwarding lookup on every register read.
	regSlot [isa.NumRegs]int8

	// lsidHasSlot bit l is set when the block has a store slot for LSID l;
	// lsidCover lists the instructions (stores and nullifies) that can
	// retire each slot; lsidCore is the core of the first memory
	// instruction carrying each LSID (owner when none).
	lsidHasSlot uint32
	lsidCover   [isa.MaxMemOps][]int32
	lsidCore    [isa.MaxMemOps]uint8
}

// buildBlockMeta decodes one block for an n-core composition.
func (p *Proc) buildBlockMeta(blk *isa.Block, blkIdx int) *blockMeta {
	m := &blockMeta{
		blk:      blk,
		blkIdx:   blkIdx,
		owner:    p.ownerIdx(blk.Addr),
		instInit: make([]instTS, len(blk.Insts)),
		wrInit:   make([]wslot, len(blk.Writes)),
		outputs:  len(blk.Writes) + blk.NumStores + 1, // + branch
		instCore: make([]uint8, len(blk.Insts)),
	}
	bump := func(t isa.Target) {
		switch t.Kind {
		case isa.TargetWrite:
			m.wrInit[t.Index].rem++
		case isa.TargetLeft:
			m.instInit[t.Index].left.rem++
		case isa.TargetRight:
			m.instInit[t.Index].right.rem++
		case isa.TargetPred:
			m.instInit[t.Index].pred.rem++
		}
	}
	for _, rd := range blk.Reads {
		for _, t := range rd.Targets {
			bump(t)
		}
	}
	for i := range blk.Insts {
		for _, t := range blk.Insts[i].Targets {
			bump(t)
		}
	}
	for i := range m.lsidCore {
		m.lsidCore[i] = uint8(m.owner)
	}
	lsidSeen := uint32(0)
	for i := range blk.Insts {
		in := &blk.Insts[i]
		st := &m.instInit[i]
		n := in.Op.NumOperands()
		st.left.need = n >= 1
		st.right.need = n >= 2 && !(in.HasImm && !in.Op.IsMem())
		st.pred.need = in.Pred != isa.PredNone
		m.instCore[i] = uint8(compose.InstCore(i, p.n))
		if in.Op != isa.OpNop {
			m.nonNop = append(m.nonNop, int32(i))
		}
		if in.Op.IsMem() {
			if in.LSID+1 > m.maxLSID {
				m.maxLSID = in.LSID + 1
			}
			if lsidSeen&(1<<uint(in.LSID)) == 0 {
				lsidSeen |= 1 << uint(in.LSID)
				m.lsidCore[in.LSID] = m.instCore[i]
			}
		}
		if in.Op == isa.OpStore {
			m.lsidHasSlot |= 1 << uint(in.LSID)
			m.lsidCover[in.LSID] = append(m.lsidCover[in.LSID], int32(i))
		}
		if in.Op == isa.OpNull && in.NullLSID >= 0 {
			m.lsidHasSlot |= 1 << uint(in.NullLSID)
			m.lsidCover[in.NullLSID] = append(m.lsidCover[in.NullLSID], int32(i))
		}
	}
	for r := range m.regSlot {
		m.regSlot[r] = -1
	}
	for i := len(blk.Writes) - 1; i >= 0; i-- {
		// First match wins, matching the original linear scan.
		m.regSlot[blk.Writes[i].Reg] = int8(i)
	}
	return m
}

// blockMeta returns the decoded metadata for the program's idx-th
// block, decoding it on first fetch.  The reference path rebuilds it
// every fetch so the cache itself is exercised differentially.
func (p *Proc) blockMeta(idx int) *blockMeta {
	blk := p.prog.Blocks[idx]
	if p.chip.Opts.Reference {
		return p.buildBlockMeta(blk, idx)
	}
	if p.meta == nil {
		p.meta = make([]*blockMeta, p.prog.NumBlocks())
	}
	if m := p.meta[idx]; m != nil {
		return m
	}
	m := p.buildBlockMeta(blk, idx)
	p.meta[idx] = m
	return m
}

// acquireIFB returns a recycled in-flight block, or a fresh one when the
// pool is empty (or on the reference path, which never pools).
func (p *Proc) acquireIFB() *IFB {
	if n := len(p.ifbFree); n > 0 && !p.chip.Opts.Reference {
		b := p.ifbFree[n-1]
		p.ifbFree[n-1] = nil
		p.ifbFree = p.ifbFree[:n-1]
		return b
	}
	return &IFB{}
}

// releaseIFB retires a committed or flushed block.  Bumping the
// generation invalidates every event, deferred load and read waiter still
// pointing at it — the guard that makes pooling safe.  The reference path
// bumps the generation too (identical event-drop behavior) but never
// reuses the storage.
func (p *Proc) releaseIFB(b *IFB) {
	b.gen++
	b.meta = nil
	b.blk = nil
	if p.chip.Opts.Reference {
		return
	}
	p.ifbFree = append(p.ifbFree, b)
}

// resetIFB initializes a (fresh or recycled) IFB from the decoded
// template.  Every field an execution can mutate is re-established here;
// slice capacity is the only state that survives recycling.
func resetIFB(b *IFB, p *Proc, m *blockMeta, seq uint64, hist predictor.History) {
	b.p = p
	b.meta = m
	b.blk = m.blk
	b.seq = seq
	b.owner = m.owner
	b.fetchHist = hist
	b.specNext = false
	b.pred = predictor.Prediction{}

	if cap(b.insts) < len(m.instInit) {
		b.insts = make([]instTS, len(m.instInit))
	} else {
		b.insts = b.insts[:len(m.instInit)]
	}
	copy(b.insts, m.instInit)
	if cap(b.wr) < len(m.wrInit) {
		b.wr = make([]wslot, len(m.wrInit))
	} else {
		b.wr = b.wr[:len(m.wrInit)]
	}
	copy(b.wr, m.wrInit) // template waiters are nil

	b.stores = b.stores[:0]
	b.storeDone = [isa.MaxMemOps]bool{}
	b.maxLSID = m.maxLSID
	b.loads = 0
	b.fired = 0
	b.useful = 0
	b.outputsPending = m.outputs
	b.completeAt = 0
	b.branchDone = false
	b.actual = branchOutZero
	b.dead = false
	b.phase = phaseExecuting
	b.deallocDone = false
	b.deallocAt = 0
	b.frIssued = false

	b.tFetchStart = 0
	b.constLat = 0
	b.handOffLat = 0
	b.bcastLat = 0
	b.dispatchLat = 0
	b.icacheStall = 0
	b.commitStart = 0

	if p.chip.critEnabled {
		p.resetCP(b, m)
	} else {
		b.cp = nil
	}
}
