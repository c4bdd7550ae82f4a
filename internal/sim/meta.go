package sim

import (
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/predictor"
	"github.com/clp-sim/tflex/internal/prog"
)

// In-flight block storage.  A fetch decodes nothing: everything static
// about a block — operand needs, producer counts, live instruction IDs,
// the store-slot mask and its cover lists — is the program's prog.Linked,
// built once at layout and shared by every processor and engine, and
// placement is Proc.instCore, a function of (instruction ID, core count).
// What is left here is the mutable half: an IFB is taken from the
// processor's free list, re-initialized from the linked counts, and
// returned when the block commits or is flushed (see DESIGN.md, "Pooling
// invariants").

// acquireIFB returns a recycled in-flight block, or a fresh one when the
// pool is empty (it always is on a Reference chip: see releaseIFB).
func (p *Proc) acquireIFB() *IFB {
	if n := len(p.ifbFree); n > 0 {
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
	b.lk = nil
	b.blk = nil
	if p.chip.Opts.Reference {
		return
	}
	p.ifbFree = append(p.ifbFree, b)
}

// resetIFB initializes a (fresh or recycled) IFB for one fetch of the
// linked block.  Every field an execution can mutate is re-established
// here; slice capacity is the only state that survives recycling.
func resetIFB(b *IFB, p *Proc, lk *prog.Linked, seq uint64, hist predictor.History) {
	b.p = p
	b.lk = lk
	b.blk = lk.Block
	b.seq = seq
	b.owner = p.ownerIdx(lk.Block.Addr)
	b.fetchHist = hist
	b.specNext = false
	b.pred = predictor.Prediction{}

	if cap(b.insts) < len(lk.Insts) {
		b.insts = make([]instTS, len(lk.Insts))
	} else {
		b.insts = b.insts[:len(lk.Insts)]
	}
	// Only live slots are reset, because only they are ever read: Validate
	// rejects a target field naming an unused slot.
	for _, id := range lk.Live {
		li := &lk.Insts[id]
		b.insts[id] = instTS{
			left:  tslot{need: li.Left.Need, rem: int16(li.Left.Producers)},
			right: tslot{need: li.Right.Need, rem: int16(li.Right.Producers)},
			pred:  tslot{need: li.Pred.Need, rem: int16(li.Pred.Producers)},
		}
	}
	if cap(b.wr) < len(lk.WriteProducers) {
		b.wr = make([]wslot, len(lk.WriteProducers))
	} else {
		b.wr = b.wr[:len(lk.WriteProducers)]
	}
	for i, n := range lk.WriteProducers {
		b.wr[i] = wslot{rem: int(n)}
	}

	b.stores = b.stores[:0]
	b.storeDone = [isa.MaxMemOps]bool{}
	b.faultIdx = -1
	b.loads = 0
	b.fired = 0
	b.useful = 0
	b.outputsPending = lk.Outputs
	b.completeAt = 0
	b.branchDone = false
	b.actual = branchOutZero
	b.dead = false
	b.phase = phaseExecuting
	b.deallocDone = false
	b.deallocAt = 0

	b.tFetchStart = 0
	b.constLat = 0
	b.handOffLat = 0
	b.bcastLat = 0
	b.dispatchLat = 0
	b.icacheStall = 0
	b.commitStart = 0

	if p.chip.critEnabled {
		p.resetCP(b, lk)
	} else {
		b.cp = nil
	}
}
