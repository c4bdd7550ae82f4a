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
// pointing at it — the guard that makes pooling safe.  A block flushed
// before one of its writes resolved still holds that slot's read-waiter
// list, which goes back to p.waiterFree here on either engine.  The
// reference path bumps the generation too (identical event-drop
// behavior) but never reuses the block's storage.
func (p *Proc) releaseIFB(b *IFB) {
	b.gen++
	b.lk = nil
	b.blk = nil
	for i := range b.wr {
		if w := b.wr[i].waiters; w != nil {
			b.wr[i].waiters = nil
			p.recycleWaiters(w)
		}
	}
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

	// One state per live instruction, at its position in Live (IFB.inst):
	// Validate rejects a target field naming an unused slot, so no other
	// slot is ever read.
	if cap(b.insts) < len(lk.Live) {
		b.insts = make([]instTS, len(lk.Live))
	} else {
		b.insts = b.insts[:len(lk.Live)]
	}
	for pos, id := range lk.Live {
		li := &lk.Insts[id]
		b.insts[pos] = instTS{
			rem:  [3]int16{int16(li.Left.Producers), int16(li.Right.Producers), int16(li.Pred.Producers)},
			need: [3]bool{li.Left.Need, li.Right.Need, li.Pred.Need},
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
