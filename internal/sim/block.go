package sim

import (
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/mem"
	"github.com/clp-sim/tflex/internal/predictor"
	"github.com/clp-sim/tflex/internal/prog"
)

type phase int

const (
	phaseExecuting phase = iota
	phaseComplete
	phaseCommitting
)

type instStatus uint8

const (
	stWaiting instStatus = iota
	stIssued
	stSquashed
	stDead
)

// instTS is one live instruction's in-flight state, kept at the
// instruction's position in prog.Linked.Live (IFB.inst), not at its slot
// ID: a block names up to 128 slots but runs few of them.  resetIFB makes
// (Reference) or rewrites (pooled) one per live instruction per fetch, so
// its size is fetch cost.  Operand fields are indexed by isa.TargetKind
// (left, right, predicate); a predicate is tested when it arrives and
// never read again, so only the left and right values are kept.  rem
// counts down from a prog.Operand's uint8 Producers.  next chains the
// instructions that reach the window in the same cycle (fetchBlock): the
// next one's position in Live, or -1.
type instTS struct {
	val     [2]uint64
	at      [3]uint64
	availAt uint64
	rem     [3]int16
	next    int16
	need    [3]bool
	got     [3]bool
	status  instStatus
	avail   bool
}

type readWaiter struct {
	b       *IFB
	gen     uint32 // b's generation when the wait was filed
	readIdx int
	t       uint64
}

// live reports whether the waiter's block is still the one that filed it.
func (w *readWaiter) live() bool { return w.b.gen == w.gen && !w.b.dead }

type wslot struct {
	rem      int
	resolved bool
	has      bool
	val      uint64
	bankAt   uint64
	waiters  []readWaiter
}

type firedStore struct {
	key  mem.MemKey
	addr uint64
	size uint8
	val  uint64
}

var branchOutZero exec.BranchOut

// IFB is one in-flight block on a logical processor.  IFBs are pooled:
// a retired block's storage is recycled for a later fetch, with gen
// incremented so stale events referencing the old incarnation are inert
// (see resetIFB for the full reset contract).
type IFB struct {
	p     *Proc
	lk    *prog.Linked // the block's decoded form, shared and read-only
	blk   *isa.Block   // lk.Block
	seq   uint64
	gen   uint32 // incremented on release to the pool
	owner int    // participating-core index

	specNext  bool
	pred      predictor.Prediction
	fetchHist predictor.History

	insts []instTS
	wr    []wslot

	stores         []firedStore
	storeDone      [isa.MaxMemOps]bool // store LSIDs resolved (stored or nulled)
	loads          int
	fired          int
	useful         int
	outputsPending int
	completeAt     uint64
	branchDone     bool
	actual         exec.BranchOut
	dead           bool
	phase          phase
	deallocDone    bool
	deallocAt      uint64

	// A misaligned access this incarnation executed: the instruction (-1:
	// none) and its address.  It fails the run only once it is known to be
	// architectural (raiseFault); a flushed block takes it along.
	faultIdx  int32
	faultAddr uint64

	// Fetch timing records (Figure 9a).  tFetchStart is the cycle the
	// fetch pipeline began (prediction + hand-off receipt); the phase
	// boundaries exported in BlockEvent derive from it and the component
	// latencies below.
	tFetchStart uint64
	constLat    uint64
	handOffLat  uint64
	bcastLat    uint64
	dispatchLat uint64
	icacheStall uint64

	// commitStart is the cycle the four-phase commit protocol launched
	// (Figure 9b), recorded for BlockEvent/commit-latency telemetry.
	commitStart uint64

	// cp is the critical-path attribution record of this incarnation:
	// cpKept, the record the IFB keeps across incarnations, when
	// Chip.EnableCritPath was called, and nil otherwise — every stamp
	// below is gated on a nil check, mirroring the telemetry
	// disabled-cost contract.  Recording is passive: it never feeds back
	// into scheduling, so architectural results are identical either way.
	cp, cpKept *critpath.Block
}

// instCoreIdx returns the participating-core index executing instruction id.
func (b *IFB) instCoreIdx(id int) int { return int(b.p.instCore[id]) }

// inst returns instruction id's in-flight state, which sits at id's
// position in Live.
func (b *IFB) inst(id int) *instTS { return &b.insts[b.lk.LivePos[id]] }

// cpInst returns instruction id's attribution record, which sits at id's
// position in Live: records are kept per live instruction, not per ID.
func (b *IFB) cpInst(id int) *critpath.Inst { return &b.cp.Insts[b.lk.LivePos[id]] }

// deliver processes one operand/write arrival (or dead token) at cycle t.
func (p *Proc) deliver(b *IFB, target isa.Target, val uint64, dead bool, fromIdx int, t uint64) {
	if b.dead {
		return
	}
	if target.Kind == isa.TargetWrite {
		p.deliverWrite(b, int(target.Index), val, dead, fromIdx, t)
		return
	}
	idx, k := int(target.Index), target.Kind
	st := b.inst(idx)
	st.rem[k]--
	if dead {
		if st.rem[k] == 0 && !st.got[k] && st.status == stWaiting {
			p.kill(b, idx, stDead, t)
		}
		return
	}
	if st.status != stWaiting {
		return // late arrival at squashed/dead instruction
	}
	if st.got[k] {
		p.chip.fail("proc %d block %s inst %d: two values at one operand", p.id, b.blk.Name, idx)
		return
	}
	st.got[k], st.at[k] = true, t
	if k != isa.TargetPred {
		st.val[k] = val
	} else if !exec.PredMatches(b.blk.Insts[idx].Pred, val) {
		p.kill(b, idx, stSquashed, t)
		return
	}
	p.maybeIssue(b, idx)
}

// deliverWrite resolves a register write slot with a value or dead token.
func (p *Proc) deliverWrite(b *IFB, wi int, val uint64, dead bool, fromIdx int, t uint64) {
	w := &b.wr[wi]
	w.rem--
	reg := b.blk.Writes[wi].Reg
	if !dead {
		if w.has {
			p.chip.fail("proc %d block %s: two values at write slot %d", p.id, b.blk.Name, wi)
			return
		}
		bank := p.regBankIdx(reg)
		w.has = true
		w.val = val
		w.bankAt = p.opnSend(fromIdx, bank, t)
		w.resolved = true
		p.serveWriteWaiters(b, wi, w.bankAt)
		arr := p.ctlSend(bank, b.owner, w.bankAt)
		if b.cp != nil {
			cw := &b.cp.Writes[wi]
			cw.SendAt = t
			cw.BankAt = w.bankAt
			cw.BankIdeal = p.opnIdeal(fromIdx, bank)
		}
		p.outputDone(b, arr, critpath.OutWrite, int32(wi))
		return
	}
	if w.rem == 0 && !w.has && !w.resolved {
		// Null write: all producers squashed/dead; the register keeps its
		// old value.
		w.resolved = true
		p.serveWriteWaiters(b, wi, t)
		bank := p.regBankIdx(reg)
		arr := p.ctlSend(bank, b.owner, t)
		if b.cp != nil {
			cw := &b.cp.Writes[wi]
			cw.Null = true
			cw.SendAt = t
		}
		p.outputDone(b, arr, critpath.OutWrite, int32(wi))
	}
}

// serveWriteWaiters re-resolves every read that was waiting on write
// slot wi, then recycles the drained list through p.waiterFree.  The
// slot is resolved before the drain, so nothing re-appends to the list
// being walked; lists the walk files on other slots come off the free
// list, which does not hold this one yet.
func (p *Proc) serveWriteWaiters(b *IFB, wi int, t uint64) {
	w := &b.wr[wi]
	waiters := w.waiters
	if waiters == nil {
		return
	}
	w.waiters = nil
	for i := range waiters {
		wt := &waiters[i]
		if !wt.live() {
			continue
		}
		at := wt.t
		if t > at {
			at = t
		}
		p.resolveRead(wt.b, wt.readIdx, at)
	}
	p.recycleWaiters(waiters)
}

// recycleWaiters empties a read-waiter list onto p.waiterFree.
func (p *Proc) recycleWaiters(waiters []readWaiter) {
	clear(waiters) // the free list must not pin retired blocks
	p.waiterFree = append(p.waiterFree, waiters[:0])
}

// kill squashes or deadens an instruction and propagates dead tokens.
func (p *Proc) kill(b *IFB, idx int, status instStatus, t uint64) {
	st := b.inst(idx)
	if st.status != stWaiting {
		return
	}
	st.status = status
	in := &b.blk.Insts[idx]
	if in.Op == isa.OpStore {
		p.resolveStoreSlot(b, in.LSID, t, true)
	}
	if in.Op == isa.OpNull && in.NullLSID >= 0 {
		p.resolveStoreSlot(b, in.NullLSID, t, true)
	}
	for _, tg := range in.Targets {
		p.deliver(b, tg, 0, true, b.instCoreIdx(idx), t)
	}
}

// resolveStoreSlot marks a store LSID retired (stored, nulled, or dead).
// deadArm distinguishes the squashed arm of a predicated store pair, which
// only retires the slot when its partner is also unable to fire — the live
// arm's firing resolves the slot normally first.
func (p *Proc) resolveStoreSlot(b *IFB, lsid int8, t uint64, deadArm bool) {
	if b.storeDone[lsid] {
		return
	}
	if deadArm {
		// Retire only if no live instruction can still resolve this slot.
		for _, i := range b.lk.Cover[lsid] {
			if s := b.inst(int(i)).status; s == stWaiting || s == stIssued {
				return
			}
		}
	}
	b.storeDone[lsid] = true
	// The slot's home is the core of the first memory instruction carrying
	// the LSID (the owner when only nulls do).
	home := b.owner
	if f := b.lk.FirstMem[lsid]; f >= 0 {
		home = b.instCoreIdx(int(f))
	}
	arr := p.ctlSend(home, b.owner, t)
	if b.cp != nil {
		s := &b.cp.Slots[lsid]
		s.ResolvedAt = t
		s.Valid = true
		if deadArm {
			s.Kind, s.Src = critpath.SrcNone, 0
		}
	}
	p.outputDone(b, arr, critpath.OutStore, int32(lsid))
	p.retryDeferredLoads()
	p.raiseFault(b)
}

// raiseFault fails the run for b's misaligned access once nothing can take
// the access back: b is the oldest block in the window, so no branch or
// older store can flush it, and every older store slot of b itself has
// resolved without a violation, so the address is the one the program
// computes.  Called when the fault is recorded, when a store slot of b
// resolves and when b's predecessor deallocates.
func (p *Proc) raiseFault(b *IFB) {
	if b.faultIdx < 0 || p.window[0] != b {
		return
	}
	in := &b.blk.Insts[b.faultIdx]
	if !p.olderStoresResolved(b, in.LSID) {
		return
	}
	kind := "load"
	if in.Op == isa.OpStore {
		kind = "store"
	}
	p.chip.fail("proc %d block %s inst %d: misaligned %d-byte %s at %#x",
		p.id, b.blk.Name, b.faultIdx, in.MemSize, kind, b.faultAddr)
}

// maybeIssue checks readiness and books an issue slot.
func (p *Proc) maybeIssue(b *IFB, idx int) {
	st := b.inst(idx)
	if st.status != stWaiting || !st.avail {
		return
	}
	// A predicate that arrived matched: a mismatch squashed the instruction.
	readyAt := st.availAt
	for k, need := range st.need {
		if !need {
			continue
		}
		if !st.got[k] {
			return
		}
		readyAt = max(readyAt, st.at[k])
	}
	in := &b.blk.Insts[idx]
	st.status = stIssued
	coreIdx := b.instCoreIdx(idx)
	issueAt := p.chip.issueAt(p.phys(coreIdx)).Reserve(readyAt, in.Op.IsFP())
	if b.cp != nil {
		ci := b.cpInst(idx)
		ci.ReadyAt, ci.Issued = readyAt, true
		if readyAt == st.availAt {
			ci.Arm = critpath.Edge{} // dispatch armed it, not an operand
		}
	}
	p.executeInst(b, idx, issueAt)
}

// executeInst computes an issued instruction's result and schedules its
// effects.
func (p *Proc) executeInst(b *IFB, idx int, issueAt uint64) {
	in := &b.blk.Insts[idx]
	st := b.inst(idx)
	coreIdx := b.instCoreIdx(idx)
	b.fired++
	p.Stats.InstsFired++
	p.Stats.IssuedByCore[coreIdx]++
	if in.Op.IsFP() {
		p.Stats.FPFired++
	}

	var addr uint64 // of a load or store
	if in.Op.IsMem() {
		if addr = st.val[isa.TargetLeft] + uint64(in.Imm); addr%uint64(in.MemSize) != 0 {
			// Record it for raiseFault and produce nothing: the consumers
			// starve, so the block cannot complete past the access.  Of several
			// in one block keep the oldest, whose older store slots can resolve.
			if b.faultIdx < 0 || in.LSID < b.blk.Insts[b.faultIdx].LSID {
				b.faultIdx, b.faultAddr = int32(idx), addr
				p.raiseFault(b)
			}
			return
		}
	}
	switch {
	case in.Op == isa.OpLoad:
		b.useful++
		agenDone := issueAt + 1
		bank := p.dataBankIdx(addr)
		arr := p.opnSend(coreIdx, bank, agenDone)
		if b.cp != nil {
			ci := b.cpInst(idx)
			ci.IsMem = true
			ci.AgenDone = agenDone
			ci.BankIdeal = p.opnIdeal(coreIdx, bank)
			ci.BankArrive = arr
		}
		p.chip.q.Schedule(arr, event{kind: evLoadBank, b: b, gen: b.gen, idx: int32(idx), addr: addr})

	case in.Op == isa.OpStore:
		b.useful++
		val := st.val[isa.TargetRight]
		agenDone := issueAt + 1
		bank := p.dataBankIdx(addr)
		arr := p.opnSend(coreIdx, bank, agenDone)
		if b.cp != nil {
			ci := b.cpInst(idx)
			ci.IsMem = true
			ci.AgenDone = agenDone
			ci.BankIdeal = p.opnIdeal(coreIdx, bank)
			ci.BankArrive = arr
		}
		p.chip.q.Schedule(arr, event{kind: evStoreBank, b: b, gen: b.gen, idx: int32(idx), addr: addr, val: val})

	case in.Op == isa.OpNull:
		done := issueAt + 1
		if in.NullLSID >= 0 {
			// Pre-record the slot's producer: the evNullSlot event only
			// carries the LSID.  First recorder wins (a firing store's
			// unconditional record in storeAtBank takes precedence).
			if b.cp != nil {
				if s := &b.cp.Slots[in.NullLSID]; s.Kind == critpath.SrcNone {
					s.Kind, s.Src = critpath.SrcInst, int32(b.lk.LivePos[idx])
				}
			}
			p.chip.q.Schedule(done, event{kind: evNullSlot, b: b, gen: b.gen, idx: int32(in.NullLSID)})
		}
		for _, tg := range in.Targets {
			p.scheduleDeadToken(b, tg, coreIdx, done)
		}

	case in.Op.IsBranch():
		b.useful++
		done := issueAt + uint64(p.chip.Opts.Params.IntLat)
		target := in.TargetAddr // laid out for bro/callo, 0 for halt
		if in.Op == isa.OpRet {
			target = st.val[isa.TargetLeft]
		}
		arr := p.ctlSend(coreIdx, b.owner, done)
		if b.cp != nil && !b.cp.Branch.Valid {
			// First executed branch wins: branchResolved also takes the
			// first arrival and ignores a later predicated twin.
			b.cp.Branch = critpath.SlotOut{Kind: critpath.SrcInst, Src: int32(b.lk.LivePos[idx]), ResolvedAt: done, Valid: true}
		}
		p.chip.q.Schedule(arr, event{kind: evBranch, b: b, gen: b.gen, idx: int32(in.Op), from: in.Exit, val: target})

	default:
		val := exec.EvalALU(in, st.val[isa.TargetLeft], st.val[isa.TargetRight])
		lat := p.chip.Opts.opLatency(in.Op.IsFP(),
			in.Op == isa.OpMul, in.Op == isa.OpDiv || in.Op == isa.OpDivU ||
				in.Op == isa.OpMod || in.Op == isa.OpFDiv || in.Op == isa.OpFSqrt)
		done := issueAt + lat
		if in.Op != isa.OpMov {
			b.useful++
		}
		for _, tg := range in.Targets {
			p.scheduleDelivery(b, tg, val, coreIdx, done, critpath.SrcInst, int32(idx))
		}
	}
}

// scheduleDelivery routes one produced value to its target and, with
// attribution on, records the delivery edge: who sent it (srcIdx is a read
// index or an instruction ID), when, the unloaded hop latency and the
// actual arrival.  A write slot receives exactly one value (two is a
// simulator failure) and keeps its edge; an instruction keeps the edge
// that arms it last (critpath.Inst.Offer).
func (p *Proc) scheduleDelivery(b *IFB, tg isa.Target, val uint64, fromIdx int, t uint64, srcKind critpath.SrcKind, srcIdx int32) {
	toIdx := fromIdx
	if tg.Kind != isa.TargetWrite {
		toIdx = b.instCoreIdx(int(tg.Index))
	}
	arr := t
	if toIdx != fromIdx {
		arr = p.opnSend(fromIdx, toIdx, t)
	}
	if b.cp != nil {
		if srcKind == critpath.SrcInst {
			srcIdx = int32(b.lk.LivePos[srcIdx])
		}
		e := critpath.Edge{
			Kind: srcKind, Valid: true, Src: srcIdx,
			SendAt: t, HopIdeal: p.opnIdeal(fromIdx, toIdx), ArriveAt: arr,
		}
		if tg.Kind == isa.TargetWrite {
			b.cp.Writes[tg.Index].Edge = e
		} else {
			b.cpInst(int(tg.Index)).Offer(e, uint8(tg.Kind))
		}
	}
	p.chip.q.Schedule(arr, event{kind: evDeliver, b: b, gen: b.gen, tgt: tg, val: val, from: uint8(fromIdx)})
}

func (p *Proc) scheduleDeadToken(b *IFB, tg isa.Target, fromIdx int, t uint64) {
	p.chip.q.Schedule(t, event{kind: evDeadToken, b: b, gen: b.gen, tgt: tg, from: uint8(fromIdx)})
}

// resolveRead finds the architectural or forwarded value of a register
// read: the youngest older in-flight block writing the register, else the
// committed register file (paper: register files are address-interleaved
// banks of the composed register file).
func (p *Proc) resolveRead(b *IFB, ri int, t uint64) {
	if b.dead {
		return
	}
	if b.cp != nil && b.cp.Reads[ri].DispatchAt == 0 {
		// First resolution attempt: the read request reached its bank.
		// Forwarding waits re-resolve later; the walker charges
		// [DispatchAt, value departure] to the register-read category.
		b.cp.Reads[ri].DispatchAt = t
	}
	reg := b.blk.Reads[ri].Reg
	pos := p.indexOf(b)
	for j := pos - 1; j >= 0; j-- {
		a := p.window[j]
		slot := a.lk.RegSlot[reg]
		if slot < 0 {
			continue // a does not write reg
		}
		w := &a.wr[slot]
		if !w.resolved {
			if n := len(p.waiterFree); w.waiters == nil && n > 0 {
				w.waiters = p.waiterFree[n-1]
				p.waiterFree = p.waiterFree[:n-1]
			}
			w.waiters = append(w.waiters, readWaiter{b: b, gen: b.gen, readIdx: ri, t: t})
			return
		}
		if w.has {
			at := t
			if w.bankAt > at {
				at = w.bankAt
			}
			p.deliverRead(b, ri, w.val, at)
			return
		}
		// Null write: keep walking older blocks.
	}
	p.deliverRead(b, ri, p.Regs[reg], t)
}

func (p *Proc) deliverRead(b *IFB, ri int, val uint64, t uint64) {
	rd := &b.blk.Reads[ri]
	bank := p.regBankIdx(rd.Reg)
	p.Stats.RegReads++
	for _, tg := range rd.Targets {
		p.scheduleDelivery(b, tg, val, bank, t, critpath.SrcRegRead, int32(ri))
	}
}
