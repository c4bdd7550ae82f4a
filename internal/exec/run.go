package exec

import (
	"fmt"

	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// RegWrite is one architectural register update produced by a block.
type RegWrite struct {
	Reg uint8
	Val uint64
}

// StoreOp is one architectural store produced by a block, applied to memory
// in LSID order at commit.
type StoreOp struct {
	LSID int8
	Addr uint64
	Size uint8
	Val  uint64
}

// BranchOut describes the single branch that fired in a block.
type BranchOut struct {
	Op     isa.Opcode
	Exit   uint8
	Target uint64 // resolved next-block address (0 for halt)
}

// BlockResult is the architectural outcome of executing one block.
type BlockResult struct {
	Fired  int // instructions fired, including fan-out movs
	Useful int // fired minus movs/nulls (work a conventional ISA would do)
	Writes []RegWrite
	Stores []StoreOp
	Branch BranchOut
	Loads  int
}

type instStatus uint8

const (
	stWaiting instStatus = iota
	stFired
	stSquashed // predicate mismatch
	stDead     // an operand can never arrive
)

type slotState struct {
	got  bool
	val  uint64
	src  int32 // trace index of producing entry (-1 unknown)
	rem  int   // producers that have not yet fired or died
	need bool
}

type instState struct {
	status     instStatus
	left       slotState
	right      slotState
	pred       slotState
	predOK     bool
	deferredLd bool
}

type writeState struct {
	got bool
	val uint64
	src int32
	rem int
}

type lsidState uint8

const (
	lsPending lsidState = iota
	lsStored
	lsNulled
	lsDead
)

// blockRun holds the in-flight dataflow state for one block execution.
type blockRun struct {
	p     *prog.Program
	b     *isa.Block
	mem   Mem
	insts []instState
	wr    []writeState
	lsid  [isa.MaxMemOps]lsidState
	// maxLSID is one past the largest LSID present in the block.
	maxLSID int

	stores   []StoreOp
	storeSrc []int32 // per stores entry: trace index of value producer
	res      BlockResult
	branched bool

	pendingLoads []int
	queue        []delivery

	trace    *Trace
	regSrc   *[isa.NumRegs]int32 // machine-level: last writer trace index per register
	firedIDs []int               // instruction IDs in firing order (for tracing)
	instSrc  []int32             // trace index produced by each fired inst (or forwarded)
}

type delivery struct {
	target isa.Target
	val    uint64
	src    int32
	dead   bool
}

var errTwoValues = fmt.Errorf("two values arrived at one operand slot (predication not complementary)")

// runBlock executes one block architecturally and returns its outputs.
// Register writes and stores are NOT applied; the caller commits them.
func runBlock(p *prog.Program, b *isa.Block, regs *[isa.NumRegs]uint64, mem Mem, trace *Trace, regSrc *[isa.NumRegs]int32) (*BlockResult, error) {
	r := &blockRun{
		p: p, b: b, mem: mem,
		insts:   make([]instState, len(b.Insts)),
		wr:      make([]writeState, len(b.Writes)),
		trace:   trace,
		regSrc:  regSrc,
		instSrc: make([]int32, len(b.Insts)),
	}
	for i := range r.instSrc {
		r.instSrc[i] = -1
	}
	// Static per-slot producer counts and operand requirements.
	bump := func(t isa.Target) {
		switch t.Kind {
		case isa.TargetWrite:
			r.wr[t.Index].rem++
		case isa.TargetLeft:
			r.insts[t.Index].left.rem++
		case isa.TargetRight:
			r.insts[t.Index].right.rem++
		case isa.TargetPred:
			r.insts[t.Index].pred.rem++
		}
	}
	for _, rd := range b.Reads {
		for _, t := range rd.Targets {
			bump(t)
		}
	}
	for i := range b.Insts {
		for _, t := range b.Insts[i].Targets {
			bump(t)
		}
	}
	for i := range b.Insts {
		in := &b.Insts[i]
		st := &r.insts[i]
		n := in.Op.NumOperands()
		st.left.need = n >= 1
		st.right.need = n >= 2 && !(in.HasImm && !in.Op.IsMem())
		st.pred.need = in.Pred != isa.PredNone
		if in.Op.IsMem() && int(in.LSID)+1 > r.maxLSID {
			r.maxLSID = int(in.LSID) + 1
		}
		if in.Op == isa.OpNull && in.NullLSID >= 0 && int(in.NullLSID)+1 > r.maxLSID {
			r.maxLSID = int(in.NullLSID) + 1
		}
	}
	// Seed: register reads deliver, and zero-operand unpredicated
	// instructions fire immediately.
	for _, rd := range b.Reads {
		src := int32(-1)
		if regSrc != nil {
			src = regSrc[rd.Reg]
		}
		for _, t := range rd.Targets {
			r.queue = append(r.queue, delivery{target: t, val: regs[rd.Reg], src: src})
		}
	}
	for i := range b.Insts {
		if b.Insts[i].Op == isa.OpNop {
			r.insts[i].status = stDead // unused slot in the 128-slot format
			continue
		}
		st := &r.insts[i]
		if !st.left.need && !st.right.need && !st.pred.need {
			if err := r.fire(i); err != nil {
				return nil, err
			}
		}
	}
	if err := r.drain(); err != nil {
		return nil, fmt.Errorf("block %s: %w", b.Name, err)
	}
	// Validation: one branch, all store slots resolved, no stuck loads.
	if !r.branched {
		return nil, fmt.Errorf("block %s: no branch fired", b.Name)
	}
	if len(r.pendingLoads) > 0 {
		return nil, fmt.Errorf("block %s: %d loads deadlocked on unresolved stores", b.Name, len(r.pendingLoads))
	}
	for id := 0; id < r.maxLSID; id++ {
		if r.hasStoreLSID(int8(id)) && r.lsid[id] == lsPending {
			return nil, fmt.Errorf("block %s: store LSID %d unresolved", b.Name, id)
		}
		if r.hasStoreLSID(int8(id)) && r.lsid[id] == lsDead {
			return nil, fmt.Errorf("block %s: store LSID %d dead on all paths", b.Name, id)
		}
	}
	// Collect register writes; slots with no value are null writes.
	for i := range r.wr {
		if r.wr[i].got {
			r.res.Writes = append(r.res.Writes, RegWrite{Reg: b.Writes[i].Reg, Val: r.wr[i].val})
		}
	}
	r.res.Stores = r.stores
	r.emitTrace()
	return &r.res, nil
}

func (r *blockRun) hasStoreLSID(id int8) bool {
	for i := range r.b.Insts {
		in := &r.b.Insts[i]
		if (in.Op == isa.OpStore && in.LSID == id) || (in.Op == isa.OpNull && in.NullLSID == id) {
			return true
		}
	}
	return false
}

func (r *blockRun) drain() error {
	for len(r.queue) > 0 {
		d := r.queue[0]
		r.queue = r.queue[1:]
		if err := r.deliver(d); err != nil {
			return err
		}
	}
	return nil
}

func (r *blockRun) deliver(d delivery) error {
	if d.target.Kind == isa.TargetWrite {
		w := &r.wr[d.target.Index]
		w.rem--
		if d.dead {
			return nil
		}
		if w.got {
			return fmt.Errorf("write slot %d: %w", d.target.Index, errTwoValues)
		}
		w.got, w.val, w.src = true, d.val, d.src
		return nil
	}
	idx := int(d.target.Index)
	st := &r.insts[idx]
	var slot *slotState
	switch d.target.Kind {
	case isa.TargetLeft:
		slot = &st.left
	case isa.TargetRight:
		slot = &st.right
	case isa.TargetPred:
		slot = &st.pred
	}
	slot.rem--
	if d.dead {
		if slot.rem == 0 && !slot.got && st.status == stWaiting {
			r.kill(idx, stDead)
		}
		return r.retryLoads()
	}
	if st.status != stWaiting {
		// Late arrival at a squashed/dead instruction: drop it.
		return nil
	}
	if slot.got {
		return fmt.Errorf("inst %d (%s): %w", idx, r.b.Insts[idx].Op, errTwoValues)
	}
	slot.got, slot.val, slot.src = true, d.val, d.src
	if d.target.Kind == isa.TargetPred {
		if !PredMatches(r.b.Insts[idx].Pred, d.val) {
			r.kill(idx, stSquashed)
			return r.retryLoads()
		}
		st.predOK = true
	}
	if r.ready(idx) {
		if err := r.fire(idx); err != nil {
			return err
		}
	}
	return nil
}

func (r *blockRun) ready(idx int) bool {
	st := &r.insts[idx]
	if st.status != stWaiting {
		return false
	}
	if st.left.need && !st.left.got {
		return false
	}
	if st.right.need && !st.right.got {
		return false
	}
	if st.pred.need && !st.predOK {
		return false
	}
	return true
}

// kill marks an instruction squashed or dead and propagates dead tokens.
func (r *blockRun) kill(idx int, status instStatus) {
	st := &r.insts[idx]
	if st.status != stWaiting {
		return
	}
	st.status = status
	in := &r.b.Insts[idx]
	if in.Op == isa.OpStore && r.lsid[in.LSID] == lsPending {
		r.lsid[in.LSID] = lsDead
	}
	if in.Op == isa.OpNull && in.NullLSID >= 0 && r.lsid[in.NullLSID] == lsPending {
		r.lsid[in.NullLSID] = lsDead
	}
	// A nulled store's dead partner does not kill the slot: upgrade
	// happens when the other arm fires (lsStored/lsNulled overwrite lsDead).
	for _, t := range in.Targets {
		r.queue = append(r.queue, delivery{target: t, dead: true})
	}
}

func (r *blockRun) fire(idx int) error {
	st := &r.insts[idx]
	in := &r.b.Insts[idx]
	st.status = stFired

	switch {
	case in.Op == isa.OpLoad:
		// Defer until all older stores are resolved.
		if !r.oldStoresResolved(in.LSID) {
			st.deferredLd = true
			r.pendingLoads = append(r.pendingLoads, idx)
			return nil
		}
		return r.fireLoad(idx)
	case in.Op == isa.OpStore:
		addr := st.left.val + uint64(in.Imm)
		if prev := r.lsid[in.LSID]; prev == lsStored || prev == lsNulled {
			return fmt.Errorf("store LSID %d resolved twice", in.LSID)
		}
		r.lsid[in.LSID] = lsStored
		r.stores = append(r.stores, StoreOp{LSID: in.LSID, Addr: addr, Size: in.MemSize, Val: st.right.val})
		r.storeSrc = append(r.storeSrc, st.right.src)
		r.res.Fired++
		r.res.Useful++
		r.firedIDs = append(r.firedIDs, idx)
		return r.retryLoads()
	case in.Op == isa.OpNull:
		r.res.Fired++
		if in.NullLSID >= 0 {
			if prev := r.lsid[in.NullLSID]; prev == lsStored || prev == lsNulled {
				return fmt.Errorf("store LSID %d resolved twice (null)", in.NullLSID)
			}
			r.lsid[in.NullLSID] = lsNulled
		}
		for _, t := range in.Targets {
			r.queue = append(r.queue, delivery{target: t, dead: true})
		}
		return r.retryLoads()
	case in.Op.IsBranch():
		if r.branched {
			return fmt.Errorf("two branches fired")
		}
		r.branched = true
		r.res.Fired++
		r.res.Useful++
		r.firedIDs = append(r.firedIDs, idx)
		out := BranchOut{Op: in.Op, Exit: in.Exit}
		switch in.Op {
		case isa.OpBro, isa.OpCallo:
			t, ok := r.p.BranchTarget(in)
			if !ok {
				return fmt.Errorf("unresolved branch target %q", in.BranchTo)
			}
			out.Target = t
		case isa.OpRet:
			out.Target = st.left.val
		case isa.OpHalt:
			out.Target = 0
		}
		r.res.Branch = out
		return nil
	default:
		val := EvalALU(in, st.left.val, st.right.val)
		r.res.Fired++
		if in.Op == isa.OpMov {
			// Movs forward their producer's trace identity.
			r.instSrc[idx] = st.left.src
		} else {
			r.res.Useful++
			r.instSrc[idx] = localSrc(idx)
			r.firedIDs = append(r.firedIDs, idx)
		}
		r.send(idx, val)
		return nil
	}
}

func (r *blockRun) fireLoad(idx int) error {
	st := &r.insts[idx]
	in := &r.b.Insts[idx]
	addr := st.left.val + uint64(in.Imm)
	val := r.loadWithForwarding(addr, in)
	r.res.Fired++
	r.res.Useful++
	r.res.Loads++
	r.instSrc[idx] = localSrc(idx)
	r.firedIDs = append(r.firedIDs, idx)
	r.send(idx, val)
	return nil
}

// loadWithForwarding reads memory, overlaying bytes from older same-block
// stores (lower LSID) in LSID order.
func (r *blockRun) loadWithForwarding(addr uint64, in *isa.Inst) uint64 {
	size := int(in.MemSize)
	buf := make([]byte, size)
	base := r.mem.Load(addr, size, false)
	for i := 0; i < size; i++ {
		buf[i] = byte(base >> (8 * i))
	}
	// Apply overlapping older stores in LSID order.
	for id := int8(0); id < in.LSID; id++ {
		for si := range r.stores {
			s := &r.stores[si]
			if s.LSID != id {
				continue
			}
			for b := 0; b < int(s.Size); b++ {
				off := int64(s.Addr) + int64(b) - int64(addr)
				if off >= 0 && off < int64(size) {
					buf[off] = byte(s.Val >> (8 * b))
				}
			}
		}
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	if in.MemSigned {
		shift := 64 - 8*size
		v = uint64(int64(v<<uint(shift)) >> uint(shift))
	}
	return v
}

func (r *blockRun) oldStoresResolved(lsid int8) bool {
	for id := int8(0); id < lsid; id++ {
		if !r.storeLSIDResolvedOrAbsent(id) {
			return false
		}
	}
	return true
}

func (r *blockRun) storeLSIDResolvedOrAbsent(id int8) bool {
	if r.lsid[id] == lsStored || r.lsid[id] == lsNulled {
		return true
	}
	// The slot may belong to a load (loads don't gate later loads) or be
	// dead/pending.  Pending store => unresolved.  Dead store whose null
	// partner is also dead => unresolved (error caught later); treat as
	// resolved only if no live store instruction can still fire.
	for i := range r.b.Insts {
		in := &r.b.Insts[i]
		isStoreSlot := (in.Op == isa.OpStore && in.LSID == id) || (in.Op == isa.OpNull && in.NullLSID == id)
		if isStoreSlot && r.insts[i].status == stWaiting {
			return false
		}
	}
	return true
}

func (r *blockRun) retryLoads() error {
	if len(r.pendingLoads) == 0 {
		return nil
	}
	still := r.pendingLoads[:0]
	for _, idx := range r.pendingLoads {
		in := &r.b.Insts[idx]
		if r.oldStoresResolved(in.LSID) {
			if err := r.fireLoad(idx); err != nil {
				return err
			}
		} else {
			still = append(still, idx)
		}
	}
	r.pendingLoads = still
	return nil
}

func (r *blockRun) send(idx int, val uint64) {
	in := &r.b.Insts[idx]
	src := r.instSrc[idx]
	for _, t := range in.Targets {
		r.queue = append(r.queue, delivery{target: t, val: val, src: src})
	}
}
