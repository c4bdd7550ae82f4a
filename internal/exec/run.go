package exec

import (
	"fmt"
	"math/bits"

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

// slotState is one operand slot's dynamic half; whether the instruction
// waits on it is read from prog.Linked.
type slotState struct {
	val uint64
	src int32 // trace index of producing entry (-1 unknown)
	rem int16 // producers that have not yet fired or died
	got bool
}

type instState struct {
	left, right, pred slotState
	out               int32 // trace index of the value the instruction sends (-1 unknown)
	status            instStatus
	predOK            bool
}

type writeState struct {
	val uint64
	src int32
	rem int16
	got bool
}

type lsidState uint8

const (
	lsPending lsidState = iota
	lsStored
	lsNulled
	lsDead
)

// blockRun holds the in-flight dataflow state of the block a Machine is
// executing.  It lives on the Machine and is reused block after block:
// reset re-establishes every field an execution reads from the block's
// prog.Linked, and slice capacity is the only state that survives.
type blockRun struct {
	lk    *prog.Linked // the block's decoded form, shared and read-only
	b     *isa.Block   // lk.Block
	mem   Mem
	insts []instState
	wr    []writeState
	lsid  [isa.MaxMemOps]lsidState

	stores   []StoreOp
	res      BlockResult
	branched bool

	pendingLoads []int
	queue        []delivery
	head         int // next queue entry to deliver

	trace    *Trace
	regSrc   *[isa.NumRegs]int32 // machine-level: last writer trace index per register
	firedIDs []int               // instruction IDs in firing order (for tracing)
	global   []int32             // per live position: its entry's trace index (emitTrace)
}

type delivery struct {
	target isa.Target
	val    uint64
	src    int32
	dead   bool
}

var errTwoValues = fmt.Errorf("two values arrived at one operand slot (predication not complementary)")

// reset prepares r to execute lk.  State is kept per live instruction,
// at its position in Live (inst): Validate rejects a target field naming
// an unused slot, so no other slot is ever read.
func (r *blockRun) reset(lk *prog.Linked) {
	r.lk, r.b = lk, lk.Block
	r.insts = grow(r.insts, len(lk.Live))
	for pos, i := range lk.Live {
		li := &lk.Insts[i]
		r.insts[pos] = instState{
			left:  slotState{rem: int16(li.Left.Producers)},
			right: slotState{rem: int16(li.Right.Producers)},
			pred:  slotState{rem: int16(li.Pred.Producers)},
			out:   -1,
		}
	}
	r.wr = grow(r.wr, len(lk.WriteProducers))
	for i, n := range lk.WriteProducers {
		r.wr[i] = writeState{rem: int16(n)}
	}
	r.lsid = [isa.MaxMemOps]lsidState{}
	// The lists are emptied with room for the most the block can add, so
	// none grows inside a block: each read or live instruction sends at
	// most MaxTargets deliveries, once.
	r.stores = reserve(r.stores, bits.OnesCount32(lk.StoreMask))
	r.res = BlockResult{Writes: reserve(r.res.Writes, len(lk.WriteProducers))}
	r.branched = false
	r.pendingLoads = r.pendingLoads[:0]
	r.queue, r.head = reserve(r.queue, isa.MaxTargets*(len(r.b.Reads)+len(lk.Live))), 0
	r.firedIDs = reserve(r.firedIDs, len(lk.Live))
}

// inst returns instruction id's state, which sits at id's position in Live.
func (r *blockRun) inst(id int) *instState { return &r.insts[r.lk.LivePos[id]] }

// grow returns s resliced to n elements, reallocated only when its
// capacity is short.  Elements are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reserve returns s emptied, reallocated only when it has room for fewer
// than n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// runBlock executes one linked block architecturally and returns its
// outputs, valid until the next call.  Register writes and stores are NOT
// applied; the caller commits them.
func (r *blockRun) runBlock(lk *prog.Linked, regs *[isa.NumRegs]uint64) (*BlockResult, error) {
	r.reset(lk)
	b := r.b
	// Seed: register reads deliver, and zero-operand unpredicated
	// instructions fire immediately.
	for _, rd := range b.Reads {
		src := int32(-1)
		if r.regSrc != nil {
			src = r.regSrc[rd.Reg]
		}
		for _, t := range rd.Targets {
			r.queue = append(r.queue, delivery{target: t, val: regs[rd.Reg], src: src})
		}
	}
	for _, i := range lk.Live {
		if li := &lk.Insts[i]; !li.Left.Need && !li.Right.Need && !li.Pred.Need {
			if err := r.fire(int(i)); err != nil {
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
	for id := 0; id < int(lk.MaxLSID); id++ {
		if lk.StoreMask&(1<<uint(id)) == 0 {
			continue
		}
		switch r.lsid[id] {
		case lsPending:
			return nil, fmt.Errorf("block %s: store LSID %d unresolved", b.Name, id)
		case lsDead:
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

func (r *blockRun) drain() error {
	for r.head < len(r.queue) {
		d := r.queue[r.head]
		r.head++
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
	st := r.inst(idx)
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
	st, li := r.inst(idx), &r.lk.Insts[idx]
	if st.status != stWaiting {
		return false
	}
	if li.Left.Need && !st.left.got {
		return false
	}
	if li.Right.Need && !st.right.got {
		return false
	}
	if li.Pred.Need && !st.predOK {
		return false
	}
	return true
}

// kill marks an instruction squashed or dead and propagates dead tokens.
func (r *blockRun) kill(idx int, status instStatus) {
	st := r.inst(idx)
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
	st := r.inst(idx)
	in := &r.b.Insts[idx]
	st.status = stFired

	switch {
	case in.Op == isa.OpLoad:
		// Defer until all older stores are resolved.
		if !r.oldStoresResolved(in.LSID) {
			r.pendingLoads = append(r.pendingLoads, idx)
			return nil
		}
		return r.fireLoad(idx)
	case in.Op == isa.OpStore:
		addr := st.left.val + uint64(in.Imm)
		if err := checkAligned(idx, "store", in.MemSize, addr); err != nil {
			return err
		}
		if prev := r.lsid[in.LSID]; prev == lsStored || prev == lsNulled {
			return fmt.Errorf("store LSID %d resolved twice", in.LSID)
		}
		r.lsid[in.LSID] = lsStored
		r.stores = append(r.stores, StoreOp{LSID: in.LSID, Addr: addr, Size: in.MemSize, Val: st.right.val})
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
		// TargetAddr is the laid-out address for bro/callo and 0 for halt.
		r.res.Branch = BranchOut{Op: in.Op, Exit: in.Exit, Target: in.TargetAddr}
		if in.Op == isa.OpRet {
			r.res.Branch.Target = st.left.val
		}
		return nil
	default:
		val := EvalALU(in, st.left.val, st.right.val)
		r.res.Fired++
		if in.Op == isa.OpMov {
			// Movs forward their producer's trace identity.
			st.out = st.left.src
		} else {
			r.res.Useful++
			st.out = localSrc(idx)
			r.firedIDs = append(r.firedIDs, idx)
		}
		r.send(idx, val)
		return nil
	}
}

func (r *blockRun) fireLoad(idx int) error {
	st := r.inst(idx)
	in := &r.b.Insts[idx]
	addr := st.left.val + uint64(in.Imm)
	if err := checkAligned(idx, "load", in.MemSize, addr); err != nil {
		return err
	}
	val := r.loadWithForwarding(addr, in)
	r.res.Fired++
	r.res.Useful++
	r.res.Loads++
	st.out = localSrc(idx)
	r.firedIDs = append(r.firedIDs, idx)
	r.send(idx, val)
	return nil
}

// checkAligned rejects an address that is not a multiple of the access
// size — the condition under which the timing engines fail the run.
func checkAligned(idx int, kind string, size uint8, addr uint64) error {
	if addr%uint64(size) != 0 {
		return fmt.Errorf("inst %d: misaligned %d-byte %s at %#x", idx, size, kind, addr)
	}
	return nil
}

// loadWithForwarding reads memory, overlaying bytes from older same-block
// stores (lower LSID) in LSID order.
func (r *blockRun) loadWithForwarding(addr uint64, in *isa.Inst) uint64 {
	size := int(in.MemSize)
	var buf [8]byte // size <= 8
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
	// The slot may belong to a load (loads don't gate later loads: no
	// cover) or be dead/pending.  Pending store => unresolved.  Dead store
	// whose null partner is also dead => unresolved (error caught later);
	// treat as resolved only if no live store instruction can still fire.
	for _, i := range r.lk.Cover[id] {
		if r.inst(int(i)).status == stWaiting {
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
	src := r.inst(idx).out
	for _, t := range in.Targets {
		r.queue = append(r.queue, delivery{target: t, val: val, src: src})
	}
}
