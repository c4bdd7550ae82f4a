package sim

import (
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/mem"
)

// The memory path (paper §4.5): an executed load/store routes its address
// (and data) to the owning L1 D-cache/LSQ bank.  Loads execute
// speculatively: a later-arriving older store that overlaps triggers a
// dependence-violation flush from the offending load's block.  Loads that
// have violated once are memoized and thereafter wait for all older stores
// to resolve (a coarse dependence predictor), which guarantees forward
// progress.  Bank-full conditions NACK the request, which retries after a
// backoff (the Sethumadhavan LSQ-overflow mechanism).

// nackRetryCycles is the backoff before a NACKed LSQ insert retries.
const nackRetryCycles = 8

func (p *Proc) memKey(b *IFB, idx int) mem.MemKey {
	return mem.MemKey{BlockSeq: b.seq, LSID: b.blk.Insts[idx].LSID}
}

// The violation memo is a dense bitset over (block index, instruction ID)
// pairs — a static program property, so its footprint is bounded by the
// program size and lookups are two shifts and a mask.

func (p *Proc) violGet(b *IFB, idx int) bool {
	bit := uint(b.lk.Index)*isa.MaxBlockInsts + uint(idx)
	w := bit / 64
	if w >= uint(len(p.violBits)) {
		return false
	}
	return p.violBits[w]&(1<<(bit%64)) != 0
}

func (p *Proc) violSet(b *IFB, idx int) {
	bit := uint(b.lk.Index)*isa.MaxBlockInsts + uint(idx)
	w := bit / 64
	if w >= uint(len(p.violBits)) {
		grown := make([]uint64, (uint(p.prog.NumBlocks())*isa.MaxBlockInsts+63)/64)
		copy(grown, p.violBits)
		p.violBits = grown
	}
	if p.violBits[w]&(1<<(bit%64)) == 0 {
		p.violBits[w] |= 1 << (bit % 64)
		p.violCount++
	}
}

// loadAtBank services a load whose address has arrived at its bank.
func (p *Proc) loadAtBank(b *IFB, idx int, addr uint64, t uint64) {
	if b.dead {
		return
	}
	in := &b.blk.Insts[idx]
	key := p.memKey(b, idx)

	// Memoized violators wait for older stores (dependence prediction).
	if p.violGet(b, idx) && !p.olderStoresResolved(b, in.LSID) {
		p.deferred = append(p.deferred, deferredLoad{b: b, gen: b.gen, idx: idx, addr: addr, t: t})
		return
	}

	bank := p.lsqBankOf(addr)
	ok, _ := bank.Insert(mem.LSQEntry{Key: key, Addr: addr, Size: in.MemSize})
	if !ok {
		p.Stats.LSQNACKs++
		p.relieveLSQPressure(b, t)
		retry := t + nackRetryCycles
		p.chip.q.Schedule(retry, event{kind: evLoadBank, b: b, gen: b.gen, idx: int32(idx), addr: addr})
		return
	}

	bankIdx := p.dataBankIdx(addr)
	physCore := p.phys(bankIdx)
	svc := p.chip.l1dPort[physCore].Reserve(t, 1)

	// accessDone is when the L1 access pipeline (or LSQ forward) itself
	// finished; dataAt additionally waits for any in-flight miss fill.
	// The attribution walker charges [SvcAt, AccessDone] to the cache
	// category's pipeline portion and [AccessDone, DataAt] to miss fill.
	var dataAt, accessDone uint64
	if bank.ForwardFrom(key, addr, in.MemSize) {
		dataAt = svc + 1 // store-to-load forwarding out of the LSQ
		accessDone = dataAt
	} else {
		pa := p.physAddr(addr)
		cache := p.chip.l1dAt(physCore)
		if line, hit := cache.Access(pa, svc); hit {
			dataAt = svc + uint64(p.chip.Opts.Params.L1DHitCycles)
			accessDone = dataAt
			if line.FillAt > dataAt {
				dataAt = line.FillAt
			}
		} else {
			accessDone = svc + uint64(p.chip.Opts.Params.L1DHitCycles)
			fill := p.chip.L2.Read(physCore, pa, accessDone)
			victim, evicted := cache.Fill(pa, fill)
			if evicted {
				p.writeBackVictim(physCore, victim)
			}
			dataAt = fill
		}
	}
	if b.cp != nil {
		ci := b.cpInst(idx)
		ci.SvcAt = svc
		ci.AccessDone = accessDone
		ci.DataAt = dataAt
	}

	// The architectural value: committed memory overlaid with all older
	// in-flight stores fired so far.  Any older store that fires later
	// and overlaps will flush this block, so the value is consistent.
	val := p.loadValue(key, addr, int(in.MemSize), in.MemSigned)
	b.loads++
	for _, tg := range in.Targets {
		p.scheduleDelivery(b, tg, val, bankIdx, dataAt, critpath.SrcInst, int32(idx))
	}
}

// storeAtBank services a store whose address and data have arrived.
func (p *Proc) storeAtBank(b *IFB, idx int, addr uint64, val uint64, t uint64) {
	if b.dead {
		return
	}
	in := &b.blk.Insts[idx]
	key := p.memKey(b, idx)
	bank := p.lsqBankOf(addr)
	ok, violations := bank.Insert(mem.LSQEntry{Key: key, Store: true, Addr: addr, Size: in.MemSize})
	if !ok {
		p.Stats.LSQNACKs++
		p.relieveLSQPressure(b, t)
		retry := t + nackRetryCycles
		p.chip.q.Schedule(retry, event{kind: evStoreBank, b: b, gen: b.gen, idx: int32(idx), addr: addr, val: val})
		return
	}

	if len(violations) > 0 {
		// Flush from the oldest violating load's block and refetch it.
		minSeq := violations[0].BlockSeq
		for _, v := range violations {
			if v.BlockSeq < minSeq {
				minSeq = v.BlockSeq
			}
			// Memoize the violating loads so replays wait.
			if vb := p.blockBySeq(v.BlockSeq); vb != nil {
				for _, i := range vb.lk.Loads[v.LSID] {
					p.violSet(vb, int(i))
				}
			}
		}
		p.Stats.ViolationFlushes++
		victim := p.blockBySeq(minSeq)
		if victim != nil {
			restart := victim.blk.Addr
			hist := victim.fetchHist
			p.flushFrom(minSeq, restart, hist, t)
			// The store's own block may have been flushed (same-block
			// violation); if so its entry was removed with the flush.
			if b.dead {
				return
			}
			if minSeq <= b.seq {
				return
			}
		}
	}

	bankIdx := p.dataBankIdx(addr)
	physCore := p.phys(bankIdx)
	svc := p.chip.l1dPort[physCore].Reserve(t, 1)

	b.addStore(firedStore{key: key, addr: addr, size: in.MemSize, val: val})
	if b.cp != nil {
		// The firing store is the slot's producer, overriding any null
		// twin's pre-record.
		s := &b.cp.Slots[in.LSID]
		s.Kind, s.Src = critpath.SrcInst, int32(b.lk.LivePos[idx])
		b.cpInst(idx).SvcAt = svc
	}
	p.resolveStoreSlot(b, in.LSID, svc+1, false)
	p.retryDeferredLoads()
}

// relieveLSQPressure guarantees forward progress under LSQ overflow: when
// a NACKed operation belongs to the oldest in-flight block, the younger
// blocks (whose entries are filling the bank but which cannot commit
// before the oldest) are flushed and refetched — the overflow-handling
// flush of the NACK mechanism (Sethumadhavan et al.).
func (p *Proc) relieveLSQPressure(b *IFB, t uint64) {
	if len(p.window) < 2 || p.window[0] != b {
		return
	}
	w1 := p.window[1]
	if w1.phase == phaseCommitting {
		return
	}
	p.Stats.LSQOverflowFlushes++
	p.flushFrom(w1.seq, w1.blk.Addr, w1.fetchHist, t)
}

// blockBySeq finds an in-flight block by sequence number.
func (p *Proc) blockBySeq(seq uint64) *IFB {
	for _, b := range p.window {
		if b.seq == seq {
			return b
		}
	}
	return nil
}

// addStore files a fired store, keeping b.stores in LSID order — program
// order within the block — with same-LSID stores in firing order, so the
// load overlay and commit each walk the list once.
func (b *IFB) addStore(s firedStore) {
	i := len(b.stores)
	b.stores = append(b.stores, s)
	for ; i > 0 && b.stores[i-1].key.LSID > s.key.LSID; i-- {
		b.stores[i] = b.stores[i-1]
	}
	b.stores[i] = s
}

// loadValue computes the architectural value of a load: committed memory
// overlaid with every older fired store (older blocks' stores plus
// same-block stores with lower LSIDs), applied in program order.
func (p *Proc) loadValue(key mem.MemKey, addr uint64, size int, signed bool) uint64 {
	var buf [8]byte // size <= 8
	base := p.Mem.Load(addr, size, false)
	for i := 0; i < size; i++ {
		buf[i] = byte(base >> (8 * i))
	}
	// Window blocks are ordered oldest-first and each block's stores are in
	// LSID order, so later writes to a byte win as they do in program order.
	for _, w := range p.window {
		if w.seq > key.BlockSeq {
			break
		}
		for si := range w.stores {
			s := &w.stores[si]
			if !s.key.Less(key) {
				break
			}
			// first is the store's first byte as an offset into the load,
			// signed: the difference wraps at the top of the address space.
			first := int64(s.addr - addr)
			if first >= int64(size) || first+int64(s.size) <= 0 {
				continue
			}
			for bb := int64(0); bb < int64(s.size); bb++ {
				if off := first + bb; off >= 0 && off < int64(size) {
					buf[off] = byte(s.val >> (8 * bb))
				}
			}
		}
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	if signed {
		shift := 64 - 8*size
		v = uint64(int64(v<<uint(shift)) >> uint(shift))
	}
	return v
}

// olderStoresResolved reports whether every store slot older than (b,
// lsid) in program order has been resolved.
func (p *Proc) olderStoresResolved(b *IFB, lsid int8) bool {
	for _, w := range p.window {
		if w.seq > b.seq {
			break
		}
		limit, mask := w.lk.MaxLSID, w.lk.StoreMask
		if w.seq == b.seq {
			limit = lsid
		}
		for id := int8(0); id < limit; id++ {
			if mask&(1<<uint(id)) != 0 && !w.storeDone[id] {
				return false
			}
		}
	}
	return true
}

// retryDeferredLoads re-attempts memoized loads whose ordering constraints
// may have cleared.
func (p *Proc) retryDeferredLoads() {
	if len(p.deferred) == 0 {
		return
	}
	pending := p.deferred
	p.deferred = p.deferredSpare[:0]
	for _, d := range pending {
		if d.b.gen != d.gen || d.b.dead {
			continue
		}
		in := &d.b.blk.Insts[d.idx]
		if p.olderStoresResolved(d.b, in.LSID) {
			p.chip.q.Schedule(p.chip.Now(), event{kind: evLoadBank, b: d.b, gen: d.gen, idx: int32(d.idx), addr: d.addr})
		} else {
			p.deferred = append(p.deferred, d)
		}
	}
	p.deferredSpare = pending[:0]
}
