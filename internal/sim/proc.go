package sim

import (
	"fmt"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/mem"
	"github.com/clp-sim/tflex/internal/predictor"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// Proc is one composed logical processor executing one thread.
type Proc struct {
	chip *Chip
	id   int
	slot int32 // index in chip.Procs, which a resumed thread's id is not
	asid uint64

	cores  []int // physical core IDs, participating order
	n      int
	prog   *prog.Program
	Mem    *exec.PageMem // committed architectural memory
	Regs   [isa.NumRegs]uint64
	Pred   *predictor.Composed
	lsq    []*mem.LSQBank // one per D-bank
	dbanks []int          // participating-core indices carrying D/LSQ banks
	rbanks []int          // participating-core indices carrying register banks
	l1i    *mem.Cache     // composed logical I-cache (block granularity)

	// instCore is placement: the participating-core index holding each
	// instruction ID — the ID's low bits reinterpreted for n cores (paper
	// Figure 4a), so one table serves every block.
	instCore [isa.MaxBlockInsts]uint8

	maxBlocks int
	window    []*IFB // oldest first
	nextSeq   uint64

	fetch struct {
		addr      uint64
		hist      predictor.History
		readyAt   uint64
		valid     bool
		scheduled bool
		epoch     uint64
	}

	// Commit pipelining: blocks commit in order, but a block's commit may
	// launch one cycle after its predecessor's (plus the owner-to-owner
	// "oldest" token hop); drains contend on per-bank commit ports.
	lastCommitStart uint64
	lastCommitOwner int
	anyCommitted    bool
	commitPortD     []mem.Port // per D-bank store-drain port
	commitPortR     []mem.Port // per register-bank write port
	halted          bool
	resumed         bool   // AddProcShared launched a successor on this thread
	launchedAt      uint64 // cycle of the first fetch; Stats.Cycles counts from here

	// Violation memo: load instructions that have violated, as a dense
	// bitset indexed blockIndex*MaxBlockInsts+instID.
	violBits  []uint64
	violCount int

	deferred      []deferredLoad
	deferredSpare []deferredLoad // swap buffer for retryDeferredLoads

	ifbFree    []*IFB         // recycled in-flight blocks
	waiterFree [][]readWaiter // drained read-waiter lists, emptied, awaiting reuse

	// Per-fetch/per-commit scratch, sized n at construction.  Each buffer
	// has a single producer whose use completes before the next producer
	// runs (multicast results are consumed synchronously).
	mcArr       []uint64
	wbScratch   []uint64
	slotScratch []int

	blockTrace func(BlockEvent)
	storeTrace func(addr uint64, size uint8, val uint64)

	// Latency histograms, non-nil only once the chip's telemetry registry
	// is built; Observe is nil-safe, so the disabled path costs one nil
	// check per committed block.
	hFetchLat  *telemetry.Histogram
	hCommitLat *telemetry.Histogram

	// Critical-path attribution aggregate and per-category histograms
	// (nil histograms unless both attribution and telemetry are armed).
	crit  critpath.Summary
	hCrit [critpath.NumCategories]*telemetry.Histogram

	Stats Stats
}

type deferredLoad struct {
	b    *IFB
	gen  uint32
	idx  int
	addr uint64
	t    uint64
}

// newProc composes a processor on the given cores: the storage a reset
// kept from a processor of the same size if there is one, else storage
// built for it.
func newProc(c *Chip, id int, cores []int, program *prog.Program, m *exec.PageMem) *Proc {
	p := c.takeKeptProc(len(cores))
	if p == nil {
		p = buildProc(c, len(cores))
	}
	p.id, p.asid = id, uint64(id+1)
	p.cores, p.prog, p.Mem = cores, program, m
	p.Stats.IssuedByCore = make([]uint64, p.n) // a Stats copy a caller keeps must not change
	return p
}

// buildProc allocates the storage of a processor of n cores on c.
func buildProc(c *Chip, n int) *Proc {
	p := &Proc{chip: c, n: n}
	for i := range p.instCore {
		p.instCore[i] = uint8(compose.InstCore(i, p.n))
	}
	params := c.Opts.Params
	predBanks := p.n
	if c.Opts.CentralPredictor {
		predBanks = 1
	}
	p.Pred = predictor.NewComposed(params, predBanks)

	p.dbanks = c.Opts.DBanks
	if len(p.dbanks) == 0 {
		p.dbanks = idxRange(p.n)
	}
	p.rbanks = c.Opts.RegBanks
	if len(p.rbanks) == 0 {
		p.rbanks = idxRange(p.n)
	}
	for range p.dbanks {
		p.lsq = append(p.lsq, mem.NewLSQBank(params.LSQEntries))
	}
	p.commitPortD = make([]mem.Port, len(p.dbanks))
	p.commitPortR = make([]mem.Port, len(p.rbanks))
	// The logical I-cache: each participating core caches 1/n of each
	// block, so the composed capacity in blocks is n * L1IBytes / 1KB.
	p.l1i = mem.NewCache(p.n*params.L1IBytes, 4, isa.BlockBytes)

	// Blocks in flight: the composed window in 128-instruction frames.
	p.maxBlocks = params.WindowEntries * p.n / isa.MaxBlockInsts
	if p.maxBlocks < 1 {
		p.maxBlocks = 1
	}

	p.mcArr = make([]uint64, p.n)
	p.wbScratch = make([]uint64, p.n)
	p.slotScratch = make([]int, p.n)
	return p
}

// empty returns a processor Chip.Reset retires to the state buildProc
// left it in: its storage emptied and kept, every other field zero.  The
// blocks still in its window go to its pool (on the optimized engine;
// releaseIFB), and its memory, program and observers are dropped.
func (p *Proc) empty() {
	for _, b := range p.window {
		p.releaseIFB(b)
	}
	clear(p.window)
	p.Pred.Reset()
	for _, bank := range p.lsq {
		bank.RemoveFrom(0)
		bank.Stats = mem.LSQStats{}
	}
	clear(p.commitPortD)
	clear(p.commitPortR)
	p.l1i.Reset()
	clear(p.violBits) // its length is a capacity: a zero bit reads as a fresh memo's
	*p = Proc{
		chip: p.chip, n: p.n, instCore: p.instCore, maxBlocks: p.maxBlocks,
		Pred: p.Pred, lsq: p.lsq, dbanks: p.dbanks, rbanks: p.rbanks, l1i: p.l1i,
		commitPortD: p.commitPortD, commitPortR: p.commitPortR,
		window: p.window[:0], violBits: p.violBits,
		deferred: p.deferred[:0], deferredSpare: p.deferredSpare[:0],
		ifbFree: p.ifbFree, waiterFree: p.waiterFree,
		mcArr: p.mcArr, wbScratch: p.wbScratch, slotScratch: p.slotScratch,
	}
}

func idxRange(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

// Cores returns the physical core IDs composing the processor.
func (p *Proc) Cores() []int { return append([]int(nil), p.cores...) }

// Halted reports whether the processor has committed its halt block.
func (p *Proc) Halted() bool { return p.halted }

// speculates reports whether the processor runs ahead with next-block
// prediction (single-block windows fetch non-speculatively; paper §6.4).
func (p *Proc) speculates() bool { return p.maxBlocks > 1 }

func (p *Proc) phys(idx int) int { return p.cores[idx] }

// physAddr maps a virtual address into the processor's physical space.
func (p *Proc) physAddr(vaddr uint64) uint64 { return p.asid<<40 | vaddr }

func (p *Proc) ownerIdx(blockAddr uint64) int {
	if p.chip.Opts.CentralPredictor {
		return 0
	}
	return compose.OwnerOf(blockAddr, p.n)
}

func (p *Proc) dataBankIdx(addr uint64) int {
	return p.dbanks[compose.DataBank(addr, p.chip.Opts.Params.LineBytes, len(p.dbanks))]
}

func (p *Proc) lsqBankOf(addr uint64) *mem.LSQBank {
	return p.lsq[compose.DataBank(addr, p.chip.Opts.Params.LineBytes, len(p.lsq))]
}

func (p *Proc) regBankIdx(reg uint8) int {
	return p.rbanks[compose.RegBank(reg, len(p.rbanks))]
}

// ctlSend routes a control message, honoring the ZeroHandshake ablation.
func (p *Proc) ctlSend(fromIdx, toIdx int, t uint64) uint64 {
	if p.chip.Opts.ZeroHandshake {
		return t
	}
	return p.chip.Ctl.Send(p.phys(fromIdx), p.phys(toIdx), t)
}

// opnSend routes an operand on the operand network.
func (p *Proc) opnSend(fromIdx, toIdx int, t uint64) uint64 {
	return p.chip.Opn.Send(p.phys(fromIdx), p.phys(toIdx), t)
}

// ctlMulticastInto distributes a control message from fromIdx to every
// participating core as a tree multicast (the TRIPS global networks),
// filling dst with per-core arrival cycles in participating order.
func (p *Proc) ctlMulticastInto(fromIdx int, t uint64, dst []uint64) {
	if p.chip.Opts.ZeroHandshake {
		for i := range dst {
			dst[i] = t
		}
		return
	}
	p.chip.Ctl.MulticastInto(p.phys(fromIdx), p.cores, t, dst)
}

// prepareStart validates the program and primes the fetch engine;
// Chip.launch then schedules the first fetch.  It must not read
// registers or memory: callers seed those after AddProc returns.
func (p *Proc) prepareStart() {
	entry := p.prog.EntryBlock()
	if entry == nil {
		p.chip.fail("proc %d: no entry block", p.id)
		return
	}
	p.fetch.addr = entry.Addr
	p.fetch.hist = 0
	p.fetch.readyAt = p.chip.Now()
	p.fetch.valid = true
}

// maybeFetch schedules the next block fetch if one is known and a window
// slot could become available.
func (p *Proc) maybeFetch() {
	if p.halted || !p.fetch.valid || p.fetch.scheduled {
		return
	}
	if len(p.window) >= p.maxBlocks {
		return // re-invoked on dealloc
	}
	p.fetch.scheduled = true
	p.chip.scheduleEv(p.fetch.readyAt, event{kind: evFetch, idx: p.slot, val: p.fetch.epoch})
}

// fetchBlock runs the distributed fetch pipeline for the block at
// p.fetch.addr: prediction, hand-off, I-cache tag check, fetch-command
// distribution and per-core dispatch (paper §4.2, Figure 9a).
func (p *Proc) fetchBlock() {
	t0 := p.chip.now
	addr := p.fetch.addr
	hist := p.fetch.hist
	blkIdx := p.prog.BlockIndex(addr)
	if blkIdx < 0 {
		// Wrong-path fetch to a non-code address (e.g. a cold BTB's
		// next-sequential fallback past the program end).  Stall the
		// fetch engine; the mispredicted older block will flush and
		// redirect when its branch resolves.  If the address is the
		// architecturally correct target, the deadlock detector reports
		// it with this address.
		p.fetch.valid = false
		return
	}
	params := &p.chip.Opts.Params
	lk := p.prog.Linked(blkIdx)

	b := p.acquireIFB()
	resetIFB(b, p, lk, p.nextSeq, hist)
	blk, owner := b.blk, b.owner
	p.nextSeq++
	p.window = append(p.window, b)
	p.Stats.BlocksFetched++

	constLat := uint64(params.L1IHitCycles) + 3 // I-tag + fetch initiation
	if p.speculates() {
		constLat += uint64(params.PredictorLat)
		pred, histAfter := p.Pred.Predict(addr, hist)
		b.pred = pred
		b.specNext = true
		predDone := t0 + uint64(params.PredictorLat)
		// Calls and returns touch the distributed RAS: charge the round
		// trip from the owner to the core holding the stack top.
		if pred.Type == isa.BranchCall || pred.Type == isa.BranchReturn {
			if d := p.chip.Ctl.Dist(p.phys(owner), p.phys(pred.RASTopCore%p.n)); !p.chip.Opts.ZeroHandshake && d > 0 {
				predDone += 2 * uint64(d)
			}
		}
		if pred.Next != 0 {
			nextOwner := p.ownerIdx(pred.Next)
			handArrive := p.ctlSend(owner, nextOwner, predDone)
			p.fetch.addr = pred.Next
			p.fetch.hist = histAfter
			p.fetch.readyAt = handArrive
			p.fetch.valid = true
			b.handOffLat = handArrive - predDone
		} else {
			p.fetch.valid = false // predicted program end
		}
	} else {
		// Non-speculative: the next address comes from branch resolution.
		p.fetch.valid = false
	}
	b.tFetchStart = t0

	// I-cache tag check at the owner; misses fill from the L2.
	cmdStart := t0 + constLat
	if _, hit := p.l1i.Access(p.physAddr(addr), cmdStart); !hit {
		p.Stats.ICacheMisses++
		fill := p.chip.L2.Read(p.phys(owner), p.physAddr(addr), cmdStart)
		p.l1i.Fill(p.physAddr(addr), fill)
		b.icacheStall = fill - cmdStart
		cmdStart = fill
	} else if l := p.l1i.Probe(p.physAddr(addr)); l != nil && l.FillAt > cmdStart {
		b.icacheStall = l.FillAt - cmdStart
		cmdStart = l.FillAt
	}
	b.constLat = constLat

	// Fetch-command distribution to every participating core.
	arr := p.mcArr
	p.ctlMulticastInto(owner, cmdStart, arr)
	bcastFirst, bcastLast := arr[0], cmdStart
	for _, a := range arr {
		bcastFirst = min(bcastFirst, a)
		bcastLast = max(bcastLast, a)
	}
	b.bcastLat = bcastLast - cmdStart

	// Per-core dispatch: each core reads its slots from its I-bank at
	// DispatchBW instructions per cycle.  Nop slots are never dispatched;
	// the linked block lists the live ones.  One evDispatch is filed per
	// distinct dispatch cycle, at the first live instruction that has it;
	// its handler walks Live from there.  seen holds the cycles already
	// filed, as offsets from the first possible one; a cycle past its 64
	// bits files an event per instruction, and all but the first of those
	// find nothing left to do.
	dispatchLast := bcastLast
	slotCount := p.slotScratch
	for i := range slotCount {
		slotCount[i] = 0
	}
	var seen uint64
	for pos, id32 := range lk.Live {
		id := int(id32)
		c := int(p.instCore[id])
		av := arr[c] + 1 + uint64(slotCount[c]/params.DispatchBW)
		slotCount[c]++
		b.insts[id].availAt = av
		if av > dispatchLast {
			dispatchLast = av
		}
		if d := av - bcastFirst - 1; d >= 64 || seen&(1<<d) == 0 {
			seen |= 1 << d // no bit when d >= 64
			p.chip.scheduleEv(av, event{kind: evDispatch, b: b, gen: b.gen, idx: int32(pos)})
		}
	}
	b.dispatchLat = dispatchLast - bcastLast

	// Register reads are dispatched to their register-bank cores.
	for ri := range blk.Reads {
		bank := p.regBankIdx(blk.Reads[ri].Reg)
		p.chip.scheduleEv(arr[bank]+1, event{kind: evRegRead, b: b, gen: b.gen, idx: int32(ri)})
	}

	// Blocks with no register writes/stores can complete with just the
	// branch; outputsPending was set from the linked block.
	p.maybeFetch()
}

// indexOf locates a block in the window (-1 if flushed/committed).
func (p *Proc) indexOf(b *IFB) int {
	for i, w := range p.window {
		if w == b {
			return i
		}
	}
	return -1
}

// flushFrom removes every block with seq >= seq (youngest first, repairing
// predictor state), and restarts fetch at restartAddr with history hist.
func (p *Proc) flushFrom(seq uint64, restartAddr uint64, hist predictor.History, t uint64) {
	for i := len(p.window) - 1; i >= 0; i-- {
		b := p.window[i]
		if b.seq < seq {
			break
		}
		if b.specNext {
			p.Pred.Repair(&b.pred)
		}
		b.dead = true
		p.Stats.BlocksFlushed++
		p.emitBlockEvent(b, t, flight.KFlush)
		p.window = p.window[:i]
		p.releaseIFB(b)
	}
	for _, bank := range p.lsq {
		bank.RemoveFrom(seq)
	}
	// Drop deferred loads belonging to flushed blocks.
	kept := p.deferred[:0]
	for _, d := range p.deferred {
		if d.b.gen == d.gen && !d.b.dead {
			kept = append(kept, d)
		}
	}
	p.deferred = kept
	p.fetch.epoch++
	p.fetch.scheduled = false
	if restartAddr == 0 {
		p.fetch.valid = false
		return
	}
	p.fetch.addr = restartAddr
	p.fetch.hist = hist
	p.fetch.readyAt = t + 1 // redirect penalty
	p.fetch.valid = true
	p.maybeFetch()
	p.retryDeferredLoads()
}

// branchResolved handles the arrival of a block's branch outcome at its
// owner core: misprediction detection, fetch redirection, and completion
// bookkeeping.
func (p *Proc) branchResolved(b *IFB, out exec.BranchOut, t uint64) {
	if b.dead || b.branchDone {
		return
	}
	b.branchDone = true
	b.actual = out

	if b.specNext {
		if p.Pred.Mispredicted(&b.pred, out.Target) {
			p.Stats.BranchFlushes++
			// Flush younger blocks, repair, redirect.
			p.flushFrom(b.seq+1, 0, 0, t)
			fixed := p.Pred.RepairAfterMiss(&b.pred, out.Exit, out.Op.Type())
			if out.Target != 0 {
				newOwner := p.ownerIdx(out.Target)
				ready := p.ctlSend(b.owner, newOwner, t+1)
				p.fetch.addr = out.Target
				p.fetch.hist = fixed
				p.fetch.readyAt = ready
				p.fetch.valid = true
				p.maybeFetch()
			} else {
				p.fetch.valid = false
			}
		}
	} else {
		// Non-speculative fetch: the next block address is now known.
		if out.Target != 0 {
			newOwner := p.ownerIdx(out.Target)
			ready := p.ctlSend(b.owner, newOwner, t+1)
			p.fetch.addr = out.Target
			p.fetch.hist = 0
			p.fetch.readyAt = ready
			p.fetch.valid = true
			p.maybeFetch()
		}
	}
	p.outputDone(b, t, critpath.OutBranch, 0)
}

// outputDone records one block output (register write, store slot, or
// branch) arriving at the owner at cycle t.  kind/idx identify the
// output for attribution: whichever output completes last becomes the
// root of the critical-path walk (ties go to the latest arrival in
// event order, matching the completion the block actually waited on).
func (p *Proc) outputDone(b *IFB, t uint64, kind critpath.OutKind, idx int32) {
	if b.dead {
		return
	}
	if t > b.completeAt {
		b.completeAt = t
	}
	if b.cp != nil && t == b.completeAt {
		b.cp.LastOut, b.cp.LastIdx = kind, idx
	}
	b.outputsPending--
	if b.outputsPending < 0 {
		p.chip.fail("proc %d block %s seq %d: too many outputs", p.id, b.blk.Name, b.seq)
		return
	}
	if b.outputsPending == 0 {
		b.phase = phaseComplete
		p.tryCommit()
	}
}

// tryCommit launches the four-phase distributed commit protocol (paper
// §4.6) for every complete block at the head of the window.  Commits are
// pipelined: block i+1's commit command may launch one cycle after block
// i's (plus the owner-to-owner "oldest" token hop); architectural drains
// contend on per-bank commit ports; deallocations complete in order.
func (p *Proc) tryCommit() {
	for !p.halted {
		var b *IFB
		for _, w := range p.window {
			if w.phase == phaseCommitting {
				continue
			}
			b = w
			break
		}
		if b == nil || b.phase != phaseComplete || b.faultIdx >= 0 {
			return // a faulted block waits for raiseFault or a flush
		}
		p.startCommit(b)
	}
}

func (p *Proc) startCommit(b *IFB) {
	b.phase = phaseCommitting
	start := b.completeAt
	if now := p.chip.now; now > start {
		start = now
	}
	if p.anyCommitted {
		// The "oldest" token passes from the previous committing block's
		// owner one cycle after its commit launched.
		token := p.ctlSend(p.lastCommitOwner, b.owner, p.lastCommitStart+1)
		if token > start {
			start = token
		}
	}
	p.lastCommitStart = start
	p.lastCommitOwner = b.owner
	p.anyCommitted = true
	b.commitStart = start

	// Phase 2: commit command to all participating cores (tree multicast).
	cmdArr := p.mcArr
	p.ctlMulticastInto(b.owner, start, cmdArr)

	// Phase 3: architectural state update: stores drain at the D-banks
	// and register writes retire at the register banks, one per cycle per
	// bank, contending with other committing blocks.
	wbDone := p.wbScratch
	copy(wbDone, cmdArr)
	lineBytes := p.chip.Opts.Params.LineBytes
	for _, s := range b.stores {
		pos := compose.DataBank(s.addr, lineBytes, len(p.dbanks))
		c := p.dbanks[pos]
		done := p.commitPortD[pos].Reserve(cmdArr[c], 1) + 1
		if done > wbDone[c] {
			wbDone[c] = done
		}
	}
	for wi := range b.wr {
		if !b.wr[wi].has {
			continue
		}
		pos := compose.RegBank(b.blk.Writes[wi].Reg, len(p.rbanks))
		c := p.rbanks[pos]
		done := p.commitPortR[pos].Reserve(cmdArr[c], 1) + 1
		if done > wbDone[c] {
			wbDone[c] = done
		}
	}
	var drainMax uint64
	for c := 0; c < p.n; c++ {
		if d := wbDone[c] - cmdArr[c]; d > drainMax {
			drainMax = d
		}
	}

	// Apply architectural state now: values are final.
	p.applyArchState(b)

	// Phase 3b/4: ACK gather and deallocation broadcast.  ACKs combine in
	// the network (a GSN-style status aggregation tree), so the gather
	// costs the slowest core's completion plus its hop distance rather
	// than 31 serialized messages.
	ackDone := start
	for c := 0; c < p.n; c++ {
		a := wbDone[c]
		if !p.chip.Opts.ZeroHandshake {
			a += p.chip.Ctl.Latency(p.phys(c), p.phys(b.owner))
		}
		if a > ackDone {
			ackDone = a
		}
	}
	// cmdArr is fully consumed above; reuse the multicast scratch.
	p.ctlMulticastInto(b.owner, ackDone, p.mcArr)
	deallocAt := ackDone
	for _, a := range p.mcArr {
		if a > deallocAt {
			deallocAt = a
		}
	}

	p.Stats.CommitBlocks++
	p.Stats.CommitArchSum += drainMax
	p.Stats.CommitHandshakeSum += (deallocAt - start) - drainMax

	p.chip.scheduleEv(deallocAt, event{kind: evDealloc, b: b, gen: b.gen, val: deallocAt})
}

// applyArchState commits a block's register writes and stores.
func (p *Proc) applyArchState(b *IFB) {
	for wi := range b.wr {
		if b.wr[wi].has {
			p.Regs[b.blk.Writes[wi].Reg] = b.wr[wi].val
			p.Stats.RegWrites++
		}
	}
	for _, s := range b.stores { // in LSID order: see addStore
		p.Mem.Store(s.addr, int(s.size), s.val)
		if p.storeTrace != nil {
			p.storeTrace(s.addr, s.size, s.val)
		}
		p.commitStoreToCache(s.addr)
	}
}

// commitStoreToCache updates the D-cache and coherence state for one
// committed store (write-allocate, write-back, directory upgrade).
func (p *Proc) commitStoreToCache(addr uint64) {
	bank := p.dataBankIdx(addr)
	physCore := p.phys(bank)
	cache := p.chip.l1dAt(physCore)
	pa := p.physAddr(addr)
	now := p.chip.now
	if line, hit := cache.Access(pa, now); hit {
		if !line.Dirty {
			p.chip.L2.Upgrade(physCore, pa, now)
			line.Dirty = true
		}
		return
	}
	fill := p.chip.L2.Upgrade(physCore, pa, now)
	victim, evicted := cache.Fill(pa, fill)
	if evicted {
		p.writeBackVictim(physCore, victim)
	}
	if l := cache.Probe(pa); l != nil {
		l.Dirty = true
	}
}

func (p *Proc) writeBackVictim(physCore int, victim mem.Line) {
	addr := victim.LineAddr * uint64(p.chip.Opts.Params.LineBytes)
	if victim.Dirty {
		p.chip.L2.WritebackL1(physCore, addr)
	} else {
		p.chip.L2.DropSharer(physCore, addr)
	}
}

// drainCommitted retires deallocated blocks from the head of the window
// in order.
func (p *Proc) drainCommitted() {
	for len(p.window) > 0 && p.window[0].deallocDone && !p.halted {
		b := p.window[0]
		n := copy(p.window, p.window[1:])
		p.window[n] = nil
		p.window = p.window[:n]
		p.finalizeCommit(b, b.deallocAt)
	}
	if !p.halted {
		if len(p.window) > 0 {
			p.raiseFault(p.window[0]) // now the oldest block
		}
		p.tryCommit()
		p.maybeFetch()
	}
}

// finalizeCommit retires one block at its deallocation time.
func (p *Proc) finalizeCommit(b *IFB, t uint64) {
	for _, bank := range p.lsq {
		bank.RemoveBlock(b.seq)
	}
	p.Stats.BlocksCommitted++
	p.Stats.InstsCommitted += uint64(b.useful)
	if b.cp != nil {
		p.finalizeCritPath(b, t)
	}
	p.emitBlockEvent(b, t, flight.KCommit)
	p.Stats.Loads += uint64(b.loads)
	p.Stats.Stores += uint64(len(b.stores))

	p.Stats.FetchBlocks++
	p.Stats.FetchConstSum += b.constLat
	p.Stats.FetchHandOffSum += b.handOffLat
	p.Stats.FetchBcastSum += b.bcastLat
	p.Stats.FetchDispatchSum += b.dispatchLat
	p.Stats.FetchIStallSum += b.icacheStall
	p.hFetchLat.Observe(b.constLat + b.handOffLat + b.bcastLat + b.dispatchLat + b.icacheStall)
	p.hCommitLat.Observe(t - b.commitStart)

	if b.specNext {
		p.Pred.Train(&b.pred, b.actual.Exit, b.actual.Op.Type(), b.actual.Target)
	}

	// Serve any read waiters that were still attached (defensively:
	// normally writes resolve before completion).
	for wi := range b.wr {
		for i := range b.wr[wi].waiters {
			if w := &b.wr[wi].waiters[i]; w.live() {
				p.resolveRead(w.b, w.readIdx, t)
			}
		}
		b.wr[wi].waiters = nil
	}
	p.retryDeferredLoads()

	if b.actual.Op == isa.OpHalt {
		p.halted = true
		p.Stats.Cycles = t - p.launchedAt
	}
	p.releaseIFB(b)
}

// describeStall reports what a deadlocked processor was waiting for.
func (p *Proc) describeStall() string {
	if len(p.window) == 0 {
		return fmt.Sprintf("empty window, fetch valid=%v addr=%#x", p.fetch.valid, p.fetch.addr)
	}
	b := p.window[0]
	return fmt.Sprintf("oldest block %s seq %d phase %d outputsPending %d branchDone %v",
		b.blk.Name, b.seq, b.phase, b.outputsPending, b.branchDone)
}
