package sim

import (
	"fmt"
	"io"
	"slices"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/mem"
	"github.com/clp-sim/tflex/internal/noc"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// Chip is the simulated 32-core CLP with its networks, private L1 D-caches
// and the shared L2/DRAM hierarchy.  One or more logical processors
// (composed from disjoint core sets) run concurrently on it.
type Chip struct {
	Opts Options

	Opn  *noc.Mesh // operand network
	Ctl  *noc.Mesh // control network (fetch/commit protocols)
	L2   *mem.L2
	DRAM *mem.DRAM

	l1d     [compose.NumCores]*mem.Cache
	l1dPort [compose.NumCores]mem.Port
	issue   [compose.NumCores]*noc.Ring // issue slots: IssueTotal per cycle, IssueFP of them floating point

	Procs []*Proc

	// kept is the storage Reset keeps for the next job; nil until the
	// first reset, so a chip that is never reset does not pay for it.
	kept *keptStorage

	// The chip's one event queue (event.go).  Exactly one is live: the
	// calendar, or under Options.Reference (cal == nil) the plain
	// binary heap.  cal is a pointer so a Reference chip never pays for
	// the calendar's 8 KB of bucket handles.
	cal    *calQueue
	ref    minEvHeap
	seq    uint64 // insertion sequence, the (at, seq) tie-break
	now    uint64
	events uint64 // events executed
	err    error

	// stallEvents is the stall-watchdog budget: run fails with a
	// diagnostic, instead of hanging, when this many events execute
	// without the clock advancing.  The watchdog counts events, not wall
	// time, so it is deterministic like everything else in the engine,
	// and it guards both engines.
	stallEvents uint64

	// Telemetry (see telemetry.go): all nil/disarmed by default.  The
	// event loop pays one uint64 compare per event against sampleAt
	// (+inf when no sampler is armed); everything else is reached only
	// through nil-safe calls.
	tel      *telemetry.Registry
	trace    *telemetry.Trace
	sampler  *telemetry.Sampler
	sampleAt uint64

	// Critical-path attribution (see critpath.go): off by default.
	// critEnabled arms per-block recording (IFBs get a pooled record on
	// reset); critSink optionally mirrors each committed breakdown into
	// a concurrency-safe rolling aggregate for live observability.
	critEnabled bool
	critSink    *critpath.Rolling

	// Flight recorder (see flight.go): nil/unset until EnableFlight, so
	// the disabled cost is the nil check inside flight.Ring.Add.
	flight     *flight.Ring
	flightSink io.Writer
}

// keptStorage is what a reset keeps: emptied L1 D-caches and issue
// rings, which l1dAt and issueAt take before building one, and emptied
// processors, which AddProc takes for a processor of the same size
// (newProc).
type keptStorage struct {
	l1d   [compose.NumCores]*mem.Cache
	issue [compose.NumCores]*noc.Ring
	procs []*Proc
}

// defaultStallEvents is orders of magnitude above what any legal cycle
// executes.
const defaultStallEvents = 1 << 20

// New builds a chip with the given options: Reset on an empty chip.
func New(opts Options) *Chip {
	c := &Chip{Opts: opts}
	c.Reset()
	return c
}

// Reset returns the chip to exactly the state New(c.Opts) returns — no
// processor, cycle 0, every cache, network, queue and statistic empty,
// telemetry, critical-path attribution and the flight recorder disarmed
// — while keeping the storage the jobs run on it built: meshes and their
// link rings, the L2 and L1 tag groups they filled, the event queue's
// slab, and each processor's predictor, LSQ banks, I-cache, window and
// in-flight block pool, which the next AddProc of a processor of the same
// size takes over.  A reset zeroes only what the last job touched.
//
// Every *Proc obtained from the chip before Reset is invalid after it,
// and so is the registry, trace or sampler armed before it; a
// processor's architectural memory (Proc.Mem) is the caller's and is
// never reused.
func (c *Chip) Reset() {
	if c.Opn != nil {
		c.emptyStorage()
	}
	c.seq, c.now, c.events = 0, 0, 0
	c.err = nil
	c.stallEvents = defaultStallEvents
	c.tel, c.trace, c.sampler, c.sampleAt = nil, nil, nil, ^uint64(0)
	c.critEnabled, c.critSink = false, nil
	c.flight, c.flightSink = nil, nil
	c.checkCapacities()
	if c.Opn == nil {
		c.buildStorage()
	}
}

// buildStorage builds an empty chip's networks, memory and event queue.
// L1 D-caches and issue rings are created on first use: a job composing
// k of the 32 cores pays setup for k, not 32.
func (c *Chip) buildStorage() {
	p := c.Opts.Params
	if c.err != nil {
		// Run reports the fault before any event; Table 1's networks and
		// memory keep the rest of the chip well-formed until then.
		p = compose.DefaultCoreParams()
	}
	c.Opn = noc.NewMesh(compose.ArrayW, compose.ArrayH, p.OperandBW)
	c.Ctl = noc.NewMesh(compose.ArrayW, compose.ArrayH, p.ControlBW)
	c.DRAM = mem.NewDRAM(uint64(p.DRAMCycles), 2, 4)
	c.L2 = mem.NewL2(p.L2Bytes, p.L2Assoc, p.LineBytes, 32, uint64(p.L2HitMin), uint64(p.L2HitMax), c.DRAM)
	c.L2.SetDirectory(c)
	if !c.Opts.Reference {
		c.cal = new(calQueue)
	}
}

// emptyStorage empties everything the jobs since the last reset built or
// touched, and parks the processors, L1 D-caches and issue rings in
// c.kept for the next job to take.
func (c *Chip) emptyStorage() {
	if c.critEnabled {
		c.releaseCritRecords() // a failed run still holds its records
	}
	if c.kept == nil {
		c.kept = new(keptStorage)
	}
	for i, pr := range c.Procs {
		pr.empty()
		c.kept.procs = append(c.kept.procs, pr)
		c.Procs[i] = nil
	}
	c.Procs = c.Procs[:0]
	for core, cache := range c.l1d {
		if cache != nil {
			cache.Reset()
			c.kept.l1d[core], c.l1d[core] = cache, nil
		}
	}
	for core, r := range c.issue {
		if r != nil {
			r.Reset(0)
			c.kept.issue[core], c.issue[core] = r, nil
		}
	}
	c.l1dPort = [compose.NumCores]mem.Port{}
	c.Opn.Reset()
	c.Ctl.Reset()
	c.DRAM.Reset()
	c.L2.Reset()
	if c.cal != nil {
		c.cal.reset()
	}
	clear(c.ref) // drop the block pointers a failed Reference run left queued
	c.ref = c.ref[:0]
}

// checkCapacities fails the chip when an issue width or link bandwidth
// is outside what a reservation slot can count: a capacity of zero could
// never be booked (Reserve would spin inside one event, out of the stall
// watchdog's reach), and one past noc.MaxSlotCount would wrap to zero.
// The dispatch width divides a slot count; it has no upper limit.  Nor
// have the cache geometry and the LSQ depth, but each must be positive
// and each cache must hold a set: the tag arrays divide by line size,
// ways and sets, and an LSQ of no entries NACKs every access forever.
func (c *Chip) checkCapacities() {
	p := &c.Opts.Params
	const unbounded = 1<<31 - 1
	sets := func(bytes, ways int) int {
		if ways < 1 || p.LineBytes < 1 {
			return 1 // its own row below
		}
		return bytes / (ways * p.LineBytes)
	}
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"IssueTotal", p.IssueTotal, noc.MaxSlotCount},
		{"IssueFP", p.IssueFP, p.IssueTotal},
		{"OperandBW", p.OperandBW, noc.MaxSlotCount},
		{"ControlBW", p.ControlBW, noc.MaxSlotCount},
		{"DispatchBW", p.DispatchBW, unbounded},
		{"LSQEntries", p.LSQEntries, unbounded},
		{"LineBytes", p.LineBytes, unbounded},
		{"L1DAssoc", p.L1DAssoc, unbounded},
		{"L2Assoc", p.L2Assoc, unbounded},
		{"L1D sets (L1DBytes / L1DAssoc / LineBytes)", sets(p.L1DBytes, p.L1DAssoc), unbounded},
		{"L2 sets (L2Bytes / L2Assoc / LineBytes)", sets(p.L2Bytes, p.L2Assoc), unbounded},
	} {
		if f.v < 1 || f.v > f.max {
			c.fail("%s = %d, want 1..%d", f.name, f.v, f.max)
		}
	}
}

// Now returns the current simulation cycle.
func (c *Chip) Now() uint64 { return c.now }

// fail records the chip's first model fault; the event loop stops before
// its next event and Run reports it.
func (c *Chip) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("sim: "+format, args...)
	}
}

// scheduleEv enqueues a typed event, stamping its time (clamped to now)
// and the chip-wide insertion sequence.  It is the only place an event
// enters the queue.
func (c *Chip) scheduleEv(at uint64, e event) {
	if at < c.now {
		at = c.now
	}
	c.seq++
	e.at = at
	e.seq = c.seq
	if c.cal == nil {
		c.ref.push(&e)
		return
	}
	c.cal.push(&e)
}

// l1dAt returns core's private D-cache, creating it on first use (from
// the one a reset kept, if any).
func (c *Chip) l1dAt(core int) *mem.Cache {
	cache := c.l1d[core]
	if cache == nil {
		if c.kept != nil {
			cache, c.kept.l1d[core] = c.kept.l1d[core], nil
		}
		if cache == nil {
			p := c.Opts.Params
			cache = mem.NewCache(p.L1DBytes, p.L1DAssoc, p.LineBytes)
		}
		c.l1d[core] = cache
		if c.tel != nil {
			cache.Register(c.tel, telemetry.Indexed("core", core, "l1d"))
		}
	}
	return cache
}

// issueAt returns core's issue ring, creating it on first use (from the
// one a reset kept, if any).
func (c *Chip) issueAt(core int) *noc.Ring {
	r := c.issue[core]
	if r == nil {
		if c.kept != nil {
			r, c.kept.issue[core] = c.kept.issue[core], nil
		}
		if r == nil {
			r = noc.NewRing(0, c.Opts.Params.IssueTotal, c.Opts.Params.IssueFP)
		}
		c.issue[core] = r
	}
	return r
}

// InvalidateL1 implements mem.L1Directory.
func (c *Chip) InvalidateL1(core int, addr uint64) (found, dirty bool) {
	if c.l1d[core] == nil {
		return false, false
	}
	return c.l1d[core].Invalidate(addr)
}

// DowngradeL1 implements mem.L1Directory.
func (c *Chip) DowngradeL1(core int, addr uint64) bool {
	if c.l1d[core] == nil {
		return false
	}
	if l := c.l1d[core].Probe(addr); l != nil && l.Valid {
		l.Dirty = false
		return true
	}
	return false
}

// L1DStats sums the D-cache statistics across all cores.
func (c *Chip) L1DStats() mem.CacheStats {
	var s mem.CacheStats
	for i := range c.l1d {
		if c.l1d[i] == nil {
			continue
		}
		cs := c.l1d[i].Stats
		s.Accesses += cs.Accesses
		s.Misses += cs.Misses
		s.Evictions += cs.Evictions
		s.DirtyEvicts += cs.DirtyEvicts
		s.Invalidates += cs.Invalidates
	}
	return s
}

// AddProc composes a logical processor from the given cores and loads a
// program onto it with a fresh architectural memory.
func (c *Chip) AddProc(cores compose.Processor, program *prog.Program) (*Proc, error) {
	if err := c.admit(cores, program); err != nil {
		return nil, err
	}
	pr := newProc(c, len(c.Procs), cores.Cores, program, exec.NewPageMem())
	c.launch(pr)
	return pr, nil
}

// takeKeptProc removes and returns a processor of n cores that a reset
// kept, or nil.
func (c *Chip) takeKeptProc(n int) *Proc {
	if c.kept == nil {
		return nil
	}
	procs := c.kept.procs
	for i, p := range procs {
		if p.n == n {
			last := len(procs) - 1
			procs[i], procs[last] = procs[last], nil
			c.kept.procs = procs[:last]
			return p
		}
	}
	return nil
}

// admit rejects what newProc cannot build: no program, a malformed core
// set, an Options.DBanks or RegBanks entry that is no participating-core
// index of it, and a core a still-running processor holds — two
// processors booking the same issue rings and L1s would corrupt each
// other's timing silently.
func (c *Chip) admit(cores compose.Processor, program *prog.Program) error {
	if program == nil {
		return fmt.Errorf("sim: no program")
	}
	if err := cores.Validate(); err != nil {
		return err
	}
	outside := func(b int) bool { return b < 0 || b >= len(cores.Cores) }
	if slices.ContainsFunc(c.Opts.DBanks, outside) || slices.ContainsFunc(c.Opts.RegBanks, outside) {
		return fmt.Errorf("sim: Options.DBanks %v or RegBanks %v names a bank outside a %d-core processor",
			c.Opts.DBanks, c.Opts.RegBanks, len(cores.Cores))
	}
	for _, p := range c.Procs {
		if p.halted {
			continue
		}
		for _, pc := range p.cores {
			for _, nc := range cores.Cores {
				if pc == nc {
					return fmt.Errorf("sim: core %d already in use", pc)
				}
			}
		}
	}
	return nil
}

// launch files a composed processor on the chip, readies it and schedules
// its first fetch at the current cycle — cycle 0 before the first Run,
// the cycle the last Run stopped at after it — from which Stats.Cycles
// counts.  Nothing composes a processor while Run executes, so the
// caller seeds registers and memory afterwards: no event executes
// outside Run and prepareStart reads no architectural state.
func (c *Chip) launch(pr *Proc) {
	pr.slot = int32(len(c.Procs))
	pr.launchedAt = c.now
	c.Procs = append(c.Procs, pr)
	c.attachProcTelemetry(pr)
	pr.prepareStart()
	c.flight.Add(flight.KCompose, c.now, int16(pr.id), int16(pr.cores[0]), uint64(pr.id), uint64(len(pr.cores)))
	pr.maybeFetch()
}

// AddProcShared composes a logical processor that shares the architectural
// memory (and physical address space) of a finished processor — the
// recomposition scenario: the same thread resumed on a different core set,
// finding its working set in the old cores' L1s via the directory.  A
// thread resumes once: from must be a halted processor of this chip that
// no earlier call resumed (its successor may be resumed in turn).
func (c *Chip) AddProcShared(cores compose.Processor, program *prog.Program, from *Proc) (*Proc, error) {
	switch {
	case from == nil:
		return nil, fmt.Errorf("sim: AddProcShared: no processor to resume from")
	case from.chip != c:
		return nil, fmt.Errorf("sim: AddProcShared: processor %d is not on this chip", from.id)
	case !from.halted:
		return nil, fmt.Errorf("sim: AddProcShared: processor %d has not halted", from.id)
	case from.resumed:
		return nil, fmt.Errorf("sim: AddProcShared: processor %d was already resumed", from.id)
	}
	if err := c.admit(cores, program); err != nil {
		return nil, err
	}
	pr := newProc(c, from.id, cores.Cores, program, from.Mem)
	pr.Regs = from.Regs
	from.resumed = true
	c.launch(pr)
	return pr, nil
}

// Run executes events until every processor halts, the cycle limit is
// exceeded, or the model faults.  With the flight recorder armed
// (EnableFlight) and a sink set (SetFlightSink), a panicking or failing
// run writes a post-mortem text dump on the way out — the panic is
// re-raised unchanged.
func (c *Chip) Run(maxCycles uint64) error {
	if c.flight == nil || c.flightSink == nil {
		return c.run(maxCycles)
	}
	defer func() {
		if r := recover(); r != nil {
			c.flightPostMortem(fmt.Sprintf("panic: %v", r))
			panic(r)
		}
	}()
	err := c.run(maxCycles)
	if err != nil {
		c.flightPostMortem(err.Error())
	}
	return err
}

// run is the event loop of both engines: pop the earliest event in
// (at, seq) order, check the cycle limit and the stall watchdog, take due
// samples, dispatch.  Options.Reference changes only which queue the pop
// reads.  A chip already failed — rejected at construction or launch —
// runs no event.
func (c *Chip) run(maxCycles uint64) error {
	stall := c.stallEvents
	var sameCycle uint64 // events executed since the clock last advanced
	var e event
	for c.err == nil {
		if c.cal != nil {
			if c.cal.empty() {
				break
			}
			c.cal.popMin(&e)
		} else {
			if len(c.ref) == 0 {
				break
			}
			e = c.ref.pop()
		}
		if e.at > maxCycles {
			c.fail("exceeded %d cycles (running: %s)", maxCycles, c.runningProcs())
			break
		}
		if e.at != c.now {
			c.now = e.at
			sameCycle = 0
		}
		if sameCycle++; sameCycle >= stall {
			c.flight.Add(flight.KStall, c.now, -1, -1, sameCycle, 0)
			c.fail("stall watchdog: %d events executed without the clock advancing past cycle %d (flight ring dumped)", sameCycle, c.now)
			break
		}
		c.events++
		if e.at >= c.sampleAt {
			c.takeSamples()
		}
		c.dispatch(&e, e.at)
	}
	if c.err != nil {
		return c.err
	}
	for _, p := range c.Procs {
		if !p.halted {
			return fmt.Errorf("sim: deadlock: processor %d stalled at cycle %d (%s)", p.id, c.now, p.describeStall())
		}
	}
	if c.critEnabled {
		c.releaseCritRecords()
	}
	return nil
}

// dispatch executes one event at cycle now (the event's own time).
// Events carrying a block reference are dropped when the block's
// generation moved on — the block committed or was flushed (and possibly
// recycled) after the event was scheduled.
func (c *Chip) dispatch(e *event, now uint64) {
	if e.b != nil && e.b.gen != e.gen {
		return
	}
	switch e.kind {
	case evDispatch:
		// Every slot of the block arriving this cycle, in Live order from
		// the first: the sequence one event per slot used to execute.
		b := e.b
		live := b.lk.Live
		for i := int(e.idx); i < len(live) && !b.dead && b.gen == e.gen; i++ {
			if st := &b.insts[live[i]]; st.availAt == now && !st.avail {
				st.avail = true
				b.p.maybeIssue(b, int(live[i]))
			}
		}
	case evRegRead:
		b := e.b
		if b.dead {
			return
		}
		b.p.resolveRead(b, int(e.idx), now)
	case evDeliver:
		e.b.p.deliver(e.b, e.tgt, e.val, false, int(e.from), now)
	case evDeadToken:
		e.b.p.deliver(e.b, e.tgt, 0, true, int(e.from), now)
	case evLoadBank:
		e.b.p.loadAtBank(e.b, int(e.idx), e.addr, now)
	case evStoreBank:
		e.b.p.storeAtBank(e.b, int(e.idx), e.addr, e.val, now)
	case evNullSlot:
		b := e.b
		if b.dead {
			return
		}
		b.p.resolveStoreSlot(b, int8(e.idx), now, false)
	case evBranch:
		out := exec.BranchOut{Op: isa.Opcode(e.idx), Exit: e.from, Target: e.val}
		e.b.p.branchResolved(e.b, out, now)
	case evDealloc:
		b := e.b
		b.deallocDone = true
		b.deallocAt = e.val
		b.p.drainCommitted()
	case evFetch:
		p := c.Procs[e.idx]
		if e.val != p.fetch.epoch || p.halted {
			return
		}
		p.fetch.scheduled = false
		if !p.fetch.valid || len(p.window) >= p.maxBlocks {
			return
		}
		p.fetchBlock()
	}
}

func (c *Chip) runningProcs() string {
	s := ""
	for _, p := range c.Procs {
		if !p.halted {
			if s != "" {
				s += ","
			}
			s += fmt.Sprintf("proc%d", p.id)
		}
	}
	if s == "" {
		s = "none"
	}
	return s
}
