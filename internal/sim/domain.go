package sim

import (
	"fmt"

	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// Event domains: the partitioned cycle engine.
//
// The optimized engine splits the chip's work into *domains*, each
// owning a bucketed calendar queue, a private (cycle, insertion-seq)
// sequence space and a deferred-coherence inbox.  All state a domain's
// events touch — its processors' windows, LSQ banks, L1s, issue rings
// and the mesh links inside its routing closure — is reachable from no
// other domain; the only state domains share is the L2/DRAM side.  One
// loop (runWindows) advances every domain on the caller's goroutine in
// the global merged event order (at, domainID, seq), in lockstep windows
// of W cycles ([kW, (k+1)W), W = Options.DomainWindow) with a boundary
// between windows.  Domains and windows are the multiprogram *model* —
// which processors can observe each other, and when — not a parallelism
// device: a single-program chip is the one-domain case of the same loop,
// where windows are unobservable.
//
// Options.Reference is the degenerate chip: one domain holding every
// processor, whose queue is the container/heap oracle, drained by
// runReference with no windows.
//
// Domain formation.  Processors are grouped by the closure of two
// relations: sharing an architectural memory (AddProcShared — directory
// traffic on shared lines must stay inside one domain) and overlapping
// routing bounding boxes (XY routes never leave the bounding box of
// their endpoints, so disjoint boxes touch disjoint mesh links).  The
// grouping runs only between windows — Run entry and window boundaries —
// and processors composed mid-run begin fetching at the boundary that
// places them, modeling a (≤ W cycle) recomposition latency.  Domains
// whose boxes an arriving processor bridges are merged at the same
// boundary.
//
// Cross-domain coherence.  Address-space tagging (physAddr) makes every
// same-line directory operation intra-domain; the single cross-domain
// channel is the L2 eviction path invalidating a victim's L1 line in
// another domain.  Those invalidations are deferred into the target
// domain's inbox and applied at the next window boundary — an
// invalidate message spending up to W cycles crossing the chip.

// domain is one event partition.
type domain struct {
	id   int
	chip *Chip

	// Exactly one queue is live: the calendar, or under Options.Reference
	// (cal == nil) the container/heap oracle.
	cal *calQueue
	ref eventQueue
	seq uint64
	now uint64

	procs []*Proc
	mems  []*exec.PageMem // identity set for memory-sharing grouping

	// Routing-closure bounding box, inclusive; x0 == -1 when empty.
	x0, y0, x1, y1 int

	// inbox holds deferred cross-domain L1 invalidations in global
	// defer-sequence order.
	inbox []inval

	err   error
	errAt uint64

	// flight is the domain's flight-recorder ring; nil unless
	// Chip.EnableFlight armed the recorder, so the disabled cost is the
	// nil check inside flight.Ring.Add.
	flight *flight.Ring

	// Scheduler observability counters, always on in the style of
	// Stats (plain increments, no pointers).  All are derived from the
	// merged event order — never wall time — so they are deterministic.
	// mergeDomains folds the absorbed domain's counters into the
	// survivor.
	windows     uint64 // lockstep windows completed (boundary-counted)
	events      uint64 // events executed
	winEvents   uint64 // events executed in the current window
	barrierWait uint64 // cumulative end-of-window slack cycles (≤ W each)
	invalsSeen  uint64 // deferred cross-domain invals delivered

	hBarrier *telemetry.Histogram // domain<d>.barrier.wait_cycles; nil-safe
}

// inval is one deferred L1 invalidation.
type inval struct {
	seq  uint64 // global defer sequence, for deterministic merges
	core int
	addr uint64
}

// scheduleEv enqueues a typed event in this domain, stamping time
// (clamped to the domain's now) and the domain-local insertion sequence.
func (d *domain) scheduleEv(at uint64, e event) {
	if at < d.now {
		at = d.now
	}
	d.seq++
	e.at = at
	e.seq = d.seq
	if d.cal == nil {
		d.ref.push(e)
		return
	}
	d.cal.push(e)
}

// fail records the domain's first model fault; the event loop stops
// before its next event and reports the globally first fault.
func (d *domain) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sim: "+format, args...)
		d.errAt = d.now
	}
}

// stall fails the run with the watchdog diagnostic: the domain executed
// count events without its window advancing.  The event loop stops
// instead of hanging; the flight rings (when armed) keep the event
// history leading up to the stall, and Chip.Run writes a post-mortem
// text dump to the flight sink on the way out.
func (d *domain) stall(count, limit uint64) {
	d.flight.Add(flight.KStall, d.now, -1, -1, limit, count)
	d.fail("stall watchdog: domain %d executed %d events without advancing past cycle %d (limit %d events; flight rings dumped)",
		d.id, count, d.now, d.chip.Opts.stallEvents())
}

// emptyBox is the bounding-box sentinel for a domain with no cores.
func (d *domain) boxEmpty() bool { return d.x0 < 0 }

func (d *domain) growBox(x0, y0, x1, y1 int) {
	if d.boxEmpty() {
		d.x0, d.y0, d.x1, d.y1 = x0, y0, x1, y1
		return
	}
	if x0 < d.x0 {
		d.x0 = x0
	}
	if y0 < d.y0 {
		d.y0 = y0
	}
	if x1 > d.x1 {
		d.x1 = x1
	}
	if y1 > d.y1 {
		d.y1 = y1
	}
}

func (d *domain) overlapsBox(x0, y0, x1, y1 int) bool {
	if d.boxEmpty() {
		return false
	}
	return x0 <= d.x1 && d.x0 <= x1 && y0 <= d.y1 && d.y0 <= y1
}

func (d *domain) ownsMem(m *exec.PageMem) bool {
	for _, mm := range d.mems {
		if mm == m {
			return true
		}
	}
	return false
}

// applyInbox applies deferred cross-domain invalidations.  Runs only at
// window boundaries.  The dirty bit and distance feedback are discarded
// exactly as the immediate eviction path discards them (mem/l2.go
// fill), so deferral shifts only the victim's hit/miss timing by at
// most W cycles.
func (d *domain) applyInbox() {
	c := d.chip
	for i := range d.inbox {
		msg := &d.inbox[i]
		d.invalsSeen++
		d.flight.Add(flight.KInval, d.now, -1, int16(msg.core), msg.addr, msg.seq)
		if cache := c.l1d[msg.core]; cache != nil {
			if found, _ := cache.Invalidate(msg.addr); found {
				c.L2.Stats.Invals++
			}
		}
	}
	d.inbox = d.inbox[:0]
}

// stats snapshots the domain's scheduler observability counters.
func (d *domain) stats() flight.DomainStats {
	cores := 0
	for _, p := range d.procs {
		cores += len(p.cores)
	}
	return flight.DomainStats{
		Dom:         d.id,
		Procs:       len(d.procs),
		Cores:       cores,
		Now:         d.now,
		Windows:     d.windows,
		Events:      d.events,
		BarrierWait: d.barrierWait,
		Invals:      d.invalsSeen,
		InboxDepth:  len(d.inbox),
		RingRecords: d.flight.Written(),
	}
}

// register installs the domain's telemetry views: window occupancy,
// barrier-wait histogram, delivered invalidations and inbox depth.  A
// domain merged away keeps its entries with the counters folded into
// (and future activity accounted to) the surviving domain.
func (d *domain) register(r *telemetry.Registry) {
	prefix := fmt.Sprintf("domain%d", d.id)
	r.CounterView(prefix+".window.count", &d.windows)
	r.CounterView(prefix+".window.events", &d.events)
	r.CounterView(prefix+".barrier.wait_total", &d.barrierWait)
	r.CounterView(prefix+".inval.delivered", &d.invalsSeen)
	r.Gauge(prefix+".inbox.depth", func() float64 { return float64(len(d.inbox)) })
	r.Gauge(prefix+".window.occupancy", func() float64 {
		if d.windows == 0 {
			return 0
		}
		return float64(d.events) / float64(d.windows)
	})
	d.hBarrier = r.Histogram(prefix + ".barrier.wait_cycles")
}

// bboxOfCores returns the inclusive mesh bounding box of a core set.
func (c *Chip) bboxOfCores(cores []int) (x0, y0, x1, y1 int) {
	x0, y0 = c.Opn.XY(cores[0])
	x1, y1 = x0, y0
	for _, core := range cores[1:] {
		x, y := c.Opn.XY(core)
		if x < x0 {
			x0 = x
		}
		if y < y0 {
			y0 = y
		}
		if x > x1 {
			x1 = x
		}
		if y > y1 {
			y1 = y
		}
	}
	return
}

// newDomain appends a fresh, empty domain, arming its flight ring and
// telemetry views when the chip has them.  A Reference domain gets no
// calendar: the 8 KB of bucket handles would outweigh the rest of its
// chip's set-up on a short job.
func (c *Chip) newDomain() *domain {
	d := &domain{id: c.nextDomainID, chip: c, x0: -1}
	if !c.Opts.Reference {
		d.cal = new(calQueue)
	}
	c.nextDomainID++
	if c.flightRec != nil {
		d.flight = c.flightRec.NewRing(d.id)
	}
	if c.tel != nil {
		d.register(c.tel)
	}
	c.domains = append(c.domains, d)
	return d
}

// placePending assigns every processor composed since the last window
// boundary to a domain (forming, joining or merging domains as its
// footprint requires) and schedules its first fetch no earlier than
// startAt.  Must run between windows.  The slice is cleared and kept, so
// a placed processor is not pinned by the backing array and repeated
// compositions reuse it.
func (c *Chip) placePending(startAt uint64) {
	for i, p := range c.pendingProcs {
		c.pendingProcs[i] = nil
		c.placeProc(p, startAt)
	}
	c.pendingProcs = c.pendingProcs[:0]
}

func (c *Chip) placeProc(p *Proc, startAt uint64) {
	x0, y0, x1, y1 := c.bboxOfCores(p.cores)
	var matches []*domain
	for _, d := range c.domains {
		if d.overlapsBox(x0, y0, x1, y1) || d.ownsMem(p.Mem) {
			matches = append(matches, d)
		}
	}
	var into *domain
	if len(matches) == 0 {
		into = c.newDomain()
	} else {
		into = matches[0]
		for _, d := range matches[1:] {
			c.mergeDomains(into, d)
		}
	}
	into.adopt(p, x0, y0, x1, y1, startAt)
}

// adopt attaches a processor to the domain and seeds its fetch engine.
func (d *domain) adopt(p *Proc, x0, y0, x1, y1 int, startAt uint64) {
	p.dom = d
	p.fr = d.flight
	d.flight.Add(flight.KCompose, startAt, int16(p.id), int16(p.cores[0]), uint64(p.id), uint64(len(p.cores)))
	d.procs = append(d.procs, p)
	if !d.ownsMem(p.Mem) {
		d.mems = append(d.mems, p.Mem)
	}
	d.growBox(x0, y0, x1, y1)
	for _, core := range p.cores {
		d.chip.coreDom[core] = d
	}
	if p.fetch.readyAt < startAt {
		p.fetch.readyAt = startAt
	}
	p.maybeFetch()
}

// mergeDomains folds b into a (a.id < b.id, between windows): b's queued
// events re-file into a's sequence space in (at, seq) order, clamped to
// the merged now — the deterministic definition of a bridge merge.
func (c *Chip) mergeDomains(a, b *domain) {
	if b.now > a.now {
		a.now = b.now
	}
	for !b.cal.empty() {
		e := b.cal.popMin()
		a.scheduleEv(e.at, e)
	}
	a.flight.Add(flight.KCompose, a.now, -1, -1, uint64(a.id), uint64(b.id))
	for _, p := range b.procs {
		p.dom = a
		p.fr = a.flight
		a.procs = append(a.procs, p)
	}
	// Fold the absorbed domain's scheduler counters into the survivor so
	// chip-wide totals are conserved across merges.
	a.events += b.events
	a.windows += b.windows
	a.barrierWait += b.barrierWait
	a.invalsSeen += b.invalsSeen
	b.events, b.windows, b.barrierWait, b.invalsSeen = 0, 0, 0, 0
	for _, m := range b.mems {
		if !a.ownsMem(m) {
			a.mems = append(a.mems, m)
		}
	}
	if !b.boxEmpty() {
		a.growBox(b.x0, b.y0, b.x1, b.y1)
	}
	// Merge the inboxes by global defer sequence (each is ascending).
	if len(b.inbox) > 0 {
		merged := make([]inval, 0, len(a.inbox)+len(b.inbox))
		i, j := 0, 0
		for i < len(a.inbox) && j < len(b.inbox) {
			if a.inbox[i].seq < b.inbox[j].seq {
				merged = append(merged, a.inbox[i])
				i++
			} else {
				merged = append(merged, b.inbox[j])
				j++
			}
		}
		merged = append(merged, a.inbox[i:]...)
		merged = append(merged, b.inbox[j:]...)
		a.inbox = merged
	}
	if b.err != nil && a.err == nil {
		a.err, a.errAt = b.err, b.errAt
	}
	for i := range c.coreDom {
		if c.coreDom[i] == b {
			c.coreDom[i] = a
		}
	}
	for i, d := range c.domains {
		if d == b {
			c.domains = append(c.domains[:i], c.domains[i+1:]...)
			break
		}
	}
}

// minNextAt returns the earliest pending event cycle across domains.
func (c *Chip) minNextAt() (uint64, bool) {
	var m uint64
	ok := false
	for _, d := range c.domains {
		if at, k := d.cal.nextAt(); k && (!ok || at < m) {
			m, ok = at, true
		}
	}
	return m, ok
}

// collectErrors promotes the globally first domain fault (min errAt,
// domain order breaking ties) to the chip.
func (c *Chip) collectErrors() {
	if c.err != nil {
		return
	}
	var best *domain
	for _, d := range c.domains {
		if d.err != nil && (best == nil || d.errAt < best.errAt) {
			best = d
		}
	}
	if best != nil {
		c.err = best.err
	}
}

// windowBoundary runs the between-window work: deferred invalidations
// apply in domain order, and processors composed during the window are
// placed and begin fetching at the boundary cycle.
func (c *Chip) windowBoundary(boundaryCycle uint64) {
	w := c.Opts.domainWindow()
	for _, d := range c.domains {
		// Barrier accounting: the end-of-window slack (cycles between the
		// domain's last executed event and the boundary, clamped to the
		// window width) — the simulated-time analogue of barrier wait.
		d.windows++
		slack := uint64(0)
		if d.now < boundaryCycle {
			slack = boundaryCycle - d.now
			if slack > w {
				slack = w
			}
		}
		d.barrierWait += slack
		d.hBarrier.Observe(slack)
		d.flight.Add(flight.KBarrierRelease, boundaryCycle, -1, -1, boundaryCycle, slack)
		d.applyInbox()
	}
	if len(c.pendingProcs) > 0 {
		c.placePending(boundaryCycle)
	}
}

// windowLimitFor returns the exclusive event-time limit of the window
// containing cycle m: the next multiple of W above m, capped so no
// event beyond maxCycles ever executes.
func (c *Chip) windowLimitFor(m, maxCycles uint64) uint64 {
	w := c.Opts.domainWindow()
	limit := (m/w + 1) * w
	if maxCycles != ^uint64(0) && limit > maxCycles+1 {
		limit = maxCycles + 1
	}
	return limit
}

func (c *Chip) exceededErr(maxCycles uint64) error {
	return fmt.Errorf("sim: exceeded %d cycles (running: %s)", maxCycles, c.runningProcs())
}

// nextDomain picks the domain holding the globally minimal pending
// (at, domainID) key below limit, and the exclusive cycle bound until
// which that domain stays minimal: another domain's next event ends the
// run at its own cycle if it has the lower ID, one cycle later if not.
// Events never schedule into a foreign domain, so the bound holds while
// the picked domain executes.
func (c *Chip) nextDomain(limit uint64) (best *domain, until uint64) {
	until = limit
	var bat uint64
	for _, d := range c.domains {
		at, ok := d.cal.nextAt()
		if !ok || at >= until {
			continue
		}
		if best == nil || at < bat {
			if best != nil {
				until = bat
			}
			best, bat = d, at
		} else {
			until = at + 1
		}
	}
	return best, until
}

// runReference is the Options.Reference event loop: one domain, heap
// queue, no windows.  Every processor lives in curDom, so events run in
// plain (at, seq) order and cross-domain deferral never triggers.
func (c *Chip) runReference(maxCycles uint64) {
	d := c.curDom
	if d == nil {
		return // no processor was ever launched
	}
	for c.err == nil && d.err == nil && !d.ref.empty() {
		e := d.ref.popMin()
		if e.at > maxCycles {
			c.err = c.exceededErr(maxCycles)
			return
		}
		d.now = e.at
		c.now = e.at
		d.events++
		if e.at >= c.sampleAt {
			c.takeSamples()
		}
		c.dispatch(&e, e.at)
	}
	c.collectErrors()
}

// runWindows is the optimized engine's event loop: every domain advances
// on the caller's goroutine in merged (at, domainID, seq) order, window
// by window, until the queues drain, the cycle limit is passed or a
// domain faults.  The stall watchdog is window-granular: a domain that
// executes Options.StallEvents events inside one window fails the run.
func (c *Chip) runWindows(maxCycles uint64) {
	stall := c.Opts.stallEvents()
	c.collectErrors()
	for c.err == nil {
		m, ok := c.minNextAt()
		if !ok {
			return
		}
		if m > maxCycles {
			c.err = c.exceededErr(maxCycles)
			return
		}
		limit := c.windowLimitFor(m, maxCycles)
		for _, d := range c.domains {
			d.winEvents = 0
			d.flight.Add(flight.KWindowOpen, d.now, -1, -1, limit, 0)
		}
		for {
			d, until := c.nextDomain(limit)
			if d == nil {
				break
			}
			c.curDom = d
			for d.err == nil {
				e, ok := d.cal.popBefore(until)
				if !ok {
					break
				}
				d.now = e.at
				c.now = e.at
				d.winEvents++
				if d.winEvents >= stall {
					d.stall(d.winEvents, limit)
					break
				}
				if e.at >= c.sampleAt {
					c.takeSamples()
				}
				c.dispatch(&e, e.at)
			}
			if d.err != nil {
				break
			}
		}
		c.curDom = nil
		for _, d := range c.domains {
			d.events += d.winEvents
			d.flight.Add(flight.KWindowClose, d.now, -1, -1, limit, d.winEvents)
		}
		c.collectErrors()
		if c.err == nil {
			c.windowBoundary(limit)
		}
	}
}
