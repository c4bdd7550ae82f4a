package sim

import "github.com/clp-sim/tflex/internal/telemetry"

// Telemetry integration.  The registry, Chrome trace and sampler are all
// opt-in; a chip that never calls into this file carries three nil
// pointers and a +inf sample cycle, and the simulation hot paths pay
// only the nil checks audited in DESIGN.md ("Telemetry").
//
// Naming scheme:
//
//	proc<id>.*                    per logical processor (blocks, insts,
//	                              fetch/commit phase sums, pred.*, l1i.*)
//	proc<id>.core<phys>.issued    per-core issue counts
//	core<phys>.l1d.* core<phys>.lsq.*   per physical core
//	noc.opnd.* noc.ctl.*          meshes, incl. .link.<a>.<b>.flits
//	l2.* dram.*                   shared memory system
//	sim.events                    events the chip's loop executed
//	sim.events.<kind>             the same by kind (dispatch, deliver, ...)
//
// Counters are views over the fields the components already increment;
// only histograms, gauges, the sampler and the Chrome trace do work at
// collection time.

// Telemetry returns the chip's metric registry, building it on first use
// by registering every existing component: in the registry the last
// reset kept, cleared, if there is one, else in a new one.  Components
// created later (lazy L1s, processors added by a run-time scheduler)
// register themselves on creation.
func (c *Chip) Telemetry() *telemetry.Registry {
	if c.tel != nil {
		return c.tel
	}
	if c.kept != nil {
		c.tel, c.kept.tel = c.kept.tel, nil
	}
	if c.tel == nil {
		c.tel = telemetry.NewRegistry()
	}
	c.Opn.Register(c.tel, "noc.opnd")
	c.Ctl.Register(c.tel, "noc.ctl")
	c.L2.Register(c.tel, "l2")
	c.DRAM.Register(c.tel, "dram")
	for core, cache := range c.l1d {
		if cache != nil {
			cache.Register(c.tel, telemetry.Indexed("core", core, "l1d"))
		}
	}
	for _, p := range c.Procs {
		p.register(c.tel)
	}
	if c.eventsGauge == nil {
		c.eventsGauge = func() float64 { return float64(c.Events()) }
	}
	c.tel.Gauge("sim.events", c.eventsGauge)
	for k := range c.events {
		c.tel.CounterView(telemetry.Name("sim.events", evKindNames[k]), &c.events[k])
	}
	return c.tel
}

// SetChromeTrace installs a trace collector: every retired block stores
// one record there, rendered later as fetch/execute/commit spans on its
// owner core's track (one simulated cycle = 1µs of trace time) or as a
// timeline CSV row.  Pass nil to stop tracing.
func (c *Chip) SetChromeTrace(t *telemetry.Trace) {
	c.trace = t
	for _, p := range c.Procs {
		c.nameProcTracks(p)
	}
}

// SampleEvery arms the cycle sampler: one row every interval cycles,
// tracking window and LSQ occupancy and committed instructions for every
// processor.  Returns the sampler for rendering after the run.
func (c *Chip) SampleEvery(interval uint64) *telemetry.Sampler {
	c.sampler = telemetry.NewSampler(interval)
	c.sampleAt = c.q.Now() + c.sampler.Interval()
	for _, p := range c.Procs {
		c.trackProc(p)
	}
	return c.sampler
}

// takeSamples records rows for every due sample point.  Run calls it at
// most once per popped event, so sample cycles land on exact interval
// multiples even when event time jumps over several of them.
func (c *Chip) takeSamples() {
	iv := c.sampler.Interval()
	for c.sampleAt <= c.q.Now() {
		c.sampler.Sample(c.sampleAt)
		c.sampleAt += iv
	}
}

// attachProcTelemetry hooks a newly added processor into whichever
// telemetry facilities are already active.
func (c *Chip) attachProcTelemetry(p *Proc) {
	if c.tel != nil {
		p.register(c.tel)
	}
	if c.trace != nil {
		c.nameProcTracks(p)
	}
	if c.sampler != nil {
		c.trackProc(p)
	}
}

func (c *Chip) nameProcTracks(p *Proc) {
	c.trace.NameProcess(p.id, telemetry.Indexed("proc", p.id, ""))
	for _, core := range p.cores {
		c.trace.NameThread(p.id, core, telemetry.Indexed("core", core, ""))
	}
}

func (c *Chip) trackProc(p *Proc) {
	prefix := telemetry.Indexed("proc", p.id, "")
	c.sampler.Track(telemetry.Name(prefix, "window.occupancy"), func() float64 { return float64(len(p.window)) })
	c.sampler.Track(telemetry.Name(prefix, "insts.committed"), func() float64 { return float64(p.Stats.InstsCommitted) })
	c.sampler.Track(telemetry.Name(prefix, "lsq.occupancy"), func() float64 {
		occ := 0
		for _, bank := range p.lsq {
			occ += bank.Occupancy()
		}
		return float64(occ)
	})
}

// register exposes the processor and its private components.  A
// recomposed processor (AddProcShared) reuses its predecessor's ID, so
// re-registration replaces the old views and histograms — the registry
// always reflects the live composition, and the new processor's
// histograms count its own blocks only.
func (p *Proc) register(r *telemetry.Registry) {
	if p.windowGauge == nil {
		p.windowGauge = func() float64 { return float64(len(p.window)) }
	}
	prefix := telemetry.Indexed("proc", p.id, "")
	p.Stats.register(r, prefix)
	p.Pred.Register(r, telemetry.Name(prefix, "pred"))
	p.l1i.Register(r, telemetry.Name(prefix, "l1i"))
	for i := range p.lsq {
		p.lsq[i].Register(r, telemetry.Indexed("core", p.phys(p.dbanks[i]), "lsq"))
	}
	core := telemetry.Name(prefix, "core")
	for i := range p.Stats.IssuedByCore {
		r.CounterView(telemetry.Indexed(core, p.phys(i), "issued"), &p.Stats.IssuedByCore[i])
	}
	r.Gauge(telemetry.Name(prefix, "window.occupancy"), p.windowGauge)
	p.hFetchLat = r.NewHistogram(telemetry.Name(prefix, "fetch.latency"))
	p.hCommitLat = r.NewHistogram(telemetry.Name(prefix, "commit.latency"))
	if p.chip.critEnabled {
		p.registerCritHists(r)
	}
}

// register exposes every Stats counter under prefix — the registry view
// the flat struct has become; the fields stay the storage the hot paths
// increment.
func (s *Stats) register(r *telemetry.Registry, prefix string) {
	for _, m := range []struct {
		name string
		f    *uint64
	}{
		{"cycles", &s.Cycles},
		{"blocks.fetched", &s.BlocksFetched},
		{"blocks.committed", &s.BlocksCommitted},
		{"blocks.flushed", &s.BlocksFlushed},
		{"insts.committed", &s.InstsCommitted},
		{"insts.fired", &s.InstsFired},
		{"insts.fp_fired", &s.FPFired},
		{"mem.loads", &s.Loads},
		{"mem.stores", &s.Stores},
		{"flush.branch", &s.BranchFlushes},
		{"flush.violation", &s.ViolationFlushes},
		{"flush.lsq_overflow", &s.LSQOverflowFlushes},
		{"lsq.nacks", &s.LSQNACKs},
		{"fetch.icache_misses", &s.ICacheMisses},
		{"reg.reads", &s.RegReads},
		{"reg.writes", &s.RegWrites},
		{"fetch.blocks", &s.FetchBlocks},
		{"fetch.const_sum", &s.FetchConstSum},
		{"fetch.handoff_sum", &s.FetchHandOffSum},
		{"fetch.bcast_sum", &s.FetchBcastSum},
		{"fetch.dispatch_sum", &s.FetchDispatchSum},
		{"fetch.istall_sum", &s.FetchIStallSum},
		{"commit.blocks", &s.CommitBlocks},
		{"commit.arch_sum", &s.CommitArchSum},
		{"commit.handshake_sum", &s.CommitHandshakeSum},
	} {
		r.CounterView(telemetry.Name(prefix, m.name), m.f)
	}
}
