package sim

// Critical-path attribution integration (see internal/critpath and
// DESIGN.md, "Critical-path attribution").  The simulator's role is
// purely to *record*: each IFB carries a critpath.Block that the
// fetch, execute, memory and commit paths stamp with timestamps and
// last-arrival edges as they already compute them.  At finalizeCommit
// the walker attributes the block's latency and the result folds into
// per-proc summaries, telemetry histograms and (optionally) a
// concurrency-safe rolling aggregate for the observability server.
//
// The disabled-cost contract matches telemetry: with attribution off,
// b.cp is nil and every stamp site compiles to a nil check.  Recording
// never feeds back into scheduling, so architectural results are
// byte-identical with attribution on or off (pinned by the root
// differential test).

import (
	"math/bits"

	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// EnableCritPath arms per-block critical-path attribution.  Call before
// Run; blocks fetched while disabled carry no record.  Idempotent.
func (c *Chip) EnableCritPath() {
	if c.critEnabled {
		return
	}
	c.critEnabled = true
	if c.tel != nil {
		for _, p := range c.Procs {
			p.registerCritHists(c.tel)
		}
	}
}

// SetCritPathSink arms attribution and mirrors every committed block's
// breakdown into r, a mutex-protected rolling aggregate that other
// goroutines (the observability server) may snapshot mid-run.
func (c *Chip) SetCritPathSink(r *critpath.Rolling) {
	c.EnableCritPath()
	c.critSink = r
}

// CritPath returns the chip-wide attribution aggregate, merging the
// per-processor summaries in processor order.
func (c *Chip) CritPath() critpath.Summary {
	var sum critpath.Summary
	for _, p := range c.Procs {
		sum.Merge(p.crit)
	}
	return sum
}

// CritPath returns this processor's attribution aggregate.
func (p *Proc) CritPath() critpath.Summary { return p.crit }

// registerCritHists exposes one per-category latency histogram under
// proc<id>.critpath.<category>.
func (p *Proc) registerCritHists(r *telemetry.Registry) {
	prefix := telemetry.Name(telemetry.Indexed("proc", p.id, ""), "critpath")
	for cat := critpath.Category(0); cat < critpath.NumCategories; cat++ {
		p.hCrit[cat] = r.NewHistogram(telemetry.Name(prefix, cat.String()))
	}
}

// resetCP recycles b's attribution record for a new incarnation, sized
// to what the linked block executes: one instruction record per live
// instruction, and Slots spanning both store and null LSIDs (StoreMask
// covers every slot the block must resolve).  The record stays with the
// IFB across incarnations, unarmed ones included, so a kept chip builds
// each record once.
func (p *Proc) resetCP(b *IFB, lk *prog.Linked) {
	b.cpKept = critpath.ResetBlock(b.cpKept,
		len(lk.Live), len(lk.WriteProducers), len(lk.Block.Reads), bits.Len32(lk.StoreMask))
	b.cp = b.cpKept
}

// opnIdeal is the unloaded operand-network latency between two
// participating cores — the NoC-hop baseline the attribution walker
// subtracts from actual traversal time to isolate contention.
func (p *Proc) opnIdeal(fromIdx, toIdx int) uint64 {
	if fromIdx == toIdx {
		return 0
	}
	return p.chip.Opn.Latency(p.phys(fromIdx), p.phys(toIdx))
}

// finalizeCritPath stamps the block-level timing fields, runs the
// attribution walk and folds the result into the processor aggregate,
// the telemetry histograms and the chip's rolling sink.
func (p *Proc) finalizeCritPath(b *IFB, retiredAt uint64) {
	cp := b.cp
	cp.FetchStart = b.tFetchStart
	cp.ConstLat = b.constLat
	cp.ICacheStall = b.icacheStall
	cp.BcastLat = b.bcastLat
	cp.DispatchLat = b.dispatchLat
	cp.CompleteAt = b.completeAt
	cp.CommitStart = b.commitStart
	cp.RetiredAt = retiredAt
	cp.Result = critpath.Attribute(cp)
	p.crit.Add(cp.Result)
	for cat := critpath.Category(0); cat < critpath.NumCategories; cat++ {
		p.hCrit[cat].Observe(cp.Result[cat])
	}
	if sink := p.chip.critSink; sink != nil {
		sink.Add(cp.Result)
	}
}
