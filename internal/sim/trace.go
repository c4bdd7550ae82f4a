package sim

import (
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// Block retirement is the one place a block's lifecycle leaves the
// engine: emitBlockEvent writes the block's flight record, builds one
// fixed-size record on the stack, hands it to the processor's observer
// and stores its lifetime half in the chip's trace, which renders it
// late (Chrome spans, timeline CSV).  A flight dump builds the same
// lifetime for a block still in flight (blockRecord).

// BlockEvent is the retirement record of one dynamic block: its
// lifetime (every phase boundary, see telemetry.BlockRecord) and, for a
// committed block on a chip with EnableCritPath armed, its
// critical-path attribution.  A plain value — no pointer, map or slice
// beyond the block's name — so observers may keep it.
type BlockEvent struct {
	telemetry.BlockRecord
	// CritPath is the block's attribution breakdown, meaningful only
	// when HasCritPath is set.  By the reconciliation invariant its
	// categories sum to exactly RetiredAt-FetchStart.
	CritPath    critpath.Breakdown
	HasCritPath bool
}

// TraceBlocks installs a block-retirement observer.  The hook runs inside
// the simulation loop; it must not call back into the simulator.
func (p *Proc) TraceBlocks(fn func(BlockEvent)) { p.blockTrace = fn }

// TraceStores installs a store-commit observer invoked for every
// architecturally committed store in commit order (block retirement
// order, LSID order within a block).  Same contract as TraceBlocks: the
// hook runs inside the simulation loop and must not call back in.
func (p *Proc) TraceStores(fn func(addr uint64, size uint8, val uint64)) { p.storeTrace = fn }

// emitBlockEvent is the retirement site finalizeCommit (KCommit) and
// flushFrom (KFlush) share, and the one place a processor writes the
// flight ring.  With no recorder, observer or trace it is three nil
// checks.
func (p *Proc) emitBlockEvent(b *IFB, retiredAt uint64, kind flight.Kind) {
	p.chip.flight.Add(kind, retiredAt, int16(p.id), int16(p.phys(b.owner)), b.seq, b.blk.Addr)
	if p.blockTrace == nil && p.chip.trace == nil {
		return
	}
	ev := BlockEvent{BlockRecord: p.blockRecord(b)}
	ev.RetiredAt, ev.Flushed = retiredAt, kind == flight.KFlush
	if !ev.Flushed {
		ev.Useful = b.useful
		if b.cp != nil {
			ev.CritPath, ev.HasCritPath = b.cp.Result, true
		}
	}
	if p.blockTrace != nil {
		p.blockTrace(ev)
	}
	p.chip.trace.Block(ev.BlockRecord)
}

// blockRecord is b's lifetime so far, RetiredAt left at 0: the record
// emitBlockEvent completes at retirement and FlightDump reads off a block
// still in flight.
func (p *Proc) blockRecord(b *IFB) telemetry.BlockRecord {
	r := telemetry.BlockRecord{
		Seq:          b.seq,
		Name:         b.blk.Name,
		Addr:         b.blk.Addr,
		Proc:         p.id,
		Owner:        b.owner,
		OwnerCore:    p.phys(b.owner),
		FetchStart:   b.tFetchStart,
		DispatchDone: b.tFetchStart + b.constLat + b.icacheStall + b.bcastLat + b.dispatchLat,
		CommitStart:  b.commitStart,
	}
	if b.phase != phaseExecuting || b.outputsPending == 0 {
		r.CompleteAt = b.completeAt
	}
	return r
}
