package sim

import (
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// Block-lifecycle tracing: an optional per-processor hook that observes
// every block's journey through the distributed pipeline — the tool used
// to debug the protocols and to visualize occupancy.

// BlockEvent records the lifetime of one dynamic block.  It carries
// every phase boundary, so exporters (the Chrome trace writer below,
// the tflexsim timeline CSV) need no access to simulator internals.
type BlockEvent struct {
	Seq   uint64
	Name  string
	Addr  uint64
	Owner int // participating-core index
	// OwnerCore is the physical core ID of the owner — the track a
	// per-core visualization files this block under.
	OwnerCore int
	// FetchStart is the cycle the fetch pipeline began working on the
	// block at its owner (prediction + hand-off receipt).
	FetchStart uint64
	// DispatchDone is when the last instruction was dispatched into the
	// window: FetchStart plus the prediction/I-tag constant, I-cache
	// stall, fetch-command broadcast and per-core dispatch latencies.
	DispatchDone uint64
	// CompleteAt is when the owner detected completion (0 if flushed
	// before completing).
	CompleteAt uint64
	// CommitStart is when the four-phase commit protocol launched
	// (0 if the block never began committing).
	CommitStart uint64
	// RetiredAt is the deallocation time for committed blocks, or the
	// flush time for squashed ones.
	RetiredAt uint64
	Flushed   bool
	// Useful counts committed useful instructions (0 for flushed blocks).
	Useful int
	// CritPath is the block's critical-path attribution breakdown — nil
	// unless Chip.EnableCritPath was armed and the block committed.  By
	// the reconciliation invariant its categories sum to exactly
	// RetiredAt-FetchStart.
	CritPath *critpath.Breakdown
}

// TraceBlocks installs a block-retirement observer.  The hook runs inside
// the simulation loop; it must not call back into the simulator.
func (p *Proc) TraceBlocks(fn func(BlockEvent)) { p.blockTrace = fn }

// TraceStores installs a store-commit observer invoked for every
// architecturally committed store in commit order (block retirement
// order, LSID order within a block).  Same contract as TraceBlocks: the
// hook runs inside the simulation loop and must not call back in.
func (p *Proc) TraceStores(fn func(addr uint64, size uint8, val uint64)) { p.storeTrace = fn }

func (p *Proc) emitBlockEvent(b *IFB, retiredAt uint64, flushed bool) {
	if p.blockTrace == nil && p.chip.trace == nil {
		return
	}
	ev := BlockEvent{
		Seq:          b.seq,
		Name:         b.blk.Name,
		Addr:         b.blk.Addr,
		Owner:        b.owner,
		OwnerCore:    p.phys(b.owner),
		FetchStart:   b.tFetchStart,
		DispatchDone: b.tFetchStart + b.constLat + b.icacheStall + b.bcastLat + b.dispatchLat,
		CommitStart:  b.commitStart,
		RetiredAt:    retiredAt,
		Flushed:      flushed,
	}
	if b.phase != phaseExecuting || b.outputsPending == 0 {
		ev.CompleteAt = b.completeAt
	}
	if !flushed {
		ev.Useful = b.useful
		if b.cp != nil {
			bd := b.cp.Result // copy: the pooled record outlives the event
			ev.CritPath = &bd
		}
	}
	if p.blockTrace != nil {
		p.blockTrace(ev)
	}
	ev.AppendSpans(p.chip.trace, p.id)
}

// AppendSpans converts the block's lifetime into Chrome trace spans on
// track (pid, OwnerCore): fetch (FetchStart→DispatchDone), execute
// (→CompleteAt) and commit (CommitStart→RetiredAt), with one simulated
// cycle rendered as one microsecond.  Flushed blocks end in a "flushed"
// span instead of a commit.  Built purely from the event's public
// fields; safe on a nil trace.
func (ev *BlockEvent) AppendSpans(t *telemetry.Trace, pid int) {
	if t == nil {
		return
	}
	args := map[string]any{"seq": ev.Seq, "addr": ev.Addr, "useful": ev.Useful}
	t.Span(pid, ev.OwnerCore, ev.Name, "fetch", ev.FetchStart, ev.DispatchDone, args)
	execEnd := ev.CompleteAt
	if execEnd == 0 { // flushed mid-execution
		execEnd = ev.RetiredAt
	}
	execStart := ev.DispatchDone
	if execEnd < execStart { // outputs can finish before the last dispatch
		execStart = execEnd
	}
	t.Span(pid, ev.OwnerCore, ev.Name, "execute", execStart, execEnd, nil)
	if ev.Flushed {
		t.Span(pid, ev.OwnerCore, ev.Name, "flushed", execEnd, ev.RetiredAt, nil)
	} else {
		t.Span(pid, ev.OwnerCore, ev.Name, "commit", ev.CommitStart, ev.RetiredAt, nil)
	}
}
