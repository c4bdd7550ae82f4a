package sim

import "github.com/clp-sim/tflex/internal/isa"

// The event layer.  Every simulator action is an event executed in
// (cycle, insertion-order) order by the chip's one queue, an
// evq.Queue[event]: the calendar, or under Options.Reference the plain
// binary heap, with the same order, so the two produce byte-identical
// simulations.  Events are *typed* — a small tagged union dispatched by
// the chip — so scheduling one costs no closure or interface boxing: the
// record is built once at the schedule site and copied once, into its
// slab node.

// evKind tags the typed event union.
type evKind uint8

const (
	evDispatch  evKind = iota // b, idx (position in lk.Live): the slots arriving in the window this cycle
	evRegRead                 // b, idx: read slot dispatched at its register bank
	evDeliver                 // b, tgt, val, from: operand/write arrival
	evDeadToken               // b, tgt, from: dead-token arrival
	evLoadBank                // b, idx, addr: load address at its D-bank
	evStoreBank               // b, idx, addr, val: store address+data at its D-bank
	evNullSlot                // b, idx (LSID): store slot nulled
	evBranch                  // b, idx (opcode), from (exit), val (target): branch out
	evDealloc                 // b, val (dealloc cycle): commit deallocation done
	evFetch                   // idx (index into Chip.Procs), val (epoch): fetch-engine callback
	numEvKinds
)

// evKindNames names each kind in the registry's sim.events.<kind>.
var evKindNames = [numEvKinds]string{"dispatch", "reg_read", "deliver", "dead_token", "load_bank", "store_bank", "null_slot", "branch", "dealloc", "fetch"}

// event is one scheduled simulator action: 40 bytes.  Its cycle and
// insertion order are the queue's, which stamps them in Schedule.
type event struct {
	b    *IFB
	val  uint64
	addr uint64
	gen  uint32 // IFB generation at schedule time; stale events are dropped
	idx  int32
	tgt  isa.Target
	from uint8
	kind evKind
}
