package sim

import "github.com/clp-sim/tflex/internal/isa"

// The event layer.  Every simulator action is an event executed in
// (cycle, insertion-order) order.  Events are *typed* — a small tagged
// union dispatched by the chip — so scheduling one costs no closure or
// interface boxing: the record is built once at the schedule site and
// copied once, into its slab node.
//
// Two interchangeable queues implement the same ordering contract:
//
//   - calQueue (default): a bucketed calendar queue.  Events within the
//     lookahead window join a per-cycle FIFO (append = seq order) threaded
//     through one slab of nodes; far-future events wait in a small
//     overflow heap and migrate into buckets before their cycle is
//     processed.  Push and pop are allocation-free once the slab has
//     grown to the peak number of resident events.
//   - minEvHeap (Options.Reference, and the calendar's overflow): a plain
//     binary heap of the same typed records.  event_test.go holds both
//     queues to the standard library's heap on random streams.
//
// Both orders are (at, seq), so the two queues produce byte-identical
// simulations.

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
)

// event is one scheduled simulator action: 56 bytes, so a calNode is one
// cache line.
type event struct {
	at  uint64
	seq uint64 // insertion order: deterministic tie-break

	b    *IFB
	val  uint64
	addr uint64
	gen  uint32 // IFB generation at schedule time; stale events are dropped
	idx  int32
	tgt  isa.Target
	from uint8
	kind evKind
}

// Calendar-queue geometry: one bucket per cycle over a lookahead window.
// The window comfortably covers every modeled latency (NoC reservations,
// DRAM at 150 cycles, commit drains); rarer far-future events overflow to
// a heap and migrate in before their cycle is reached.
const (
	calBuckets = 1 << 10
	calMask    = calBuckets - 1
)

// calNode is one slab cell: an event and the handle of the next node in
// its bucket's FIFO, or in the free list once popped.
type calNode struct {
	ev   event
	next int32
}

// calQueue is the default bucketed calendar queue.  Every resident event
// lives in one slab of nodes; a bucket is a FIFO threaded through the
// slab by head/tail handles (a handle is slab index + 1, so the zero
// queue is empty and ready).  Popped nodes go to a LIFO free list and are
// reused before the slab grows, so the slab's length is the peak number
// of events ever resident at once and the working set stays in cache.
type calQueue struct {
	base     uint64 // cycle the cursor bucket corresponds to
	nbucket  int    // events resident in buckets
	nodes    []calNode
	free     int32 // free-list head handle
	head     [calBuckets]int32
	tail     [calBuckets]int32
	overflow minEvHeap // events at or beyond base+calBuckets
}

func (q *calQueue) empty() bool { return q.nbucket == 0 && len(q.overflow) == 0 }

// reset empties the queue, keeping its slab and overflow storage: it is
// then the zero queue.  Events a failed run left behind are overwritten
// before they are read again; the blocks they point at are the chip's
// own, kept with its processors.
func (q *calQueue) reset() {
	*q = calQueue{nodes: q.nodes[:0], overflow: q.overflow[:0]}
}

// push files an event.  Invariant: e.at >= q.base, so no push lands behind
// the cursor.  The chip's loop moves the cursor only by popping, which
// leaves it on the popped event's cycle — the chip's now — and
// Chip.scheduleEv clamps every schedule time to now.
func (q *calQueue) push(e *event) {
	if e.at < q.base+calBuckets {
		q.file(e)
	} else {
		q.overflow.push(e)
	}
}

// file appends an in-window event to its cycle's bucket: the one copy an
// event makes on its way in.
func (q *calQueue) file(e *event) {
	h := q.free
	if h != 0 {
		q.free = q.nodes[h-1].next
	} else {
		q.nodes = append(q.nodes, calNode{})
		h = int32(len(q.nodes))
	}
	n := &q.nodes[h-1]
	n.ev, n.next = *e, 0
	i := e.at & calMask
	if t := q.tail[i]; t != 0 {
		q.nodes[t-1].next = h
	} else {
		q.head[i] = h
	}
	q.tail[i] = h
	q.nbucket++
}

// popMin removes the earliest event in (at, seq) order and copies it to
// *e — out of the slab, because the node goes to the head of the free
// list and the first event the handler files reuses it.  The queue must
// not be empty.
//
// Ordering argument: a bucket only ever holds events for one cycle at a
// time (the window is exactly calBuckets wide), and all pushes for a given
// cycle T arrive in seq order — overflow events for T are migrated, in seq
// order, by the nextAt that first makes T reachable, which is before any
// event executes and directly pushes more work for T.
func (q *calQueue) popMin(e *event) {
	i := q.base & calMask
	if q.head[i] == 0 {
		// Cursor bucket drained: scan to the next pending cycle.  While it
		// still holds events the cursor has not moved since the last scan,
		// so no overflow event can have come due and the scan is skipped.
		q.nextAt()
		i = q.base & calMask
	}
	h := q.head[i]
	n := &q.nodes[h-1]
	*e = n.ev
	q.head[i] = n.next
	if n.next == 0 {
		q.tail[i] = 0
	}
	n.next = q.free
	q.free = h
	q.nbucket--
}

// nextAt returns the cycle of the earliest pending event without
// removing it; ok is false when the queue is empty.  The scan advances
// the cursor over empty ground (pure bookkeeping — ordering is
// unaffected), so repeated peeks never rescan the same gap.
func (q *calQueue) nextAt() (at uint64, ok bool) {
	if q.nbucket == 0 && len(q.overflow) == 0 {
		return 0, false
	}
	for {
		// Pull due overflow events into the calendar window.
		for len(q.overflow) > 0 && q.overflow[0].at < q.base+calBuckets {
			e := q.overflow.pop()
			q.file(&e)
		}
		if q.head[q.base&calMask] != 0 {
			// A bucket holds events for exactly one cycle (the window is
			// calBuckets wide), so every resident event sits at q.base.
			return q.base, true
		}
		if q.nbucket == 0 && len(q.overflow) > 0 {
			q.base = q.overflow[0].at // jump over the idle gap
		} else {
			q.base++
		}
	}
}

// minEvHeap is a hand-rolled (at, seq) min-heap, so nothing is boxed
// through an interface: a Reference chip's whole queue, and where the
// calendar keeps events beyond its window.
type minEvHeap []event

func (h minEvHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *minEvHeap) push(e *event) {
	*h = append(*h, *e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *minEvHeap) pop() event {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = event{} // drop pointers for GC
	*h = a[:n]
	a = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && a.less(l, smallest) {
			smallest = l
		}
		if r < n && a.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
	return top
}
