// Package evq is the simulator's event queue: one clock, one insertion
// sequence and one order, (cycle, sequence), over payloads of any type.
//
// Schedule is the only way in: it clamps the cycle to Now and stamps the
// sequence.  Pop is the only way out: it advances Now to the popped
// event's cycle.  Nothing else reaches the storage, so no caller can file
// an event behind the clock or without its stamp.
//
// Two interchangeable stores keep the same order:
//
//   - the calendar (default): one FIFO per cycle over a window of
//     buckets cycles from Now, threaded through one slab of nodes.  An
//     event within the window is appended to its cycle's FIFO (append
//     order is sequence order); a far-future event waits in the heap and
//     is filed into its bucket before its cycle is reached.  Schedule and
//     Pop allocate nothing once the slab has grown to the peak number of
//     resident events.
//   - the heap (Reset(true), and the calendar's overflow): a binary
//     min-heap on (cycle, sequence).  evq_test.go holds both stores to
//     the standard library's heap on random streams.
//
// The sequence keys are unique, so both stores pop the same events in the
// same order.
package evq

// Calendar geometry: one bucket per cycle over a lookahead window.  The
// window covers every latency the simulator models (NoC reservations,
// DRAM at 150 cycles, commit drains); rarer far-future events wait in
// the heap.
const (
	buckets = 1 << 10
	mask    = buckets - 1
)

// Queue is an event queue.  The zero Queue is an empty heap-only queue;
// Reset(false) gives it the calendar.
type Queue[P any] struct {
	now uint64 // the last popped event's cycle; the calendar's cursor
	seq uint64 // the last stamped sequence number
	n   int    // events resident in the calendar's buckets

	// The calendar: every resident event lives in one slab of nodes, and
	// a bucket is a FIFO threaded through it by head and tail handles (a
	// handle is a slab index + 1, so 0 is none).  Popped nodes go on a LIFO
	// free list and are reused before the slab grows, so the slab's length
	// is the peak number of events ever resident at once and the working
	// set stays in cache.  cal is nil on a heap-only queue, so it does not
	// pay for the 8 KB of bucket handles.
	nodes []node[P]
	free  int32 // free-list head handle
	cal   *[buckets]fifo

	heap minHeap[P] // events at or beyond Now+buckets; every event when cal is nil
}

// fifo is one calendar bucket's head and tail handles.
type fifo struct{ head, tail int32 }

// node is one slab cell: a payload and the handle of the next node in its
// bucket's FIFO, or in the free list once popped.  A bucket holds one
// cycle's events in sequence order, so a node needs neither.
type node[P any] struct {
	p    P
	next int32
}

// Reset empties the queue and sets the clock and the sequence to zero,
// keeping its slab and heap storage: with heapOnly every event goes to
// the heap, else the calendar takes the events within its window.
// The payloads of events still queued stay in the slab until later
// events overwrite them.
func (q *Queue[P]) Reset(heapOnly bool) {
	switch {
	case heapOnly:
		q.cal = nil
	case q.cal == nil:
		q.cal = new([buckets]fifo)
	case q.n != 0: // a drained calendar's buckets are already empty
		clear(q.cal[:])
	}
	clear(q.heap)
	*q = Queue[P]{nodes: q.nodes[:0], cal: q.cal, heap: q.heap[:0]}
}

// Now returns the cycle of the last popped event: 0 after Reset.
func (q *Queue[P]) Now() uint64 { return q.now }

// Schedule files p at cycle at, or at Now if at is earlier, behind every
// event already filed for that cycle.
func (q *Queue[P]) Schedule(at uint64, p P) {
	if at < q.now {
		at = q.now
	}
	q.seq++
	if q.cal == nil || at >= q.now+buckets {
		q.heap.push(at, q.seq, p)
		return
	}
	q.link(at).p = p
}

// link appends a slab node to at's bucket and returns it for its payload.
// at must be within the window.
func (q *Queue[P]) link(at uint64) *node[P] {
	h := q.free
	if h != 0 {
		q.free = q.nodes[h-1].next
	} else {
		q.nodes = append(q.nodes, node[P]{})
		h = int32(len(q.nodes))
	}
	n := &q.nodes[h-1]
	n.next = 0
	b := &q.cal[at&mask]
	if b.tail != 0 {
		q.nodes[b.tail-1].next = h
	} else {
		b.head = h
	}
	b.tail = h
	q.n++
	return n
}

// Pop removes the earliest event in (cycle, sequence) order, copies its
// payload to *p and advances Now to its cycle; false when the queue is
// empty.  The payload is copied out of the slab because the node heads
// the free list, and the first event scheduled after the pop reuses it.
//
// Ordering argument: a bucket only ever holds events for one cycle at a
// time (the window is exactly buckets wide), and every event for a cycle
// T arrives in sequence order — heap events for T are filed, in sequence
// order, by the advance that first brings T into the window, which is
// before any event executes and schedules more work for T.
func (q *Queue[P]) Pop(p *P) bool {
	if q.cal == nil {
		if len(q.heap) == 0 {
			return false
		}
		q.now = q.heap[0].at
		q.heap.pop(p)
		return true
	}
	b := &q.cal[q.now&mask]
	if b.head == 0 {
		// Cursor bucket drained: move to the next pending cycle.  While it
		// still holds events the clock has not moved since the last
		// advance, so no heap event can have come due and none is skipped.
		if !q.advance() {
			return false
		}
		b = &q.cal[q.now&mask]
	}
	h := b.head
	n := &q.nodes[h-1]
	*p = n.p
	b.head = n.next
	if n.next == 0 {
		b.tail = 0
	}
	n.next = q.free
	q.free = h
	q.n--
	return true
}

// advance moves the clock to the earliest cycle holding an event, filing
// the heap's events as they come within the window; false when the queue
// is empty.  The clock crosses only cycles that hold no event, so
// ordering is unaffected, and it jumps an idle gap in one step.
func (q *Queue[P]) advance() bool {
	if q.n == 0 && len(q.heap) == 0 {
		return false
	}
	for {
		for len(q.heap) > 0 && q.heap[0].at < q.now+buckets {
			q.heap.pop(&q.link(q.heap[0].at).p)
		}
		if q.cal[q.now&mask].head != 0 {
			return true
		}
		if q.n == 0 {
			q.now = q.heap[0].at
		} else {
			q.now++
		}
	}
}

// item is one heap entry: the payload with its cycle and sequence stamp.
type item[P any] struct {
	at, seq uint64
	p       P
}

// minHeap is a hand-rolled (at, seq) min-heap, so no payload is boxed
// through an interface.
type minHeap[P any] []item[P]

func (h minHeap[P]) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *minHeap[P]) push(at, seq uint64, p P) {
	*h = append(*h, item[P]{at, seq, p})
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

// pop removes the minimum and copies its payload to *p.
func (h *minHeap[P]) pop(p *P) {
	a := *h
	*p = a[0].p
	n := len(a) - 1
	a[0] = a[n]
	a[n] = item[P]{} // drop the payload's pointers for the collector
	a = a[:n]
	*h = a
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
}
