package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"unsafe"
)

// TestEventRecordSize holds the record's diet: an event carries no closure
// and no processor pointer, and a slab node is one 64-byte cache line.
func TestEventRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 56 {
		t.Errorf("event is %d bytes, want <= 56", n)
	}
	if n := unsafe.Sizeof(calNode{}); n > 64 {
		t.Errorf("calNode is %d bytes, want <= 64", n)
	}
}

// TestInstStateSize holds the in-flight window's diet: resetIFB makes or
// rewrites one instTS per live instruction per fetch.
func TestInstStateSize(t *testing.T) {
	if n := unsafe.Sizeof(instTS{}); n > 64 {
		t.Errorf("instTS is %d bytes, want <= 64", n)
	}
}

// eventQueue is the oracle both production queues are held to: the
// standard library's binary heap over the same (at, seq) order, boxing
// every event through `any`.  Keys are unique, so any correct queue pops
// the same sequence.
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// drainCal pops every event and returns the (at, seq) sequence.
func drainCal(t *testing.T, q *calQueue) [][2]uint64 {
	t.Helper()
	var got [][2]uint64
	for !q.empty() {
		var e event
		q.popMin(&e)
		got = append(got, [2]uint64{e.at, e.seq})
	}
	return got
}

func expectOrder(t *testing.T, got, want [][2]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d: got %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = (at %d, seq %d), want (at %d, seq %d)",
				i, got[i][0], got[i][1], want[i][0], want[i][1])
		}
	}
}

// TestCalQueueBucketWraparound schedules at now + calBuckets ± 1, the
// exact boundary where an event either shares the calendar window with
// the cursor (and its bucket index wraps below the cursor's) or must
// wait in the overflow heap.  An off-by-one in either direction would
// file two cycles into one bucket and interleave their events.
func TestCalQueueBucketWraparound(t *testing.T) {
	var q calQueue
	// Move the cursor off zero so in-window indices actually wrap.
	q.push(&event{at: 5, seq: 1})
	var e event
	if q.popMin(&e); e.at != 5 || e.seq != 1 {
		t.Fatalf("warm-up pop = (at %d, seq %d), want (5, 1)", e.at, e.seq)
	}
	now := uint64(5) // q.base after the pop

	atIn := now + calBuckets - 1 // last in-window cycle; index wraps to 4
	atEdge := now + calBuckets   // first cycle that must overflow
	atPast := now + calBuckets + 1
	q.push(&event{at: atEdge, seq: 2})
	q.push(&event{at: atPast, seq: 3})
	q.push(&event{at: atIn, seq: 4})
	if len(q.overflow) != 2 {
		t.Fatalf("overflow holds %d events, want 2 (at now+calBuckets and beyond)", len(q.overflow))
	}
	if q.nbucket != 1 {
		t.Fatalf("buckets hold %d events, want 1 (at now+calBuckets-1)", q.nbucket)
	}
	// nextAt jumps the idle gap without disturbing order.
	if at, ok := q.nextAt(); !ok || at != atIn {
		t.Fatalf("nextAt = (%d, %t), want (%d, true)", at, ok, atIn)
	}
	expectOrder(t, drainCal(t, &q), [][2]uint64{{atIn, 4}, {atEdge, 2}, {atPast, 3}})
}

// TestCalQueueOverflowMigrationKeepsSeqOrder pins the ordering argument
// in popMin's doc comment: overflow events for a cycle T migrate into
// T's bucket before any event that could push more work for T executes,
// so a bucket's append order is seq order even when its events arrive
// via both paths.
func TestCalQueueOverflowMigrationKeepsSeqOrder(t *testing.T) {
	var q calQueue
	far := uint64(calBuckets + 500) // out of window from base 0
	q.push(&event{at: far, seq: 1}) // overflow
	q.push(&event{at: 500, seq: 2}) // bucket
	var e event
	if q.popMin(&e); e.at != 500 || e.seq != 2 {
		t.Fatalf("first pop = (at %d, seq %d), want (500, 2)", e.at, e.seq)
	}
	// The cursor passed far-calBuckets during that pop, so seq 1 has
	// already migrated; a fresh push for the same cycle must land after
	// it despite going straight to the bucket.
	q.push(&event{at: far, seq: 3})
	expectOrder(t, drainCal(t, &q), [][2]uint64{{far, 1}, {far, 3}})
}

// TestCalQueueMatchesHeapOnRandomStreams drives the calendar queue, the
// typed heap a Reference chip runs on and the container/heap oracle with
// the same seeded push/pop stream — pushes far beyond the calBuckets
// window and idle gaps the cursor jumps, never a push behind the last
// popped cycle (Chip.scheduleEv's clamp) — and requires the same pop
// order of all three.
// It also pins the slab's footprint: its high-water mark is the peak
// number of events resident at once, to within one growth step of append.
func TestCalQueueMatchesHeapOnRandomStreams(t *testing.T) {
	offsets := [...]uint64{0, 0, 1, 1, 2, 3, 7, 16, 150, calBuckets - 1, calBuckets, calBuckets + 1, 5 * calBuckets}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cal calQueue
		var typed minEvHeap
		var oracle eventQueue
		var now, seq uint64
		live, peak, jumps := 0, 0, 0
		push := func(at uint64) {
			seq++
			e := event{at: at, seq: seq, val: seq}
			cal.push(&e)
			typed.push(&e)
			heap.Push(&oracle, e)
			if live++; live > peak {
				peak = live
			}
		}
		pop := func() {
			var c event
			cal.popMin(&c)
			h, want := typed.pop(), heap.Pop(&oracle).(event)
			if c != want || h != want {
				t.Fatalf("seed %d: calendar popped (at %d, seq %d), typed heap (at %d, seq %d), container/heap (at %d, seq %d)",
					seed, c.at, c.seq, h.at, h.seq, want.at, want.seq)
			}
			now = c.at
			live--
		}
		for step := 0; step < 4000; step++ {
			switch {
			case live == 0 || rng.Intn(100) < 52:
				push(now + offsets[rng.Intn(len(offsets))])
			case rng.Intn(100) < 3:
				// Drain, leave one far-future event, and pop it: the cursor
				// jumps the idle gap and later pushes file from there.
				for live > 0 {
					pop()
				}
				far := now + 3*calBuckets + uint64(rng.Intn(50))
				push(far)
				pop()
				if cal.base != far {
					t.Fatalf("seed %d: cursor at %d after popping across an idle gap, want %d", seed, cal.base, far)
				}
				jumps++
			default:
				pop()
			}
			if cal.empty() != (len(oracle) == 0) || len(typed) != len(oracle) {
				t.Fatalf("seed %d: calendar empty = %t, typed heap holds %d, container/heap holds %d", seed, cal.empty(), len(typed), len(oracle))
			}
		}
		for live > 0 {
			pop()
		}
		if jumps == 0 {
			t.Fatalf("seed %d: the stream never jumped an idle gap", seed)
		}
		if len(cal.nodes) > peak {
			t.Errorf("seed %d: slab grew to %d nodes, but at most %d events were ever live", seed, len(cal.nodes), peak)
		}
		if cap(cal.nodes) > 2*peak+8 {
			t.Errorf("seed %d: slab capacity %d for a peak of %d live events", seed, cap(cal.nodes), peak)
		}
	}
}

// TestCalQueueSteadyStateAllocatesNothing: once the slab and the overflow
// heap have reached the workload's peak, push and pop recycle nodes
// through the free list and never allocate.
func TestCalQueueSteadyStateAllocatesNothing(t *testing.T) {
	var q calQueue
	offsets := [...]uint64{1, 1, 2, 3, 5, 8, 17, 150, 1500}
	var seq uint64
	for i := 0; i < 64; i++ {
		seq++
		q.push(&event{at: uint64(i % 8), seq: seq})
	}
	i := 0
	churn := func() {
		for n := 0; n < 1000; n++ {
			var e event
			q.popMin(&e)
			seq++
			q.push(&event{at: e.at + offsets[i%len(offsets)], seq: seq})
			i++
		}
	}
	churn() // warm-up: grow the slab and the overflow heap to their peak
	if allocs := testing.AllocsPerRun(20, churn); allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per 1000 events, want 0", allocs)
	}
}
