package evq

import (
	"container/heap"
	"math/rand"
	"testing"
	"unsafe"
)

// TestNodeSize holds the slab's diet: a node is its payload and one
// handle, so the simulator's 40-byte event (sim.TestEventRecordSize)
// takes 48 bytes of slab.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(node[[5]uint64]{}); n > 48 {
		t.Errorf("a node of a 40-byte payload is %d bytes, want <= 48", n)
	}
}

// stamp is the test payload: the cycle and sequence number the test
// expects the event to pop with.
type stamp struct{ at, seq uint64 }

// oracle is what both stores are held to: the standard library's binary
// heap over the same (at, seq) order, boxing every event through `any`.
// Keys are unique, so any correct queue pops the same sequence.
type oracle []stamp

func (o oracle) Len() int { return len(o) }
func (o oracle) Less(i, j int) bool {
	if o[i].at != o[j].at {
		return o[i].at < o[j].at
	}
	return o[i].seq < o[j].seq
}
func (o oracle) Swap(i, j int) { o[i], o[j] = o[j], o[i] }
func (o *oracle) Push(x any)   { *o = append(*o, x.(stamp)) }
func (o *oracle) Pop() any     { old := *o; n := len(old); s := old[n-1]; *o = old[:n-1]; return s }

// drain pops every event and returns the payloads, failing if one pops at
// a cycle other than its own.
func drain(t *testing.T, q *Queue[stamp]) []stamp {
	t.Helper()
	var got []stamp
	var s stamp
	for q.Pop(&s) {
		if q.Now() != s.at {
			t.Fatalf("popped %+v with Now at %d", s, q.Now())
		}
		got = append(got, s)
	}
	return got
}

func expectOrder(t *testing.T, got, want []stamp) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d: got %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestScheduleClampsAndStamps: a cycle before Now files at Now, behind
// the events already filed there, and the sequence stamp alone orders a
// cycle's events, on both stores.  The second round runs after a Reset,
// which must drop the events the first left queued and return the clock
// to zero.
func TestScheduleClampsAndStamps(t *testing.T) {
	for _, heapOnly := range []bool{false, true} {
		var q Queue[stamp]
		for range 2 {
			q.Reset(heapOnly)
			q.Schedule(10, stamp{10, 1})
			var s stamp
			if !q.Pop(&s) || q.Now() != 10 {
				t.Fatalf("heapOnly %t: first pop %+v at Now %d, want cycle 10", heapOnly, s, q.Now())
			}
			q.Schedule(10, stamp{10, 2})
			q.Schedule(3, stamp{10, 3}) // clamped to Now
			q.Schedule(11, stamp{11, 4})
			q.Schedule(0, stamp{10, 5}) // clamped, behind seq 3
			expectOrder(t, drain(t, &q), []stamp{{10, 2}, {10, 3}, {10, 5}, {11, 4}})
			if q.Now() != 11 {
				t.Fatalf("heapOnly %t: an empty Pop moved Now to %d, want 11", heapOnly, q.Now())
			}
			q.Schedule(11, stamp{11, 6}) // left queued for Reset to drop
			q.Schedule(11+buckets, stamp{11 + buckets, 7})
		}
	}
}

// TestBucketWraparound schedules at Now + buckets ± 1, the exact boundary
// where an event either shares the calendar window with the cursor (and
// its bucket index wraps below the cursor's) or must wait in the heap.
// An off-by-one in either direction would file two cycles into one
// bucket and interleave their events.
func TestBucketWraparound(t *testing.T) {
	var q Queue[stamp]
	q.Reset(false)
	// Move the cursor off zero so in-window indices actually wrap.
	q.Schedule(5, stamp{5, 1})
	expectOrder(t, []stamp{pop(t, &q)}, []stamp{{5, 1}})

	atIn := q.Now() + buckets - 1 // last in-window cycle; index wraps to 4
	atEdge := q.Now() + buckets   // first cycle that must wait in the heap
	atPast := q.Now() + buckets + 1
	q.Schedule(atEdge, stamp{atEdge, 2})
	q.Schedule(atPast, stamp{atPast, 3})
	q.Schedule(atIn, stamp{atIn, 4})
	if len(q.heap) != 2 || q.n != 1 {
		t.Fatalf("heap holds %d events and buckets %d, want 2 (at Now+buckets and beyond) and 1", len(q.heap), q.n)
	}
	expectOrder(t, drain(t, &q), []stamp{{atIn, 4}, {atEdge, 2}, {atPast, 3}})
}

func pop(t *testing.T, q *Queue[stamp]) stamp {
	t.Helper()
	var s stamp
	if !q.Pop(&s) {
		t.Fatal("Pop on a queue holding an event returned false")
	}
	return s
}

// TestHeapEventsKeepSeqOrder pins the ordering argument in Pop's doc
// comment: heap events for a cycle T are filed into T's bucket before any
// event that could schedule more work for T executes, so a bucket's
// append order is sequence order even when its events arrive both ways.
func TestHeapEventsKeepSeqOrder(t *testing.T) {
	var q Queue[stamp]
	q.Reset(false)
	far := uint64(buckets + 500)   // out of the window from cycle 0
	q.Schedule(far, stamp{far, 1}) // heap
	q.Schedule(500, stamp{500, 2}) // bucket
	expectOrder(t, []stamp{pop(t, &q)}, []stamp{{500, 2}})
	// The clock passed far-buckets during that pop, so seq 1 is already in
	// its bucket; a new event for the same cycle must land after it
	// although it goes straight to the bucket.
	q.Schedule(far, stamp{far, 3})
	expectOrder(t, drain(t, &q), []stamp{{far, 1}, {far, 3}})
}

// TestStoresMatchHeapOnRandomStreams drives the calendar, the heap-only
// queue a Reference chip runs on and the container/heap oracle with the
// same seeded stream of schedules and pops — cycles far beyond the
// calendar's window and idle gaps the clock jumps, never a cycle behind
// Now, which Schedule would clamp — and requires the same pop order of all
// three.  It also pins the slab's footprint: its high-water mark is the
// peak number of events resident at once, to within one growth step of
// append.
func TestStoresMatchHeapOnRandomStreams(t *testing.T) {
	offsets := [...]uint64{0, 0, 1, 1, 2, 3, 7, 16, 150, buckets - 1, buckets, buckets + 1, 5 * buckets}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cal, hp Queue[stamp]
		cal.Reset(false)
		hp.Reset(true)
		var want oracle
		var seq uint64
		live, peak, jumps := 0, 0, 0
		schedule := func(at uint64) {
			seq++
			s := stamp{at, seq}
			cal.Schedule(at, s)
			hp.Schedule(at, s)
			heap.Push(&want, s)
			if live++; live > peak {
				peak = live
			}
		}
		popEach := func() {
			var c, h stamp
			cal.Pop(&c)
			hp.Pop(&h)
			if w := heap.Pop(&want).(stamp); c != w || h != w || cal.Now() != w.at || hp.Now() != w.at {
				t.Fatalf("seed %d: calendar popped %+v at %d, heap %+v at %d, container/heap %+v",
					seed, c, cal.Now(), h, hp.Now(), w)
			}
			live--
		}
		for step := 0; step < 4000; step++ {
			switch {
			case live == 0 || rng.Intn(100) < 52:
				schedule(cal.Now() + offsets[rng.Intn(len(offsets))])
			case rng.Intn(100) < 3:
				// Drain, leave one far-future event, and pop it: the clock
				// jumps the idle gap and later events file from there.
				for live > 0 {
					popEach()
				}
				schedule(cal.Now() + 3*buckets + uint64(rng.Intn(50)))
				popEach()
				jumps++
			default:
				popEach()
			}
			if cal.n+len(cal.heap) != len(want) || len(hp.heap) != len(want) {
				t.Fatalf("seed %d: calendar holds %d, heap %d, container/heap %d", seed, cal.n+len(cal.heap), len(hp.heap), len(want))
			}
		}
		for live > 0 {
			popEach()
		}
		var s stamp
		if cal.Pop(&s) || hp.Pop(&s) {
			t.Fatalf("seed %d: Pop on a drained queue returned an event", seed)
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

// churn is the simulator-like steady state the allocation test and the
// benchmarks run: a resident population of 64 events, each pop scheduling
// a successor a short latency ahead, with an occasional far-future event
// that goes through the calendar's heap (offsets beyond its window).
type churn struct {
	q *Queue[[5]uint64] // a 40-byte payload, the simulator's event size
	i int
}

var churnOffsets = [...]uint64{1, 1, 2, 3, 5, 8, 17, 150, 1500}

func newChurn(heapOnly bool) *churn {
	c := &churn{q: new(Queue[[5]uint64])}
	c.q.Reset(heapOnly)
	for i := range 64 {
		c.q.Schedule(uint64(i%8), [5]uint64{uint64(i)})
	}
	return c
}

func (c *churn) step(n int) {
	var p [5]uint64
	for range n {
		c.q.Pop(&p)
		p[0]++
		c.q.Schedule(c.q.Now()+churnOffsets[c.i%len(churnOffsets)], p)
		c.i++
	}
}

// TestSteadyStateAllocatesNothing: once the slab and the heap have
// reached the workload's peak, Schedule and Pop recycle nodes through the
// free list and never allocate, on either store.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	for _, heapOnly := range []bool{false, true} {
		c := newChurn(heapOnly)
		c.step(1000) // warm-up: grow the slab and the heap to their peak
		if allocs := testing.AllocsPerRun(20, func() { c.step(1000) }); allocs != 0 {
			t.Fatalf("heapOnly %t: steady-state Schedule/Pop allocates %.1f times per 1000 events, want 0", heapOnly, allocs)
		}
	}
}

// The queue's microbenchmarks, the calendar and the heap a Reference chip
// runs on, side by side:
//
//	go test -bench EventQueue ./internal/evq
func BenchmarkEventQueueCalendar(b *testing.B) { benchChurn(b, false) }
func BenchmarkEventQueueHeap(b *testing.B)     { benchChurn(b, true) }

func benchChurn(b *testing.B, heapOnly bool) {
	c := newChurn(heapOnly)
	b.ReportAllocs()
	b.ResetTimer()
	c.step(b.N)
}
