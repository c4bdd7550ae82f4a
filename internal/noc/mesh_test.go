package noc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/clp-sim/tflex/internal/budget"
)

func TestDist(t *testing.T) {
	m := NewMesh(4, 8, 1)
	cases := []struct {
		a, b, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4, 1},   // one row down
		{0, 5, 2},   // diagonal
		{0, 31, 10}, // corner to corner of 4x8
	}
	for _, c := range cases {
		if got := m.Dist(c.a, c.b); got != c.want {
			t.Errorf("Dist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	m := NewMesh(4, 8, 1)
	f := func(a, b uint8) bool {
		x, y := int(a)%32, int(b)%32
		return m.Dist(x, y) == m.Dist(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendUncontended(t *testing.T) {
	m := NewMesh(4, 4, 2)
	// Adjacent hop: 1 cycle.
	if arr := m.Send(0, 1, 100); arr != 101 {
		t.Fatalf("adjacent arrival %d, want 101", arr)
	}
	// Local delivery is free.
	if arr := m.Send(5, 5, 100); arr != 100 {
		t.Fatalf("local arrival %d", arr)
	}
	// Multi-hop: hops cycles.
	m2 := NewMesh(4, 4, 2)
	if arr := m2.Send(0, 15, 0); arr != uint64(m2.Dist(0, 15)) {
		t.Fatalf("corner arrival %d, want %d", arr, m2.Dist(0, 15))
	}
}

func TestSendContention(t *testing.T) {
	// With bw=1, two messages over the same link in the same cycle must
	// serialize; with bw=2 they must not.
	for _, bw := range []int{1, 2} {
		m := NewMesh(2, 1, bw)
		a1 := m.Send(0, 1, 10)
		a2 := m.Send(0, 1, 10)
		if a1 != 11 {
			t.Fatalf("bw=%d first arrival %d", bw, a1)
		}
		want := uint64(11)
		if bw == 1 {
			want = 12
		}
		if a2 != want {
			t.Fatalf("bw=%d second arrival %d, want %d", bw, a2, want)
		}
	}
}

func TestContentionStatsCounted(t *testing.T) {
	m := NewMesh(2, 1, 1)
	m.Send(0, 1, 10)
	m.Send(0, 1, 10)
	if m.Stats().StallCycles == 0 {
		t.Fatal("expected stall cycles under contention")
	}
	if m.Stats().Messages != 2 || m.Stats().Hops != 2 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestSendMonotonicProperty(t *testing.T) {
	m := NewMesh(4, 8, 2)
	f := func(from, to uint8, start uint16) bool {
		f32, t32 := int(from)%32, int(to)%32
		arr := m.Send(f32, t32, uint64(start))
		return arr >= uint64(start)+uint64(m.Dist(f32, t32))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// ringOracle is the reservation timeline kept as plain maps keyed by
// absolute cycle: no ring, no generations, nothing to alias.
type ringOracle struct {
	base            uint64
	capTotal, capFP int
	total, fp       map[uint64]int
}

func (o *ringOracle) reserve(t uint64, fp bool) uint64 {
	if t < o.base {
		t = o.base
	}
	for {
		if t >= o.base+horizon {
			o.base = t
		}
		if o.total[t] < o.capTotal && (!fp || o.fp[t] < o.capFP) {
			o.total[t]++
			if fp {
				o.fp[t]++
			}
			return t
		}
		t++
	}
}

func TestReservationWindowAdvance(t *testing.T) {
	// Reservations far beyond the horizon must still work.
	m := NewMesh(2, 1, 1)
	m.Send(0, 1, 0)
	if arr := m.Send(0, 1, 1_000_000); arr != 1_000_001 {
		t.Fatalf("far-future send arrival %d", arr)
	}
	if arr := m.Send(0, 1, 1_000_000); arr != 1_000_002 {
		t.Fatalf("contended far-future send arrival %d", arr)
	}

	// The packed rings against the map oracle, as a link books them (one
	// class, window opening at the first request) and as a core's issue
	// slots do (FP the restricted class, window opening at cycle 0).
	// Capacities sit on both sides of every field width (1, 2, 4 and 8
	// bits a count), so a count that spilled into its neighbour's field
	// would book a cycle the oracle holds full, or refuse one it holds
	// free.  Request times hover around a cursor that mostly creeps, so
	// slots fill to capacity and requests spill into the next cycle;
	// sometimes falls back behind the window base (the clamp); and
	// sometimes leaps to just below a multiple of the horizon, one lap or
	// millions ahead — a ring keeps no lap number, so any leap must find
	// the same index empty: moving the window cleared it.
	const far = horizon << 16
	leaps := [...]uint64{horizon, 3 * horizon, 64 * horizon, far / 2, far, far + far/2}
	capacities := [...][2]int{{1, 1}, {2, 1}, {2, 2}, {3, 3}, {4, 3}, {15, 7}, {16, 1}, {MaxSlotCount, 1}, {MaxSlotCount, MaxSlotCount}}
	for seed := int64(1); seed <= 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		caps := capacities[seed%int64(len(capacities))]
		start := uint64(rng.Intn(3 * horizon))
		var asLink link
		linkOracle := &ringOracle{base: start, capTotal: caps[0], capFP: caps[0], total: map[uint64]int{}, fp: map[uint64]int{}}
		issue := NewRing(0, caps[0], caps[1])
		issueOracle := &ringOracle{capTotal: caps[0], capFP: caps[1], total: map[uint64]int{}, fp: map[uint64]int{}}
		cursor, advances := start, 0
		for i := 0; i < 30000; i++ {
			switch r := rng.Intn(1000); {
			case r < 5:
				cursor += leaps[rng.Intn(len(leaps))]
				cursor -= cursor%horizon + uint64(rng.Intn(4)) // just below a multiple of the horizon
			case r < 10:
				cursor += horizon + uint64(rng.Intn(horizon)) // past the window: it advances
			case r < 300:
				cursor++
			}
			at := cursor + uint64(rng.Intn(6))
			if rng.Intn(50) == 0 && at > horizon {
				at -= uint64(rng.Intn(horizon)) // maybe behind the base: clamps forward
			}
			if i == 0 {
				at = start // a link's window opens at its first request
			}
			isFP := rng.Intn(3) == 0
			before := issue.base
			if got, want := asLink.reserve(at, uint16(caps[0])), linkOracle.reserve(at, false); got != want {
				t.Fatalf("seed %d request %d: link reserve(%d) = %d, oracle %d", seed, i, at, got, want)
			}
			if got, want := issue.Reserve(at, isFP), issueOracle.reserve(at, isFP); got != want {
				t.Fatalf("seed %d request %d: issue reserve(%d, fp %t) = %d, oracle %d", seed, i, at, isFP, got, want)
			}
			if issue.base != before {
				advances++
			}
		}
		if asLink.ring.base != linkOracle.base || issue.base != issueOracle.base {
			t.Fatalf("seed %d: window bases %d and %d, oracle %d and %d", seed, asLink.ring.base, issue.base, linkOracle.base, issueOracle.base)
		}
		if asLink.flits != 30000 {
			t.Fatalf("seed %d: link counted %d flits, want 30000", seed, asLink.flits)
		}
		if advances < 100 || cursor < 2*far {
			t.Fatalf("seed %d: %d window advances up to cycle %d: the stream is too tame", seed, advances, cursor)
		}
	}
}

// TestRingFootprint holds a ring to the size of what it counts: what a
// link allocates on its first flit is a count field just wide enough for
// the capacity, and the header is small enough that a mesh's 128 links,
// touched or not, stay cheap.
func TestRingFootprint(t *testing.T) {
	var rows []budget.Row
	for _, c := range []struct {
		capacity     uint16
		value, bound float64
	}{{1, 1024, 1 << 10}, {3, 2048, 2 << 10}, {MaxSlotCount, 8192, 8 << 10}} {
		rows = append(rows, budget.Row{Name: fmt.Sprintf("capacity=%d", c.capacity), Quantity: budget.Bytes, Layer: budget.NoC,
			Run: func(testing.TB) budget.Work {
				var l link
				l.reserve(0, c.capacity)
				return budget.Work{}
			}, Value: c.value, Bound: c.bound})
	}
	budget.Check(t, rows)
	if n := unsafe.Sizeof(link{}); n > 48 {
		t.Errorf("link is %d bytes, want <= 48", n)
	}
}

func TestNewMeshPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][2]int{{0, 4}, {maxNodes + 1, 1}, {8, 9}} { // the last two outgrow the coordinate table
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMesh(%d, %d, 1) did not panic", shape[0], shape[1])
				}
			}()
			NewMesh(shape[0], shape[1], 1)
		}()
	}
}

// TestCoordinateTable: XY is a lookup; it must read what the division it
// replaced computed, on every node of shapes up to the largest.
func TestCoordinateTable(t *testing.T) {
	for _, shape := range [][2]int{{4, 8}, {1, 1}, {5, 3}, {8, 8}, {maxNodes, 1}} {
		m := NewMesh(shape[0], shape[1], 1)
		for node := 0; node < m.W*m.H; node++ {
			if x, y := m.XY(node); x != node%m.W || y != node/m.W {
				t.Errorf("%dx%d mesh: XY(%d) = (%d, %d), want (%d, %d)", m.W, m.H, node, x, y, node%m.W, node/m.W)
			}
		}
	}
}

// BenchmarkSend prices one operand send on the 4x8 array at two flits a
// link: random pairs, one injection a cycle, so most hops take the
// uncontended path and some wait a cycle.
func BenchmarkSend(b *testing.B) {
	m := NewMesh(4, 8, 2)
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(32), rng.Intn(32)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		m.Send(p[0], p[1], uint64(i))
	}
}
