package noc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestMulticastArrivalsMatchDistance(t *testing.T) {
	m := NewMesh(4, 8, 2)
	targets := []int{0, 1, 2, 3, 4, 8, 31}
	arr := m.MulticastInto(0, targets, 100, make([]uint64, len(targets)))
	for i, to := range targets {
		want := uint64(100 + m.Dist(0, to))
		if arr[i] != want {
			t.Fatalf("target %d arrival %d, want %d (uncontended tree)", to, arr[i], want)
		}
	}
}

func TestMulticastSharesLinks(t *testing.T) {
	// A multicast to the whole row uses each link once: a second unicast
	// on the first link in the same cycle still fits in bw=2; a third
	// does not.  If the multicast had sent per-target unicasts, the first
	// link would already be saturated.
	m := NewMesh(4, 1, 2)
	m.MulticastInto(0, []int{1, 2, 3}, 10, make([]uint64, 3))
	if arr := m.Send(0, 1, 10); arr != 11 {
		t.Fatalf("one slot should remain on link 0->1 at t=10, arrival %d", arr)
	}
	if arr := m.Send(0, 1, 10); arr != 12 {
		t.Fatalf("link 0->1 should now be saturated at t=10, arrival %d", arr)
	}
}

func TestMulticastSelfIsFree(t *testing.T) {
	m := NewMesh(4, 8, 2)
	arr := m.MulticastInto(5, []int{5}, 42, make([]uint64, 1))
	if arr[0] != 42 {
		t.Fatalf("self delivery at %d", arr[0])
	}
}

func TestMulticastNeverBeatsUnicastProperty(t *testing.T) {
	f := func(from uint8, t1, t2, t3 uint8, start uint16) bool {
		m := NewMesh(4, 8, 2)
		src := int(from) % 32
		targets := []int{int(t1) % 32, int(t2) % 32, int(t3) % 32}
		arr := m.MulticastInto(src, targets, uint64(start), make([]uint64, len(targets)))
		for i, to := range targets {
			// Tree delivery is never earlier than the hop distance and
			// never later than a fully serialized unicast chain.
			lo := uint64(start) + uint64(m.Dist(src, to))
			hi := uint64(start) + uint64(m.Dist(src, to)) + uint64(len(targets))
			if arr[i] < lo || arr[i] > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMulticastCountsOneMessage(t *testing.T) {
	m := NewMesh(4, 8, 2)
	m.MulticastInto(0, []int{1, 2, 3, 4, 5, 6, 7}, 0, make([]uint64, 7))
	if got := m.Stats().Messages; got != 1 {
		t.Fatalf("multicast counted as %d messages", got)
	}
}

// walkMulticast is the target-by-target walk Multicast replaced, kept as
// its oracle: each target walks its whole XY route from the source,
// booking a link the first time the multicast crosses it and reading the
// cycle it crossed after that.  It returns the links in the order it
// booked them.
func walkMulticast(m *Mesh, from int, targets []int, start uint64, dst []uint64) (booked []int) {
	crossAt := map[int]uint64{}
	first := true
	for i, to := range targets {
		if to == from {
			dst[i] = start
			m.stats.LocalDeliveries++
			continue
		}
		if first {
			m.stats.Messages++
			first = false
		}
		t, node := start, from
		x, y := m.XY(from)
		tx, ty := m.XY(to)
		step := func(dir, next int) {
			li := node*4 + dir
			if at, ok := crossAt[li]; ok {
				t = at
			} else {
				t = m.links[li].reserve(t, m.BW) + 1
				crossAt[li] = t
				booked = append(booked, li)
				m.stats.Hops++
			}
			node = next
		}
		for ; x < tx; x++ {
			step(dirE, node+1)
		}
		for ; x > tx; x-- {
			step(dirW, node-1)
		}
		for ; y < ty; y++ {
			step(dirS, node+m.W)
		}
		for ; y > ty; y-- {
			step(dirN, node-m.W)
		}
		dst[i] = t
	}
	return booked
}

// TestMulticastMatchesWalk holds the routed tree to the walk it replaced:
// random owners and target orders (repeats and the owner included) on
// meshes of every aspect and a single node, at one to three flits a link,
// with links pre-loaded with contention.  Each case multicasts one tree
// three times, with sends between, on one mesh, and walks the same
// messages on a twin; the arrivals, the order the links are booked in,
// every link's flit count and ring, the statistics and the arrival of one
// more send afterwards must agree.
func TestMulticastMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{4, 8}, {4, 4}, {5, 3}, {1, 1}} {
		nodes := shape[0] * shape[1]
		for bw := 1; bw <= 3; bw++ {
			for c := 0; c < 40; c++ {
				tree, walk := NewMesh(shape[0], shape[1], bw), NewMesh(shape[0], shape[1], bw)
				now := uint64(rng.Intn(3 * horizon))
				for i := rng.Intn(200); i > 0; i-- { // contention already booked
					li, at := rng.Intn(len(tree.links)), now+uint64(rng.Intn(12))
					tree.links[li].reserve(at, tree.BW)
					walk.links[li].reserve(at, walk.BW)
				}
				from := rng.Intn(nodes)
				targets := make([]int, 1+rng.Intn(2*nodes))
				for i := range targets {
					targets[i] = rng.Intn(nodes)
				}
				var tr Tree
				tree.Route(&tr, from, targets)
				var want []int
				for _, h := range tr.hops {
					want = append(want, int(h.link))
				}
				got, oracle := make([]uint64, len(targets)), make([]uint64, len(targets))
				for k := 0; k < 3; k++ {
					start := now + uint64(rng.Intn(8))
					tree.Multicast(&tr, start, got)
					booked := walkMulticast(walk, from, targets, start, oracle)
					if !reflect.DeepEqual(got, oracle) {
						t.Fatalf("%dx%d bw %d case %d: multicast %d from %d to %v at %d arrives %v, walk %v", shape[0], shape[1], bw, c, k, from, targets, start, got, oracle)
					}
					if !slices.Equal(booked, want) {
						t.Fatalf("%dx%d bw %d case %d: tree books %v, walk %v", shape[0], shape[1], bw, c, want, booked)
					}
					a, b := rng.Intn(nodes), rng.Intn(nodes)
					if x, y := tree.Send(a, b, start), walk.Send(a, b, start); x != y {
						t.Fatalf("%dx%d bw %d case %d: send between multicasts arrives %d, %d on the walk's mesh", shape[0], shape[1], bw, c, x, y)
					}
				}
				if !reflect.DeepEqual(tree.links, walk.links) || tree.Stats() != walk.Stats() {
					t.Fatalf("%dx%d bw %d case %d: links or stats differ (%+v, walk %+v)", shape[0], shape[1], bw, c, tree.Stats(), walk.Stats())
				}
				a, b := rng.Intn(nodes), rng.Intn(nodes)
				if x, y := tree.Send(a, b, now), walk.Send(a, b, now); x != y {
					t.Fatalf("%dx%d bw %d case %d: send after arrives %d, %d on the walk's mesh", shape[0], shape[1], bw, c, x, y)
				}
			}
		}
	}
}

// BenchmarkMulticast prices one control multicast on the 4x8 array at
// one flit a link, along a routed tree to an 8-core (4x2) and the
// 32-core processor, from a corner owner and a centre owner, injected
// every fourth cycle as a block's fetch commands are.
func BenchmarkMulticast(b *testing.B) {
	for _, c := range []struct {
		name         string
		cores, owner int
	}{{"cores=8/corner", 8, 0}, {"cores=8/centre", 8, 5}, {"cores=32/corner", 32, 0}, {"cores=32/centre", 32, 13}} {
		b.Run(c.name, func(b *testing.B) {
			m := NewMesh(4, 8, 1)
			targets := make([]int, c.cores)
			for i := range targets {
				targets[i] = i
			}
			var tr Tree
			m.Route(&tr, c.owner, targets)
			dst := make([]uint64, len(targets))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Multicast(&tr, uint64(4*i), dst)
			}
		})
	}
}
