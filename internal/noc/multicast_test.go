package noc

import (
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
