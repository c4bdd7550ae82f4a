package mem

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// densify allocates every group up front: the eager tag array the lazy
// one must be indistinguishable from.
func densify[T any](a *tagArray[T]) {
	for s := 0; s < a.sets; s++ {
		a.touch(uint(s))
	}
}

// TestTagArrayMapsSetsLikeADenseArray checks the grouped storage against
// a flat sets*ways slice: every set has its own ways (no two sets alias,
// including across the short last group), writes land where reads find
// them, and a set whose group was never touched peeks as nil.
func TestTagArrayMapsSetsLikeADenseArray(t *testing.T) {
	const sets, ways = 3*groupSets + 17, 3 // a short last group
	a := newTagArray[uint64](sets, ways)
	dense := make([]uint64, sets*ways)
	rng := rand.New(rand.NewSource(1))
	touched := map[uint]bool{}
	for i := 0; i < 5000; i++ {
		s, w := uint(rng.Intn(sets)), rng.Intn(ways)
		if rng.Intn(3) == 0 {
			set := a.touch(s)
			if len(set) != ways {
				t.Fatalf("touch(%d) has %d ways, want %d", s, len(set), ways)
			}
			v := rng.Uint64() | 1
			set[w], dense[int(s)*ways+w] = v, v
			touched[s/groupSets] = true
		}
		set := a.peek(s)
		if !touched[s/groupSets] {
			if set != nil {
				t.Fatalf("peek(%d) in a never-touched group returned %v", s, set)
			}
			continue
		}
		if got, want := set[w], dense[int(s)*ways+w]; got != want {
			t.Fatalf("set %d way %d = %#x, dense array has %#x", s, w, got, want)
		}
	}
	if got := len(a.groups[len(a.groups)-1]); got != 17*ways {
		t.Fatalf("last group holds %d lines, want %d", got, 17*ways)
	}
}

// TestCacheLazyMatchesDense drives random Access/Fill/Invalidate (with
// dirty lines and evictions) through a lazily grouped cache and a dense
// one: every return value and the final Stats must be identical.  The
// lazy cache is then Reset and driven again beside a new dense one, so a
// reset cache, its groups kept, must behave as a new one.
func TestCacheLazyMatchesDense(t *testing.T) {
	const lineBytes = 64
	var reused *Cache // seeds 11-20 run on the cache seed 10 left, reset
	newPair := func() (lazy, dense *Cache) {
		lazy = NewCache((2*groupSets+9)*2*lineBytes, 2, lineBytes)
		dense = NewCache((2*groupSets+9)*2*lineBytes, 2, lineBytes)
		densify(&dense.tags)
		return
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lazy, dense := newPair()
		if seed > 10 {
			lazy = reused
		}
		span := uint64(lazy.SetCount * lazy.Ways * 3) // lines: 3x capacity, so fills evict
		if seed%2 == 0 {
			span = groupSets / 2 // a footprint inside one group
		}
		for i := 0; i < 20000; i++ {
			addr := rng.Uint64()%span*lineBytes + uint64(rng.Intn(lineBytes))
			now := uint64(i)
			switch rng.Intn(4) {
			case 0, 1:
				ll, lh := lazy.Access(addr, now)
				dl, dh := dense.Access(addr, now)
				if lh != dh || (lh && *ll != *dl) {
					t.Fatalf("seed %d op %d: Access(%#x) = (%v, %t), dense (%v, %t)", seed, i, addr, ll, lh, dl, dh)
				}
				if lh && rng.Intn(2) == 0 {
					ll.Dirty, dl.Dirty = true, true
				}
			case 2:
				lv, le := lazy.Fill(addr, now+10)
				dv, de := dense.Fill(addr, now+10)
				if lv != dv || le != de {
					t.Fatalf("seed %d op %d: Fill(%#x) = (%v, %t), dense (%v, %t)", seed, i, addr, lv, le, dv, de)
				}
			case 3:
				lf, ld := lazy.Invalidate(addr)
				df, dd := dense.Invalidate(addr)
				if lf != df || ld != dd {
					t.Fatalf("seed %d op %d: Invalidate(%#x) = (%t, %t), dense (%t, %t)", seed, i, addr, lf, ld, df, dd)
				}
			}
		}
		if lazy.Stats != dense.Stats || lazy.Occupancy() != dense.Occupancy() {
			t.Fatalf("seed %d: stats %+v occupancy %d, dense %+v occupancy %d",
				seed, lazy.Stats, lazy.Occupancy(), dense.Stats, dense.Occupancy())
		}
		lazy.Reset()
		if lazy.Occupancy() != 0 || lazy.Stats != (CacheStats{}) {
			t.Fatalf("seed %d: %d lines and stats %+v survive Reset", seed, lazy.Occupancy(), lazy.Stats)
		}
		reused = lazy
	}
}

// recDir is an L1Directory whose answers are a fixed function of (core,
// line), so two L2s given the same requests see the same L1 state; it
// records every call for comparison.
type recDir struct{ calls [][3]uint64 }

func (d *recDir) InvalidateL1(core int, addr uint64) (found, dirty bool) {
	d.calls = append(d.calls, [3]uint64{0, uint64(core), addr})
	h := uint64(core)*31 + addr/64
	return h%4 != 0, h%3 == 0
}

func (d *recDir) DowngradeL1(core int, addr uint64) bool {
	d.calls = append(d.calls, [3]uint64{1, uint64(core), addr})
	return (uint64(core)+addr/64)%5 != 0
}

// TestL2LazyMatchesDense is the same differential for the shared L2 and
// its directory: random Read/Upgrade/WritebackL1/DropSharer from eight
// cores over three times the capacity, so fills evict lines that still
// have L1 sharers.  Completion cycles, sharer vectors, directory calls
// and Stats must all match the dense array's.
func TestL2LazyMatchesDense(t *testing.T) {
	const lineBytes, ways = 64, 2
	const sets = 2*groupSets + 9
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lazy := NewL2(sets*ways*lineBytes, ways, lineBytes, 4, 5, 27, NewDRAM(150, 2, 4))
		dense := NewL2(sets*ways*lineBytes, ways, lineBytes, 4, 5, 27, NewDRAM(150, 2, 4))
		densify(&dense.tags)
		ldir, ddir := &recDir{}, &recDir{}
		lazy.SetDirectory(ldir)
		dense.SetDirectory(ddir)
		var now uint64
		for i := 0; i < 20000; i++ {
			addr := rng.Uint64() % (sets * ways * 3) * lineBytes
			core := rng.Intn(8)
			now += uint64(rng.Intn(4))
			switch rng.Intn(6) {
			case 0, 1, 2:
				if l, d := lazy.Read(core, addr, now), dense.Read(core, addr, now); l != d {
					t.Fatalf("seed %d op %d: Read(%d, %#x) done at %d, dense at %d", seed, i, core, addr, l, d)
				}
			case 3:
				if l, d := lazy.Upgrade(core, addr, now), dense.Upgrade(core, addr, now); l != d {
					t.Fatalf("seed %d op %d: Upgrade(%d, %#x) done at %d, dense at %d", seed, i, core, addr, l, d)
				}
			case 4:
				lazy.WritebackL1(core, addr)
				dense.WritebackL1(core, addr)
			case 5:
				lazy.DropSharer(core, addr)
				dense.DropSharer(core, addr)
			}
			ls, lok := lazy.Sharers(addr)
			ds, dok := dense.Sharers(addr)
			if ls != ds || lok != dok {
				t.Fatalf("seed %d op %d: sharers of %#x = (%#x, %t), dense (%#x, %t)", seed, i, addr, ls, lok, ds, dok)
			}
		}
		if lazy.Stats != dense.Stats {
			t.Fatalf("seed %d: stats %+v, dense %+v", seed, lazy.Stats, dense.Stats)
		}
		if lazy.Stats.Evictions == 0 || lazy.Stats.Invals == 0 {
			t.Fatalf("seed %d: the stream never evicted a shared line: %+v", seed, lazy.Stats)
		}
		if !reflect.DeepEqual(ldir.calls, ddir.calls) {
			t.Fatalf("seed %d: directory saw %d calls, dense %d, or in a different order", seed, len(ldir.calls), len(ddir.calls))
		}
	}
}

// TestNeverFilledSetsCostNothing: lookups, invalidations and the
// whole-array walks on a cache (and an L2) nothing was ever filled into
// answer correctly without allocating a single group.
func TestNeverFilledSetsCostNothing(t *testing.T) {
	c := NewCache(1<<20, 4, 64)
	l2 := NewL2(4<<20, 8, 64, 32, 5, 27, NewDRAM(150, 2, 4))
	allocs := testing.AllocsPerRun(10, func() {
		for addr := uint64(0); addr < 1<<22; addr += 4096 + 64 {
			if c.Probe(addr) != nil {
				t.Fatalf("Probe(%#x) found a line in an empty cache", addr)
			}
			if _, hit := c.Access(addr, 0); hit {
				t.Fatalf("Access(%#x) hit in an empty cache", addr)
			}
			if found, dirty := c.Invalidate(addr); found || dirty {
				t.Fatalf("Invalidate(%#x) = (%t, %t) in an empty cache", addr, found, dirty)
			}
			l2.WritebackL1(1, addr)
			l2.DropSharer(1, addr)
			if _, ok := l2.Sharers(addr); ok {
				t.Fatalf("Sharers(%#x) found a line in an empty L2", addr)
			}
		}
		if n := c.Occupancy(); n != 0 {
			t.Fatalf("Occupancy = %d in an empty cache", n)
		}
		c.Reset()
	})
	if allocs != 0 {
		t.Fatalf("operations on never-filled sets allocate %.0f times, want 0", allocs)
	}
	for _, g := range c.tags.groups {
		if cap(g) != 0 {
			t.Fatal("a lookup allocated a cache group")
		}
	}
	for _, g := range l2.tags.groups {
		if cap(g) != 0 {
			t.Fatal("a lookup allocated an L2 group")
		}
	}
}

// TestNewL2AllocatesNoTagArray keeps the eager 2.6 MB array from creeping
// back: building the Table 1 L2 costs less than 64 KiB.
func TestNewL2AllocatesNoTagArray(t *testing.T) {
	dram := NewDRAM(150, 2, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l2 := NewL2(4<<20, 8, 64, 32, 5, 27, dram)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewL2 allocated %d bytes, want < %d", got, 64<<10)
	}
	runtime.KeepAlive(l2)
}
