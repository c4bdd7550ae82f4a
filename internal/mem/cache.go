// Package mem models the TFlex memory system substrates: set-associative
// timing caches (tags only — architectural data lives in the functional
// memory), the shared S-NUCA L2 with directory coherence, the DRAM channel
// model, and the address-interleaved load/store queue banks with NACK
// overflow handling.
//
// Timing caches are decoupled from data: the simulator computes load
// values architecturally and uses these structures only to decide hit/miss
// latency, occupancy, evictions and coherence actions — the standard
// split-functional/timing simulator organization.
package mem

// Line is one cache line's timing state.
type Line struct {
	LineAddr uint64 // addr / lineBytes
	Valid    bool
	Dirty    bool
	FillAt   uint64 // cycle at which the data is present (MSHR merging)
	lastUse  uint64
}

// CacheStats counts cache activity.
type CacheStats struct {
	Accesses    uint64
	Misses      uint64
	Evictions   uint64
	DirtyEvicts uint64
	Invalidates uint64
}

// Cache is a set-associative tag array with LRU replacement.
type Cache struct {
	SetCount  int
	Ways      int
	LineBytes int

	tags  tagArray[Line]
	Stats CacheStats
	tick  uint64 // LRU clock
}

// NewCache builds a cache of totalBytes capacity.
func NewCache(totalBytes, ways, lineBytes int) *Cache {
	sets := totalBytes / (ways * lineBytes)
	if sets < 1 {
		sets = 1
	}
	return &Cache{
		SetCount:  sets,
		Ways:      ways,
		LineBytes: lineBytes,
		tags:      newTagArray[Line](sets, ways),
	}
}

// Reset empties the cache and zeroes its statistics, keeping the tag
// groups it filled: it is then the cache NewCache returned.
func (c *Cache) Reset() {
	c.tags.reset()
	c.Stats = CacheStats{}
	c.tick = 0
}

// Probe returns the line holding addr without updating stats or LRU.
func (c *Cache) Probe(addr uint64) *Line {
	la := addr / uint64(c.LineBytes)
	set := c.tags.peek(c.tags.setOf(la))
	for i := range set {
		if set[i].Valid && set[i].LineAddr == la {
			return &set[i]
		}
	}
	return nil
}

// Access looks up addr at cycle now, counting one access.  On a hit the
// line's LRU position is refreshed and the line returned; the caller must
// honor FillAt (a hit under a pending fill completes at FillAt).
func (c *Cache) Access(addr uint64, now uint64) (*Line, bool) {
	c.Stats.Accesses++
	c.tick++
	l := c.Probe(addr)
	if l == nil {
		c.Stats.Misses++
		return nil, false
	}
	l.lastUse = c.tick
	return l, true
}

// Fill allocates a line for addr whose data arrives at fillAt, evicting
// the LRU way.  It returns the victim (if any) so the caller can write it
// back or notify a directory.
func (c *Cache) Fill(addr uint64, fillAt uint64) (victim Line, evicted bool) {
	la := addr / uint64(c.LineBytes)
	set := c.tags.touch(c.tags.setOf(la))
	c.tick++
	// Reuse the line if it is already present (racing fills merge).
	for i := range set {
		if set[i].Valid && set[i].LineAddr == la {
			if fillAt < set[i].FillAt {
				set[i].FillAt = fillAt
			}
			set[i].lastUse = c.tick
			return Line{}, false
		}
	}
	vi := 0
	for i := range set {
		if !set[i].Valid {
			vi = i
			break
		}
		if set[i].lastUse < set[vi].lastUse {
			vi = i
		}
	}
	victim = set[vi]
	evicted = victim.Valid
	if evicted {
		c.Stats.Evictions++
		if victim.Dirty {
			c.Stats.DirtyEvicts++
		}
	}
	set[vi] = Line{LineAddr: la, Valid: true, FillAt: fillAt, lastUse: c.tick}
	return victim, evicted
}

// Invalidate drops the line holding addr, reporting whether it existed and
// whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (found, dirty bool) {
	l := c.Probe(addr)
	if l == nil {
		return false, false
	}
	c.Stats.Invalidates++
	found, dirty = true, l.Dirty
	l.Valid = false
	l.Dirty = false
	return found, dirty
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, g := range c.tags.groups {
		for i := range g {
			if g[i].Valid {
				n++
			}
		}
	}
	return n
}

// Port is a structural-hazard reservation: a resource accepting one
// request per interval cycles (a cache or register bank, an L2 bank, a
// DRAM channel).
type Port struct {
	nextFree uint64
}

// Reserve returns the cycle at which the port accepts a request arriving
// at cycle t, and books it.
func (p *Port) Reserve(t uint64, interval uint64) uint64 {
	if t < p.nextFree {
		t = p.nextFree
	}
	p.nextFree = t + interval
	return t
}
