package mem

// The shared level-two cache: a 4MB static-NUCA array of 32 banks
// connected by a switched mesh (paper §4.7).  Hit latency varies from
// L2HitMin to L2HitMax cycles with the distance between the requesting
// core and the bank.  The L2 tag array carries the directory state for L1
// coherence: a sharer vector over the 32 L1 D-caches plus a dirty-owner
// pointer, treating each L1 as an independent coherence unit — so
// recomposition never requires flushing L1s; stale lines are found and
// invalidated or forwarded on demand.

// L1Directory is implemented by the core array so the L2 directory can act
// on L1 D-cache lines.
type L1Directory interface {
	// InvalidateL1 removes addr's line from core's L1 D-cache.
	InvalidateL1(core int, addr uint64) (found, dirty bool)
	// DowngradeL1 marks addr's line clean in core's L1 D-cache (M -> S).
	DowngradeL1(core int, addr uint64) (found bool)
}

// l2Line is ordered widest field first: 32 bytes, two lines to a host
// cache line.
type l2Line struct {
	lineAddr uint64
	fillAt   uint64
	lastUse  uint64
	sharers  uint32 // bit per L1 (physical core ID)
	owner    int8   // dirty L1 owner, -1 if none
	valid    bool
	dirty    bool // newer than DRAM
}

// L2Stats counts L2 and directory activity.
type L2Stats struct {
	Accesses   uint64
	Misses     uint64
	Forwards   uint64 // dirty data forwarded from a remote L1
	Invals     uint64 // L1 lines invalidated by the directory
	Downgrades uint64
	Evictions  uint64
	Writebacks uint64 // dirty L1 evictions absorbed
}

// L2 is the shared S-NUCA level-two cache with its coherence directory.
type L2 struct {
	lineBytes int
	banks     int
	hitMin    uint64
	hitMax    uint64

	tags     tagArray[l2Line]
	bankPort []Port
	dram     *DRAM
	dir      L1Directory

	// Core array geometry for distance-dependent latency (4-wide).
	arrayW int

	Stats L2Stats
	tick  uint64
}

// NewL2 builds the shared L2.
func NewL2(totalBytes, ways, lineBytes, banks int, hitMin, hitMax uint64, dram *DRAM) *L2 {
	sets := totalBytes / (ways * lineBytes)
	return &L2{
		lineBytes: lineBytes,
		banks:     banks,
		hitMin:    hitMin,
		hitMax:    hitMax,
		tags:      newTagArray[l2Line](sets, ways),
		bankPort:  make([]Port, banks),
		dram:      dram,
		arrayW:    4,
	}
}

// SetDirectory wires the L1 invalidation callbacks.
func (l *L2) SetDirectory(dir L1Directory) { l.dir = dir }

// BankOf returns the S-NUCA bank holding addr.
func (l *L2) BankOf(addr uint64) int {
	return int((addr / uint64(l.lineBytes)) % uint64(l.banks))
}

// coreDist is the Manhattan distance between two positions on the 4-wide
// array; the L2 bank array mirrors the core array on the other half of the
// chip, so bank b is reached from core c with an extra column crossing.
func (l *L2) coreDist(a, b int) int {
	ax, ay := a%l.arrayW, a/l.arrayW
	bx, by := b%l.arrayW, b/l.arrayW
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// HitLatency maps requester-to-bank distance onto [hitMin, hitMax].
func (l *L2) HitLatency(core int, addr uint64) uint64 {
	bank := l.BankOf(addr)
	// Crossing from the core array to the L2 array costs the column
	// offset; the maximum distance on the combined floorplan is ~14 hops.
	d := uint64(l.coreDist(core, bank) + 4)
	const maxD = 14
	if d > maxD {
		d = maxD
	}
	return l.hitMin + (l.hitMax-l.hitMin)*d/maxD
}

func (l *L2) probe(addr uint64) *l2Line {
	la := addr / uint64(l.lineBytes)
	set := l.tags.peek(l.tags.setOf(la))
	for i := range set {
		if set[i].valid && set[i].lineAddr == la {
			return &set[i]
		}
	}
	return nil
}

func (l *L2) fill(addr uint64, fillAt uint64) *l2Line {
	la := addr / uint64(l.lineBytes)
	set := l.tags.touch(l.tags.setOf(la))
	l.tick++
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].lastUse < set[vi].lastUse {
			vi = i
		}
	}
	v := &set[vi]
	if v.valid {
		l.Stats.Evictions++
		// Inclusive L2: evicting a line with L1 copies invalidates them.
		l.invalidateSharers(v, -1)
		// Dirty victims drain to DRAM through the writeback buffer
		// (bandwidth folded into the DRAM channel model elsewhere).
	}
	*v = l2Line{lineAddr: la, valid: true, fillAt: fillAt, lastUse: l.tick, owner: -1}
	return v
}

func (l *L2) invalidateSharers(line *l2Line, except int) (maxDist int) {
	if l.dir == nil {
		line.sharers = 0
		line.owner = -1
		return 0
	}
	base := line.lineAddr * uint64(l.lineBytes)
	for c := 0; c < 32; c++ {
		if line.sharers&(1<<uint(c)) == 0 || c == except {
			continue
		}
		if found, dirty := l.dir.InvalidateL1(c, base); found {
			l.Stats.Invals++
			if dirty {
				line.dirty = true
			}
			ref := except
			if ref < 0 {
				ref = c // eviction-driven: no requester to reach
			}
			if d := l.coreDist(c, ref); d > maxDist {
				maxDist = d
			}
		}
	}
	keep := uint32(0)
	if except >= 0 {
		keep = line.sharers & (1 << uint(except))
	}
	line.sharers = keep
	if except < 0 || int(line.owner) != except {
		line.owner = -1
	}
	return maxDist
}

// Read services an L1 load/ifetch miss from core at cycle now and returns
// the fill-completion cycle.  The requester is recorded as a sharer.
func (l *L2) Read(core int, addr uint64, now uint64) uint64 {
	l.Stats.Accesses++
	bank := l.BankOf(addr)
	start := l.bankPort[bank].Reserve(now, 2)
	lat := l.HitLatency(core, addr)
	line := l.probe(addr)
	var done uint64
	if line == nil {
		l.Stats.Misses++
		done = l.dram.Access(addr, start+lat)
		line = l.fill(addr, done)
	} else {
		l.tick++
		line.lastUse = l.tick
		done = start + lat
		if line.fillAt > done {
			done = line.fillAt
		}
		if line.owner >= 0 && int(line.owner) != core {
			// Dirty in a remote L1: forward and downgrade the owner.
			l.Stats.Forwards++
			done += uint64(l.coreDist(int(line.owner), core))
			if l.dir != nil {
				if found := l.dir.DowngradeL1(int(line.owner), addr); found {
					l.Stats.Downgrades++
				}
			}
			line.dirty = true
			line.owner = -1
		}
	}
	line.sharers |= 1 << uint(core%32)
	return done
}

// Upgrade grants core exclusive (writable) ownership of addr's line,
// invalidating all other L1 copies; called when a committing store hits a
// clean L1 line or fills a new one.  Returns the completion cycle.
func (l *L2) Upgrade(core int, addr uint64, now uint64) uint64 {
	l.Stats.Accesses++
	bank := l.BankOf(addr)
	start := l.bankPort[bank].Reserve(now, 2)
	lat := l.HitLatency(core, addr)
	line := l.probe(addr)
	var done uint64
	if line == nil {
		l.Stats.Misses++
		done = l.dram.Access(addr, start+lat)
		line = l.fill(addr, done)
	} else {
		l.tick++
		line.lastUse = l.tick
		done = start + lat
		if line.fillAt > done {
			done = line.fillAt
		}
	}
	if d := l.invalidateSharers(line, core); d > 0 {
		done += uint64(2 * d) // invalidation round trip
	}
	line.sharers = 1 << uint(core%32)
	line.owner = int8(core)
	return done
}

// WritebackL1 absorbs a dirty L1 eviction from core.
func (l *L2) WritebackL1(core int, addr uint64) {
	l.Stats.Writebacks++
	if line := l.probe(addr); line != nil {
		line.dirty = true
		line.sharers &^= 1 << uint(core%32)
		if int(line.owner) == core {
			line.owner = -1
		}
	}
}

// DropSharer records a clean L1 eviction from core.
func (l *L2) DropSharer(core int, addr uint64) {
	if line := l.probe(addr); line != nil {
		line.sharers &^= 1 << uint(core%32)
		if int(line.owner) == core {
			line.owner = -1
		}
	}
}

// Sharers reports the directory sharer vector for a line (tests).
func (l *L2) Sharers(addr uint64) (uint32, bool) {
	if line := l.probe(addr); line != nil {
		return line.sharers, true
	}
	return 0, false
}
