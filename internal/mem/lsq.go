package mem

// Load/store queue banks.  The composed processor partitions its LSQ by
// data address with the same hash as the L1 D-cache banks, so each bank
// disambiguates only the accesses it can conflict with.  Banks are not
// sized for the worst case; when a bank is full an incoming request is
// NACKed and retried (the low-overhead overflow mechanism of
// Sethumadhavan et al. cited in paper §4.5).

// MemKey totally orders memory operations across the in-flight window:
// block sequence number first, then LSID within the block.
type MemKey struct {
	BlockSeq uint64
	LSID     int8
}

// Less reports program order.
func (k MemKey) Less(o MemKey) bool {
	if k.BlockSeq != o.BlockSeq {
		return k.BlockSeq < o.BlockSeq
	}
	return k.LSID < o.LSID
}

// LSQEntry is one in-flight memory operation resident in a bank.  Entries
// are allocated when the operation reaches the bank (address in hand).
type LSQEntry struct {
	Key   MemKey
	Store bool
	Addr  uint64
	Size  uint8
}

// LSQStats counts queue activity.
type LSQStats struct {
	Inserts    uint64
	NACKs      uint64
	Violations uint64
	Forwards   uint64
	MaxOcc     int
}

// LSQBank is one address-interleaved LSQ partition.
type LSQBank struct {
	Cap     int
	entries []LSQEntry
	Stats   LSQStats

	// The registry's occupancy gauges, bound by the first Register.
	occGauge, maxOccGauge func() float64
}

// NewLSQBank returns a bank with the given capacity (44 in Table 1).
func NewLSQBank(capacity int) *LSQBank {
	return &LSQBank{Cap: capacity}
}

// Occupancy returns the number of resident entries.
func (b *LSQBank) Occupancy() int { return len(b.entries) }

func bytesOverlap(a1 uint64, s1 uint8, a2 uint64, s2 uint8) bool {
	return a1 < a2+uint64(s2) && a2 < a1+uint64(s1)
}

// Insert slots a memory operation, returning false (NACK) when the bank is
// full.  For stores, it also returns the keys of younger already-executed
// loads that overlap — dependence violations the pipeline must flush.
func (b *LSQBank) Insert(e LSQEntry) (ok bool, violations []MemKey) {
	if len(b.entries) >= b.Cap {
		b.Stats.NACKs++
		return false, nil
	}
	if e.Store {
		for i := range b.entries {
			o := &b.entries[i]
			if !o.Store && e.Key.Less(o.Key) && bytesOverlap(e.Addr, e.Size, o.Addr, o.Size) {
				violations = append(violations, o.Key)
			}
		}
		if len(violations) > 0 {
			b.Stats.Violations += uint64(len(violations))
		}
	}
	b.entries = append(b.entries, e)
	b.Stats.Inserts++
	if len(b.entries) > b.Stats.MaxOcc {
		b.Stats.MaxOcc = len(b.entries)
	}
	return true, violations
}

// ForwardFrom reports whether a load (key, addr, size) would be satisfied
// (fully or partially) by an older in-flight store in this bank; used for
// the forwarding statistics and latency path.
func (b *LSQBank) ForwardFrom(key MemKey, addr uint64, size uint8) bool {
	for i := range b.entries {
		o := &b.entries[i]
		if o.Store && o.Key.Less(key) && bytesOverlap(addr, size, o.Addr, o.Size) {
			b.Stats.Forwards++
			return true
		}
	}
	return false
}

// RemoveBlock drops every entry belonging to block seq (commit or flush)
// and returns how many were removed.
func (b *LSQBank) RemoveBlock(seq uint64) int {
	kept := b.entries[:0]
	removed := 0
	for _, e := range b.entries {
		if e.Key.BlockSeq == seq {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	b.entries = kept
	return removed
}

// RemoveFrom drops every entry with BlockSeq >= seq (pipeline flush).
func (b *LSQBank) RemoveFrom(seq uint64) int {
	kept := b.entries[:0]
	removed := 0
	for _, e := range b.entries {
		if e.Key.BlockSeq >= seq {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	b.entries = kept
	return removed
}
