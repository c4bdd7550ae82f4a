package noc

import "math/bits"

// horizon is the reservation window in cycles.  Reservations are made at
// or slightly after the current simulation cycle, so a few thousand
// cycles of lookahead is ample.
const horizon = 4096

// MaxSlotCount is the largest per-cycle capacity a ring can count.
const MaxSlotCount = 255

// Ring is a reservation timeline: at most capTotal bookings per cycle, of
// which at most capFP may be of a restricted class.  Mesh links book
// flits on one (no restricted class); the simulator's cores book issue
// slots on one, floating-point instructions being the restricted class;
// the conventional-core model (internal/conv) books issue, port and
// commit slots on four, with no restricted class.
//
// A cycle is two counts side by side — total bookings in the low field,
// restricted-class bookings in the one above — each 1<<lg bits, the
// narrowest power of two that holds capTotal: 2 bits a cycle (1 KB a
// ring) at one booking a cycle, 4 at two or three, 8 up to fifteen, 16 up
// to MaxSlotCount.  A count never exceeds capTotal, so it never carries
// into its neighbour.  There is no generation: every resident count
// belongs to a cycle of [base, base+horizon), and Reset clears.
type Ring struct {
	base            uint64   // earliest reservable cycle (requests clamp forward to it)
	words           []uint64 // horizon cycles, 64>>(lg+1) to a word
	capTotal, capFP uint8
	lg              uint8
}

// NewRing returns a ring whose window starts at cycle base.  Both
// capacities must be in 1..MaxSlotCount with capFP <= capTotal; a zero
// capacity could never be booked and Reserve would not return.
func NewRing(base uint64, capTotal, capFP int) *Ring {
	r := new(Ring)
	r.init(base, capTotal, capFP)
	return r
}

func (r *Ring) init(base uint64, capTotal, capFP int) {
	if capFP < 1 || capFP > capTotal || capTotal > MaxSlotCount {
		panic("noc: ring capacity out of range")
	}
	lg := uint8(bits.Len(uint(bits.Len(uint(capTotal)) - 1)))
	*r = Ring{base: base, words: make([]uint64, horizon>>(5-lg)), capTotal: uint8(capTotal), capFP: uint8(capFP), lg: lg}
}

// Reserve books the earliest cycle at or after t with a free slot (and,
// for fp, a free restricted-class slot) and returns it.
func (r *Ring) Reserve(t uint64, fp bool) uint64 {
	if t < r.base {
		t = r.base
	}
	lg := uint(r.lg)
	width := uint(1) << lg
	mask := uint64(1)<<width - 1
	for {
		if t >= r.base+horizon {
			r.Reset(t) // every booking so far lies before t
		}
		i := uint(t % horizon)
		word := &r.words[i>>(5-lg)]
		shift := (i << (lg + 1)) & 63 // a word holds a whole number of cycles
		s := *word >> shift
		if s&mask < uint64(r.capTotal) && (!fp || s>>width&mask < uint64(r.capFP)) {
			inc := uint64(1)
			if fp {
				inc += 1 << width
			}
			*word += inc << shift
			return t
		}
		t++
	}
}

// bookFree books one unrestricted slot at cycle t, which must lie in the
// window, if t has one free, and reports whether it did: Reserve's first
// probe, small enough to inline into the mesh's hop.
func (r *Ring) bookFree(t uint64) bool {
	lg := r.lg
	i := t % horizon
	word := &r.words[i>>(5-lg)]
	shift := (i << (lg + 1)) & 63
	if *word>>shift&(1<<(1<<lg)-1) >= uint64(r.capTotal) {
		return false
	}
	*word += 1 << shift
	return true
}

// Reset forgets every booking and restarts the window at cycle base,
// keeping the ring's words and capacities: the ring is then the one
// NewRing(base, ...) returns.  Reserve calls it to move the window when a
// request lands past the horizon, where every booking lies behind it.
func (r *Ring) Reset(base uint64) {
	clear(r.words)
	r.base = base
}
