package noc

// horizon is the reservation window in cycles.  Reservations are made at
// or slightly after the current simulation cycle, so a few thousand
// cycles of lookahead is ample.
const horizon = 4096

// A Ring slot is one uint32 describing one cycle:
//
//	bits 31..16  generation: the low 16 bits of cycle/horizon
//	bits 15..8   restricted-class bookings
//	bits  7..0   total bookings
//
// A slot whose generation differs from the requested cycle's describes an
// older lap of the ring and reads as empty, so advancing the window never
// clears.  The all-zero slot is an empty slot of generation 0.
const (
	countBits = 8
	countMask = 1<<countBits - 1
	fpShift   = countBits
	genShift  = 2 * countBits
	genBits   = 32 - genShift

	// MaxSlotCount is the largest per-cycle capacity a slot can count.
	MaxSlotCount = countMask
)

// Ring is a reservation timeline: at most capTotal bookings per cycle, of
// which at most capFP may be of a restricted class.  Mesh links book
// flits on one (no restricted class); the simulator's cores book issue
// slots on one, floating-point instructions being the restricted class.
type Ring struct {
	base     uint64 // earliest reservable cycle (requests clamp forward to it)
	slots    *[horizon]uint32
	capTotal uint32
	capFP    uint32
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
	*r = Ring{base: base, slots: new([horizon]uint32), capTotal: uint32(capTotal), capFP: uint32(capFP)}
}

// Reserve books the earliest cycle at or after t with a free slot (and,
// for fp, a free restricted-class slot) and returns it.
func (r *Ring) Reserve(t uint64, fp bool) uint64 {
	if t < r.base {
		t = r.base
	}
	for {
		if t >= r.base+horizon {
			r.advance(t)
		}
		i := t % horizon
		gen := uint32(t/horizon) << genShift
		s := r.slots[i]
		if (s^gen)>>genShift != 0 {
			s = gen // stale lap: the slot is empty
		}
		if s&countMask < r.capTotal && (!fp || s>>fpShift&countMask < r.capFP) {
			s++
			if fp {
				s += 1 << fpShift
			}
			r.slots[i] = s
			return t
		}
		t++
	}
}

// advance moves the window to start at t; everything before t is
// forgotten.  Stale slots invalidate lazily via their generations, so
// there is no bulk clear — except when the window crosses into another
// half of the generation space (every 2^(genBits-1) laps, 134M cycles).
// Every booking made so far lies before t, so clearing then loses
// nothing, and it bounds the generations resident at once to a span
// shorter than 2^genBits: a slot left untouched for a whole wrap of the
// counter can never pass for a current one.
func (r *Ring) advance(t uint64) {
	const half = horizon << (genBits - 1)
	if t/half != r.base/half {
		clear(r.slots[:])
	}
	r.base = t
}
