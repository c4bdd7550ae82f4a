// Package noc models the on-chip 2-D mesh networks connecting TFlex cores:
// the operand network that routes dataflow operands between ALUs, and the
// control network used by the distributed fetch/commit protocols.
//
// The model is a reservation-based approximation of a wormhole-routed
// mesh: messages follow dimension-ordered (XY) routes; each directed link
// accepts a fixed number of flits per cycle (the paper doubles the operand
// network bandwidth of TFlex relative to TRIPS); a message occupies one
// link slot per hop, one hop per cycle, and is delayed to the earliest
// cycle with a free slot on each link along its path.  Adjacent-core
// bypass costs a single cycle, matching the paper's 1-cycle inter-core hop
// at 2.5 GHz.
package noc

// link is one directed mesh link.  Its reservation ring is built by the
// first flit that crosses it, so an untouched link costs nothing.  A
// link with no flit since the mesh was built or reset takes its window's
// base from its first flit, whether the ring is new or kept from before.
type link struct {
	ring  Ring
	flits uint64 // total flit traversals, exported per-link via telemetry
}

func (l *link) reserve(t uint64, bw uint16) uint64 {
	if l.flits == 0 {
		if l.ring.words == nil {
			l.ring.init(t, int(bw), int(bw))
		} else {
			l.ring.Reset(t)
		}
	}
	l.flits++
	return l.ring.Reserve(t, false)
}

// hop books one flit on link li at the earliest cycle at or after t with
// a free slot and returns the cycle after it, when the flit is across.
// The common hop is booked inline: the link has carried a flit since the
// mesh was built or reset, t lies in its ring's window and t has a free
// slot.  Anything else goes to link.reserve, which books the same cycle
// the inline path would have.
func (m *Mesh) hop(li int, t uint64) uint64 {
	l := &m.links[li]
	if l.flits != 0 && t-l.ring.base < horizon && l.ring.bookFree(t) {
		l.flits++
		return t + 1
	}
	return l.reserve(t, m.BW) + 1
}

// Stats counts network activity for the power model and reports.
type Stats struct {
	Messages        uint64
	Hops            uint64 // flit-hops (router traversals)
	StallCycles     uint64 // cycles lost to link contention
	LocalDeliveries uint64
}

// Mesh is one W x H mesh network.  Node IDs are y*W + x.
type Mesh struct {
	W, H int
	BW   uint16 // flits per link per cycle

	links []link // [node*4 + dir]
	stats Stats

	// xy is every node's coordinates, looked up so that routing never
	// divides by the run-time width; a fixed array, so it costs a mesh no
	// allocation of its own.
	xy [maxNodes]struct{ x, y uint8 }

	// scratch is the tree MulticastInto routes each call into, reusing
	// its storage; hopAt is the cycle each hop of the tree Multicast is
	// booking delivers its flit, by hop index.
	scratch Tree
	hopAt   [maxNodes]uint64
}

// Directions for link indexing.
const (
	dirE = iota
	dirW
	dirN
	dirS
)

// maxNodes is the largest mesh NewMesh builds: twice the 32-core array.
const maxNodes = 64

// NewMesh returns a mesh of the given dimensions (at most 64 nodes) and
// per-link bandwidth (1..MaxSlotCount flits per cycle).
func NewMesh(w, h int, bw int) *Mesh {
	if w < 1 || h < 1 || w*h > maxNodes || bw < 1 || bw > MaxSlotCount {
		panic("noc: invalid mesh shape")
	}
	m := &Mesh{W: w, H: h, BW: uint16(bw), links: make([]link, w*h*4)}
	for node := range m.xy[:w*h] {
		m.xy[node].x, m.xy[node].y = uint8(node%w), uint8(node/w)
	}
	return m
}

// Reset returns the mesh to the state NewMesh left it in while keeping
// its storage: statistics and flit counts go to zero, and each link's
// ring words wait for the link's next first flit, which clears them and
// sets their base (link.reserve), so a reset costs a pass over the link
// headers.  Trees routed on the mesh stay valid: they hold links, not
// bookings.
func (m *Mesh) Reset() {
	for i := range m.links {
		m.links[i].flits = 0
	}
	m.stats = Stats{}
}

// Stats returns accumulated network statistics.
func (m *Mesh) Stats() Stats { return m.stats }

// XY returns the coordinates of a node.
func (m *Mesh) XY(node int) (x, y int) { return int(m.xy[node].x), int(m.xy[node].y) }

// Dist returns the Manhattan hop distance between two nodes.
func (m *Mesh) Dist(a, b int) int {
	ax, ay := m.XY(a)
	bx, by := m.XY(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Send routes one message from node `from` to node `to`, injected at cycle
// start, and returns its arrival cycle.  Local delivery (from == to) is
// free: the value goes through the local bypass.
func (m *Mesh) Send(from, to int, start uint64) uint64 {
	if from == to {
		m.stats.LocalDeliveries++
		return start
	}
	m.stats.Messages++
	x, y := m.XY(from)
	tx, ty := m.XY(to)
	ideal := uint64(abs(x-tx) + abs(y-ty))
	m.stats.Hops += ideal
	// X first, then Y (dimension-ordered); li is the link out of the
	// current node in the direction of travel, a node apart per hop.
	t, li := start, from*4
	for ; x < tx; x++ {
		t = m.hop(li+dirE, t)
		li += 4
	}
	for ; x > tx; x-- {
		t = m.hop(li+dirW, t)
		li -= 4
	}
	for ; y < ty; y++ {
		t = m.hop(li+dirS, t)
		li += 4 * m.W
	}
	for ; y > ty; y-- {
		t = m.hop(li+dirN, t)
		li -= 4 * m.W
	}
	if t-start > ideal {
		m.stats.StallCycles += (t - start) - ideal
	}
	return t
}

// Latency returns the uncontended latency between two nodes (hops cycles),
// without reserving link slots.  Used for analytic components such as the
// S-NUCA bank access time.
func (m *Mesh) Latency(from, to int) uint64 { return uint64(m.Dist(from, to)) }

// MulticastInto delivers one message from `from` to every node in targets
// as a tree multicast (see Multicast), routing the tree into the mesh's
// own scratch Tree first.  It writes the arrival cycle at each target
// (same order) into dst, which must have len(targets) entries, and
// returns it.  A caller that multicasts from one node to one target list
// again and again routes a Tree of its own once instead.
func (m *Mesh) MulticastInto(from int, targets []int, start uint64, dst []uint64) []uint64 {
	m.Route(&m.scratch, from, targets)
	return m.Multicast(&m.scratch, start, dst)
}
