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
// first flit that crosses it, so an untouched link costs nothing.
type link struct {
	ring  Ring
	flits uint64 // total flit traversals, exported per-link via telemetry
}

func (l *link) reserve(t uint64, bw uint16) uint64 {
	if l.ring.slots == nil {
		l.ring.init(t, int(bw), int(bw))
	}
	l.flits++
	return l.ring.Reserve(t, false)
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

	// Multicast link-sharing scratch: crossAt[link] is the cycle the
	// current multicast's flit finished crossing that link, valid when
	// crossStamp[link] == crossGen.  Generation stamping makes the scratch
	// reusable across calls without clearing or allocating.
	crossGen   uint64
	crossAt    []uint64
	crossStamp []uint64
}

// Directions for link indexing.
const (
	dirE = iota
	dirW
	dirN
	dirS
)

// NewMesh returns a mesh of the given dimensions and per-link bandwidth
// (1..MaxSlotCount flits per cycle).
func NewMesh(w, h int, bw int) *Mesh {
	if w < 1 || h < 1 || bw < 1 || bw > MaxSlotCount {
		panic("noc: invalid mesh shape")
	}
	return &Mesh{W: w, H: h, BW: uint16(bw), links: make([]link, w*h*4)}
}

// Stats returns accumulated network statistics.
func (m *Mesh) Stats() Stats { return m.stats }

// XY returns the coordinates of a node.
func (m *Mesh) XY(node int) (x, y int) { return node % m.W, node / m.W }

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
	t := start
	x, y := m.XY(from)
	tx, ty := m.XY(to)
	ideal := uint64(m.Dist(from, to))
	// X first, then Y (dimension-ordered).
	for x != tx {
		dir := dirE
		nx := x + 1
		if tx < x {
			dir = dirW
			nx = x - 1
		}
		t = m.links[(y*m.W+x)*4+dir].reserve(t, m.BW) + 1
		x = nx
		m.stats.Hops++
	}
	for y != ty {
		dir := dirS
		ny := y + 1
		if ty < y {
			dir = dirN
			ny = y - 1
		}
		t = m.links[(y*m.W+x)*4+dir].reserve(t, m.BW) + 1
		y = ny
		m.stats.Hops++
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
// as a tree multicast: the flit crosses each link of the XY-route tree
// once and forks at the routers, as in the TRIPS global dispatch/control
// networks.  It writes the arrival cycle at each target (same order) into
// dst, which must have len(targets) entries, and returns it, so
// steady-state callers can reuse one buffer.
func (m *Mesh) MulticastInto(from int, targets []int, start uint64, dst []uint64) []uint64 {
	if m.crossAt == nil {
		m.crossAt = make([]uint64, len(m.links))
		m.crossStamp = make([]uint64, len(m.links))
	}
	m.crossGen++
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
		t := start
		x, y := m.XY(from)
		tx, ty := m.XY(to)
		step := func(dir, nx, ny int) {
			li := (y*m.W+x)*4 + dir
			if m.crossStamp[li] == m.crossGen {
				t = m.crossAt[li]
			} else {
				t = m.links[li].reserve(t, m.BW) + 1
				m.crossStamp[li] = m.crossGen
				m.crossAt[li] = t
				m.stats.Hops++
			}
			x, y = nx, ny
		}
		for x != tx {
			if tx > x {
				step(dirE, x+1, y)
			} else {
				step(dirW, x-1, y)
			}
		}
		for y != ty {
			if ty > y {
				step(dirS, x, y+1)
			} else {
				step(dirN, x, y-1)
			}
		}
		dst[i] = t
	}
	return dst
}
