package noc

// Tree is the XY route tree from one node to an ordered list of targets,
// routed once (Mesh.Route) and booked by every multicast along it
// (Mesh.Multicast).  Its hops are the tree's links in the order a
// target-by-target walk first crosses them, each with the hop before it
// on the route; reach names the hop that arrives at each target.
//
// The routes from one source form a tree because XY routes are
// prefix-closed: a route runs along the source's row, then down or up
// its target's column, so every node is entered by one link only — on
// the source's row, the row link from the source's side; off it, the
// column link from the row's side — and every route through a node
// shares the route to that node.  A flit therefore crosses each link of
// the tree once, starting across it at the cycle the link before it
// delivered the flit.
//
// A hop enters a node other than the source, so a tree has fewer than
// maxNodes hops and a hop index fits an int8, and a link index, below
// 4*maxNodes, a uint8: the hops and targets of a 32-core processor's 32
// trees take 3 KB.
type Tree struct {
	hops  []treeHop
	reach []int8 // per target, the index in hops of the hop arriving there; -1: the source itself
	local uint64 // targets that are the source
}

type treeHop struct {
	link   uint8 // index into Mesh.links
	parent int8  // index in hops of the hop before it; -1: the hop leaves the source
}

// Targets returns the number of targets t was routed to: 0 until Route
// fills it, and after Reset.
func (t *Tree) Targets() int { return len(t.reach) }

// Reset empties t, keeping its storage for the next Route.
func (t *Tree) Reset() {
	t.hops, t.reach, t.local = t.hops[:0], t.reach[:0], 0
}

// Route makes t the XY route tree from node from to targets, in order;
// a target may repeat or be the source.  It reuses t's storage.
func (m *Mesh) Route(t *Tree, from int, targets []int) {
	t.Reset()
	if cap(t.reach) < len(targets) {
		// Routes inside a rectangle of targets (a composed processor's
		// cores) enter only its nodes, each once, so there are fewer hops
		// than targets; other lists grow hops as they need.
		t.hops, t.reach = make([]treeHop, 0, len(targets)), make([]int8, 0, len(targets))
	}
	var enter [maxNodes]int8 // per node, 1 + the index of the hop entering it; 0: none yet
	for _, to := range targets {
		if to == from {
			t.local++
			t.reach = append(t.reach, -1)
			continue
		}
		parent, node := int8(-1), from
		step := func(dir, next int) {
			if enter[next] == 0 {
				t.hops = append(t.hops, treeHop{link: uint8(node*4 + dir), parent: parent})
				enter[next] = int8(len(t.hops))
			}
			parent, node = enter[next]-1, next
		}
		x, y := m.XY(from)
		tx, ty := m.XY(to)
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
		t.reach = append(t.reach, parent)
	}
}

// Multicast delivers one message along t, injected at cycle start, as a
// tree multicast: the flit crosses each link of the tree once and forks
// at the routers, as in the TRIPS global dispatch/control networks.  It
// books the hops in order, each at its parent's arrival, writes the
// arrival cycle at each of t's targets (same order) into dst, which must
// have t.Targets() entries, and returns it.  One message is counted if
// any target is another node, a hop per link and a local delivery per
// target that is the source; contention is not counted as stall cycles.
func (m *Mesh) Multicast(t *Tree, start uint64, dst []uint64) []uint64 {
	m.stats.LocalDeliveries += t.local
	if len(t.hops) > 0 {
		m.stats.Messages++
		m.stats.Hops += uint64(len(t.hops))
	}
	at := &m.hopAt
	for i, h := range t.hops {
		from := start
		if h.parent >= 0 {
			from = at[h.parent]
		}
		at[i] = m.hop(int(h.link), from)
	}
	for i, r := range t.reach {
		if r < 0 {
			dst[i] = start
		} else {
			dst[i] = at[r]
		}
	}
	return dst
}
