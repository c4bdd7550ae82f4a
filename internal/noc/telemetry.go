package noc

import (
	"fmt"
	"sync"

	"github.com/clp-sim/tflex/internal/telemetry"
)

// linkName is one directed on-grid link's index into Mesh.links and the
// name of its flit counter.
type linkName struct {
	link int
	name string
}

// linkNameKey identifies one set of per-link counter names.
type linkNameKey struct {
	prefix string
	w, h   int
}

// linkNames memoizes the per-link counter names by prefix and mesh shape
// (linkNameKey -> []linkName).  Every metrics-collecting job registers
// the same two meshes, so the names are formatted once per process, not
// 2 x 104 times per job.
var linkNames sync.Map

func linkNamesFor(prefix string, w, h int) []linkName {
	key := linkNameKey{prefix, w, h}
	if v, ok := linkNames.Load(key); ok {
		return v.([]linkName)
	}
	var names []linkName
	for node := 0; node < w*h; node++ {
		x, y := node%w, node/w
		neighbor := [4]int{-1, -1, -1, -1} // by dirE/dirW/dirN/dirS
		if x < w-1 {
			neighbor[dirE] = node + 1
		}
		if x > 0 {
			neighbor[dirW] = node - 1
		}
		if y > 0 {
			neighbor[dirN] = node - w
		}
		if y < h-1 {
			neighbor[dirS] = node + w
		}
		for dir, to := range neighbor {
			if to < 0 {
				continue // edge link off the grid: never reservable
			}
			names = append(names, linkName{node*4 + dir, fmt.Sprintf("%s.link.%d.%d.flits", prefix, node, to)})
		}
	}
	linkNames.Store(key, names)
	return names
}

// Register exposes the mesh's counters under prefix (e.g. "noc.opnd"):
// aggregate message/hop/stall counts plus one flit counter per directed
// on-grid link named "<prefix>.link.<from>.<to>.flits" by node ID.  All
// entries are views over the mesh's own fields — registration adds no
// cost to Send/MulticastInto.
func (m *Mesh) Register(r *telemetry.Registry, prefix string) {
	r.CounterView(prefix+".messages", &m.stats.Messages)
	r.CounterView(prefix+".hops", &m.stats.Hops)
	r.CounterView(prefix+".stall_cycles", &m.stats.StallCycles)
	r.CounterView(prefix+".local_deliveries", &m.stats.LocalDeliveries)
	for _, ln := range linkNamesFor(prefix, m.W, m.H) {
		r.CounterView(ln.name, &m.links[ln.link].flits)
	}
}
