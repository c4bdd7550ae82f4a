package noc

import "github.com/clp-sim/tflex/internal/telemetry"

// Register exposes the mesh's counters under prefix (e.g. "noc.opnd"):
// aggregate message/hop/stall counts plus one flit counter per directed
// on-grid link named "<prefix>.link.<from>.<to>.flits" by node ID.  All
// entries are views over the mesh's own fields — registration adds no
// cost to Send/MulticastInto — and every name comes from telemetry's
// process-wide memo, so the 2 x 104 link names of a 32-core chip are
// formatted once per process, not once per job.
func (m *Mesh) Register(r *telemetry.Registry, prefix string) {
	r.CounterView(telemetry.Name(prefix, "messages"), &m.stats.Messages)
	r.CounterView(telemetry.Name(prefix, "hops"), &m.stats.Hops)
	r.CounterView(telemetry.Name(prefix, "stall_cycles"), &m.stats.StallCycles)
	r.CounterView(telemetry.Name(prefix, "local_deliveries"), &m.stats.LocalDeliveries)
	link := telemetry.Name(prefix, "link.") // "<prefix>.link." + "<from>" + ".<to>.flits"
	w, h := m.W, m.H
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
			r.CounterView(telemetry.Indexed(link, node, telemetry.Indexed("", to, "flits")), &m.links[node*4+dir].flits)
		}
	}
}
