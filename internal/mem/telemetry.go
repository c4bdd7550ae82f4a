package mem

import "github.com/clp-sim/tflex/internal/telemetry"

// Register methods expose each memory component's counters under a
// hierarchical prefix ("core3.l1d", "core3.lsq", "l2", "dram").  Every
// entry is a view over the component's own stats field or an on-demand
// gauge, so registration adds nothing to the access paths.  Every name
// comes from telemetry's process-wide memo, and a component binds each
// gauge func on its first Register and passes the same func ever after,
// so registering a warm component again allocates nothing (and one that
// is never registered pays nothing).  Components are held by pointer: a
// copy would carry funcs bound to the original.

// Register exposes cache counters plus a live occupancy gauge.
func (c *Cache) Register(r *telemetry.Registry, prefix string) {
	if c.occGauge == nil {
		c.occGauge = func() float64 { return float64(c.Occupancy()) }
	}
	r.CounterView(telemetry.Name(prefix, "accesses"), &c.Stats.Accesses)
	r.CounterView(telemetry.Name(prefix, "misses"), &c.Stats.Misses)
	r.CounterView(telemetry.Name(prefix, "evictions"), &c.Stats.Evictions)
	r.CounterView(telemetry.Name(prefix, "dirty_evicts"), &c.Stats.DirtyEvicts)
	r.CounterView(telemetry.Name(prefix, "invalidates"), &c.Stats.Invalidates)
	r.Gauge(telemetry.Name(prefix, "occupancy"), c.occGauge)
}

// Register exposes LSQ bank counters plus occupancy gauges.
func (b *LSQBank) Register(r *telemetry.Registry, prefix string) {
	if b.occGauge == nil {
		b.occGauge = func() float64 { return float64(b.Occupancy()) }
		b.maxOccGauge = func() float64 { return float64(b.Stats.MaxOcc) }
	}
	r.CounterView(telemetry.Name(prefix, "inserts"), &b.Stats.Inserts)
	r.CounterView(telemetry.Name(prefix, "nacks"), &b.Stats.NACKs)
	r.CounterView(telemetry.Name(prefix, "violations"), &b.Stats.Violations)
	r.CounterView(telemetry.Name(prefix, "forwards"), &b.Stats.Forwards)
	r.Gauge(telemetry.Name(prefix, "occupancy"), b.occGauge)
	r.Gauge(telemetry.Name(prefix, "max_occupancy"), b.maxOccGauge)
}

// Register exposes L2 + directory counters.
func (l *L2) Register(r *telemetry.Registry, prefix string) {
	r.CounterView(telemetry.Name(prefix, "accesses"), &l.Stats.Accesses)
	r.CounterView(telemetry.Name(prefix, "misses"), &l.Stats.Misses)
	r.CounterView(telemetry.Name(prefix, "forwards"), &l.Stats.Forwards)
	r.CounterView(telemetry.Name(prefix, "invals"), &l.Stats.Invals)
	r.CounterView(telemetry.Name(prefix, "downgrades"), &l.Stats.Downgrades)
	r.CounterView(telemetry.Name(prefix, "evictions"), &l.Stats.Evictions)
	r.CounterView(telemetry.Name(prefix, "writebacks"), &l.Stats.Writebacks)
}

// Register exposes DRAM channel counters.
func (d *DRAM) Register(r *telemetry.Registry, prefix string) {
	r.CounterView(telemetry.Name(prefix, "requests"), &d.Stats.Requests)
	r.CounterView(telemetry.Name(prefix, "stall_cycles"), &d.Stats.StallCycles)
}
