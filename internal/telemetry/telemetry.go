// Package telemetry is the chip-wide observability layer: a registry of
// counter views, gauges and power-of-two-bucket histograms registered
// under hierarchical dotted names ("core3.lsq.nacks",
// "noc.opnd.link.3.4.flits"), a cycle-sampled time-series sampler, and a
// Chrome trace-event exporter for block/job lifecycles.
//
// Design rules (see DESIGN.md, "Telemetry"):
//
//   - Counters are *views* over a component's own uint64 field
//     (gem5-style): the component keeps incrementing its field on the hot
//     path exactly as before, and the registry only reads it at snapshot
//     time.  Registering a metric therefore costs nothing per simulated
//     event.
//   - Active instrumentation (histograms, the sampler, the Chrome trace)
//     is reached through nil-safe methods: when telemetry is disabled the
//     pointers are nil and each call site compiles to a nil check.
//   - Snapshot/WriteJSON iterate names in sorted order, so all exported
//     artifacts are deterministic.
package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Gauge is an instantaneous value computed on demand, or the value a
// frozen registry fixed.
type Gauge struct {
	fn func() float64
	v  float64
}

// Value evaluates the gauge.
func (g Gauge) Value() float64 {
	if g.fn == nil {
		return g.v
	}
	return g.fn()
}

// Registry maps hierarchical metric names to counters, gauges and
// histograms.  Registration replaces any previous metric of the same
// name (a recomposed processor re-registers its cores).  Components name
// their metrics through Name and Indexed, so registering a chip formats
// no string the process has formatted before.  All methods are
// safe for concurrent use; the intended sharing model is still
// one registry per chip (see the overhead contract in DESIGN.md).
//
// A counter is a read-only view over a monotonically increasing uint64
// field owned and incremented by a component's single simulation
// goroutine.  Reading a view mid-run from another goroutine is outside
// the sharing model (snapshots after the run or from the chip's own
// event loop).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*uint64
	gauges   map[string]Gauge // by value: a gauge costs its closure alone
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*uint64{},
		gauges:   map[string]Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// CounterView registers name as a view over src, a counter field owned
// and incremented by the component itself.  The hot path keeps writing
// the field directly; the registry reads it only at snapshot time.
func (r *Registry) CounterView(name string, src *uint64) {
	r.mu.Lock()
	r.counters[name] = src
	r.mu.Unlock()
}

// Gauge registers a derived instantaneous metric.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.mu.Lock()
	r.gauges[name] = Gauge{fn: fn}
	r.mu.Unlock()
}

// NewHistogram registers a fresh, empty histogram under name, replacing any
// previous one: a component that registers again (a recomposed processor)
// starts counting from zero, as its counter views do.
func (r *Registry) NewHistogram(name string) *Histogram {
	h := &Histogram{}
	r.mu.Lock()
	r.hists[name] = h
	r.mu.Unlock()
	return h
}

// Histogram returns the histogram registered under name, registering an
// empty one if there is none.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// Freeze fixes every counter view and gauge at its current value, so the
// registry reads the same however the components it viewed change or are
// reused; its histograms are its own already.
func (r *Registry) Freeze() {
	r.mu.Lock()
	defer r.mu.Unlock()
	vals := make([]uint64, 0, len(r.counters)) // one slab: a slot per counter
	//lint:allow determinism each counter gets a slot of its own; which slot is never read
	for n, c := range r.counters {
		vals = append(vals, *c)
		r.counters[n] = &vals[len(vals)-1]
	}
	for n, g := range r.gauges {
		r.gauges[n] = Gauge{v: g.Value()}
	}
}

// Snapshot is a flat, point-in-time copy of the registry: counter and
// gauge values by name, plus "<hist>.count", "<hist>.sum" and
// "<hist>.mean" per histogram.  Counter values are exact in float64 for
// counts below 2^53 — far beyond any simulated quantity — so arithmetic
// on a snapshot reproduces the same float64 results as the raw fields.
type Snapshot map[string]float64

// Get reads one snapshot entry (0 when absent).
func (s Snapshot) Get(name string) float64 { return s[name] }

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := make(Snapshot, len(r.counters)+len(r.gauges)+3*len(r.hists))
	for n, c := range r.counters {
		s[n] = float64(*c)
	}
	for n, g := range r.gauges {
		s[n] = g.Value()
	}
	for n, h := range r.hists {
		s[Name(n, "count")] = float64(h.Count())
		s[Name(n, "sum")] = float64(h.Sum())
		s[Name(n, "mean")] = h.Mean()
	}
	return s
}

// jsonHistogram is the exported form of one histogram.
type jsonHistogram struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// WriteJSON dumps the registry as one JSON document with sorted keys:
// {"counters":{...},"gauges":{...},"histograms":{...}}.  Histograms
// include their non-empty power-of-two buckets.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.RLock()
	counters := make(map[string]uint64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = *c
	}
	gauges := make(map[string]float64, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g.Value()
	}
	hists := make(map[string]jsonHistogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = jsonHistogram{
			Count:   h.Count(),
			Sum:     h.Sum(),
			Mean:    h.Mean(),
			Buckets: h.Buckets(),
		}
	}
	r.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Counters   map[string]uint64        `json:"counters"`
		Gauges     map[string]float64       `json:"gauges"`
		Histograms map[string]jsonHistogram `json:"histograms"`
	}{counters, gauges, hists})
}
