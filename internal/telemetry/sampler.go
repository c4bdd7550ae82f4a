package telemetry

import (
	"encoding/json"
	"io"
	"slices"
)

// Sampler records a cycle-indexed time series of tracked gauges.  The
// chip arms it with an interval; the event loop calls Sample whenever
// simulated time crosses the next sample point (a single uint64 compare
// per event when armed, nothing when the chip's sample cycle is left at
// its +inf default).
//
// The sampler is single-writer by design — it belongs to one chip and is
// only advanced from that chip's event loop.
type Sampler struct {
	interval uint64
	names    []string
	sources  []func() float64
	cycles   []uint64
	rows     [][]float64
	notify   func(cycle uint64, names []string, row []float64)
}

// NewSampler returns a sampler that wants one row every interval cycles
// (intervals below 1 are clamped to 1).
func NewSampler(interval uint64) *Sampler {
	if interval < 1 {
		interval = 1
	}
	return &Sampler{interval: interval}
}

// Interval returns the sampling period in cycles.
func (s *Sampler) Interval() uint64 {
	if s == nil {
		return 0
	}
	return s.interval
}

// Track adds a named series evaluated at every subsequent sample point.
// A series added mid-run reads 0 for the rows recorded before it.
// Tracking a name again replaces its source in place, as Registry
// re-registration does: the series keeps its column and earlier rows
// (a recomposed processor continues its predecessor's series).  Safe on
// nil.
func (s *Sampler) Track(name string, fn func() float64) {
	if s == nil {
		return
	}
	if i := slices.Index(s.names, name); i >= 0 {
		s.sources[i] = fn
		return
	}
	s.names = append(s.names, name)
	s.sources = append(s.sources, fn)
}

// SetNotify installs a hook invoked synchronously after every recorded
// row, on the sampling (chip event loop) goroutine.  The observability
// server uses it to publish live snapshots from the goroutine that owns
// the counters, keeping scrapes off the simulator's sharing model.  The
// receiver must copy names/row if it retains them past the call.
func (s *Sampler) SetNotify(fn func(cycle uint64, names []string, row []float64)) {
	if s == nil {
		return
	}
	s.notify = fn
}

// Sample appends one row for the given cycle.  Safe on nil.
func (s *Sampler) Sample(cycle uint64) {
	if s == nil {
		return
	}
	row := make([]float64, len(s.sources))
	for i, fn := range s.sources {
		row[i] = fn()
	}
	s.cycles = append(s.cycles, cycle)
	s.rows = append(s.rows, row)
	if s.notify != nil {
		s.notify(cycle, s.names, row)
	}
}

// Len returns the number of rows recorded.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	return len(s.cycles)
}

// Series is one tracked metric's sampled trajectory.
type Series struct {
	Name   string    `json:"name"`
	Cycles []uint64  `json:"cycles"`
	Values []float64 `json:"values"`
}

// Series transposes the recorded rows into per-metric series.
func (s *Sampler) Series() []Series {
	if s == nil {
		return nil
	}
	out := make([]Series, len(s.names))
	for i, name := range s.names {
		vals := make([]float64, len(s.rows))
		for j, row := range s.rows {
			if i < len(row) { // series added mid-run: earlier rows read 0
				vals[j] = row[i]
			}
		}
		out[i] = Series{Name: name, Cycles: s.cycles, Values: vals}
	}
	return out
}

// WriteJSON dumps the time series as {"interval":N,"series":[...]}.
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Interval uint64   `json:"interval"`
		Series   []Series `json:"series"`
	}{s.Interval(), s.Series()})
}
