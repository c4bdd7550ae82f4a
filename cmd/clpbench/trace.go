package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer.  Spans nest: parent is the span
// open when this one began, and all spans of one job share its id.
type span struct {
	name       string
	label      string        // which job, for job spans
	start, end time.Duration // since the tracer's epoch
	parent     int32         // -1: root
	job        int32         // -1: outside any job
}

// tracer keeps the spans of a traced pass in memory; they are written
// out as Chrome trace JSON when the benchmark ends.  A nil tracer
// records nothing, so the decomposed drives also run untraced.
type tracer struct {
	epoch   time.Time
	spans   []span
	cur     int32 // innermost open span
	job     int32 // current job id
	nextJob int32
}

func newTracer() *tracer {
	// Room for a pass's spans up front, so recording does not allocate
	// (and move) mid-pass.
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<15), cur: -1, job: -1}
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: t.cur, job: t.job})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.cur = t.spans[id].parent
}

// beginJob opens a "job" span: it and every span inside it carry a fresh
// job id.
func (t *tracer) beginJob(label string) int32 {
	if t == nil {
		return -1
	}
	t.job = t.nextJob
	t.nextJob++
	id := t.begin("job")
	t.spans[id].label = label
	return id
}

func (t *tracer) endJob(id int32) {
	if t == nil {
		return
	}
	t.end(id)
	t.job = -1
}

// in times fn as a span.
func (t *tracer) in(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// add records a span timed elsewhere (the runner's job spans) as a child
// of parent, clamped into the parent's interval.
func (t *tracer) add(name, label string, start, end time.Duration, parent int32) {
	p := t.spans[parent]
	start = min(max(start, p.start), p.end)
	end = min(max(end, start), p.end)
	t.spans = append(t.spans, span{name: name, label: label, start: start, end: end, parent: parent, job: t.nextJob})
	t.nextJob++
}

func (s span) seconds() float64 { return (s.end - s.start).Seconds() }

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	n     int
	total float64 // seconds inside the spans
	self  float64 // total minus the part child spans cover
}

// totals sums spans by name.  Self time is a span's duration minus its
// children's, so over a pass the self times add up to the root span.
func (t *tracer) totals() map[string]*spanTotal {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.seconds()
		}
	}
	out := map[string]*spanTotal{}
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanTotal{}
			out[s.name] = st
		}
		st.n++
		st.total += s.seconds()
		st.self += s.seconds() - child[i]
	}
	return out
}

// total returns the seconds spent inside spans of the given names.
func total(tot map[string]*spanTotal, names ...string) float64 {
	var s float64
	for _, n := range names {
		if st := tot[n]; st != nil {
			s += st.total
		}
	}
	return s
}

// selfSum adds up every span's self time.
func selfSum(tot map[string]*spanTotal) float64 {
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Strings(names) // float addition does not commute
	var s float64
	for _, n := range names {
		s += tot[n].self
	}
	return s
}

// writeChrome writes the spans as Chrome trace JSON (chrome://tracing,
// Perfetto): one track, microsecond timestamps, job id and parent in
// args.
func (t *tracer) writeChrome(dir, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"job": s.job, "parent": s.parent, "id": i},
		}
		if s.label != "" {
			events[i].Args["label"] = s.label
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), b, 0o644)
}
