package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Trace collects Chrome trace-event records — the JSON format loaded by
// chrome://tracing and Perfetto.  The simulator maps one simulated cycle
// to one microsecond of trace time, so cycle counts read directly off
// the viewer's time axis; the experiment runner uses real microseconds
// for its job spans.
//
// A Trace is safe for concurrent use: runner workers append job spans
// from many goroutines.  The zero value is ready to use, and all methods
// are nil-safe so a disabled trace costs one nil check at each call
// site.
type Trace struct {
	mu     sync.Mutex
	events []chromeEvent
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Span records a complete ("ph":"X") event covering [start, end] ticks
// on the (pid, tid) track.  Spans with end <= start are clamped to a
// one-tick minimum: trace viewers drop or render zero-duration complete
// events invisibly, and legitimate same-cycle phases (a block whose
// FetchStart equals its CommitStart after a flush) would silently
// vanish from the timeline.  Safe on nil.
func (t *Trace) Span(pid, tid int, name, cat string, start, end uint64, args map[string]any) {
	if t == nil {
		return
	}
	dur := uint64(1)
	if end > start {
		dur = end - start
	}
	t.mu.Lock()
	t.events = append(t.events, chromeEvent{
		Name: name, Cat: cat, Ph: "X", TS: start, Dur: dur,
		PID: pid, TID: tid, Args: args,
	})
	t.mu.Unlock()
}

// Instant records a point-in-time ("ph":"i") event.  Safe on nil.
func (t *Trace) Instant(pid, tid int, name, cat string, at uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, chromeEvent{
		Name: name, Cat: cat, Ph: "i", TS: at, PID: pid, TID: tid,
		Args: map[string]any{"s": "t"},
	})
	t.mu.Unlock()
}

// NameProcess labels a pid track group in the viewer.  Safe on nil.
func (t *Trace) NameProcess(pid int, name string) {
	t.metadata("process_name", pid, 0, name)
}

// NameThread labels one (pid, tid) track in the viewer.  Safe on nil.
func (t *Trace) NameThread(pid, tid int, name string) {
	t.metadata("thread_name", pid, tid, name)
}

func (t *Trace) metadata(kind string, pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, chromeEvent{
		Name: kind, Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name},
	})
	t.mu.Unlock()
}

// Len returns the number of recorded events (metadata included).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON emits the trace as {"traceEvents":[...]} — the JSON Object
// Format accepted by chrome://tracing and Perfetto.  Events are emitted
// in (ts, pid, tid, name) order rather than append order: concurrent
// recorders (runner workers) interleave their appends
// nondeterministically, and sorting keeps the file byte-stable across
// runs of the same simulation.
func (t *Trace) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := make([]chromeEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
