// Package flight implements the simulator's flight recorder: one
// fixed-size ring buffer of compact binary event records per event
// domain, written lock-free by the engine goroutine and drained
// post-mortem into text, JSON or Chrome-trace form.
//
// The recorder follows the instrumentation discipline of
// internal/telemetry: the simulator holds *Ring pointers that are nil
// unless Chip.EnableFlight armed the recorder, every hot-path write
// goes through the nil-receiver-safe Add, and a disabled recorder
// therefore costs exactly one nil check per record site.
//
// Concurrency contract: a ring has a single writer — the engine
// goroutine running the chip's event loop.  Dumps are taken on that
// same goroutine (a sampler notify hook, post-run, post-panic), so no
// atomics are needed on the write path.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Kind enumerates the record types a ring can hold.
type Kind uint8

const (
	// Per-block pipeline milestones, recorded by the owning processor.
	KFetch    Kind = iota // A=block address, B=block sequence number
	KDispatch             // A=block sequence number, B=dispatch latency
	KIssue                // first instruction issue of a block; A=seq
	KCommit               // A=block sequence number, B=fetch-to-commit latency
	KFlush                // A=block sequence number, B=restart address

	// Scheduler milestones, recorded by the domain/engine.  Nothing
	// emits KBarrierArrive, KSharedEnter or KSharedExit any more; they
	// keep their numeric slots so existing dumps still parse.
	KWindowOpen     // A=window limit cycle
	KWindowClose    // A=window limit cycle, B=events executed in window
	KBarrierArrive  // A=window limit cycle
	KBarrierRelease // A=boundary cycle, B=end-of-window slack cycles
	KSharedEnter    // shared L2/DRAM section granted; A=grant ordinal
	KSharedExit     // shared section released; A=grant ordinal
	KInval          // deferred cross-domain inval delivered; A=address, B=defer sequence
	KCompose        // processor adopted (A=proc id, B=cores) or domains merged (A=survivor, B=absorbed)
	KStall          // watchdog fired; A=window limit cycle, B=events executed

	numKinds
)

var kindNames = [numKinds]string{
	"fetch", "dispatch", "issue", "commit", "flush",
	"window.open", "window.close", "barrier.arrive", "barrier.release",
	"shared.enter", "shared.exit", "inval", "compose", "stall",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Rec is one 32-byte flight record.  Cycle is the simulated cycle the
// record was written at; the meaning of A and B depends on Kind (see
// the Kind constants).  Proc and Core are -1 when the record is not
// attributable to a processor or core.
type Rec struct {
	Cycle uint64 `json:"cycle"`
	A     uint64 `json:"a"`
	B     uint64 `json:"b"`
	Kind  Kind   `json:"kind"`
	Dom   uint16 `json:"dom"`
	Proc  int16  `json:"proc"`
	Core  int16  `json:"core"`
}

// DefaultEvents is the per-ring record capacity used when the caller
// does not pick one (tflexsim -flight-events, tflex.RunConfig).
const DefaultEvents = 4096

// Ring is a fixed-capacity single-writer record ring.  Once full it
// overwrites the oldest records, so a dump always holds the most
// recent window of activity.
type Ring struct {
	dom  int
	mask uint64
	n    uint64 // records ever written; n & mask is the next slot
	rec  []Rec
}

// newRing returns a ring for domain dom holding size records (rounded
// up to a power of two, minimum 64).
func newRing(dom, size int) *Ring {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Ring{dom: dom, mask: uint64(n - 1), rec: make([]Rec, n)}
}

// Add appends one record.  Nil-receiver safe: on a disabled recorder
// the ring pointer is nil and the call is a single branch.
func (r *Ring) Add(k Kind, cycle uint64, proc, core int16, a, b uint64) {
	if r == nil {
		return
	}
	rc := &r.rec[r.n&r.mask]
	r.n++
	rc.Cycle, rc.A, rc.B = cycle, a, b
	rc.Kind, rc.Dom, rc.Proc, rc.Core = k, uint16(r.dom), proc, core
}

// Len reports how many records the ring currently holds.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	if r.n < uint64(len(r.rec)) {
		return int(r.n)
	}
	return len(r.rec)
}

// Written reports how many records were ever written (>= Len when the
// ring has wrapped).
func (r *Ring) Written() uint64 {
	if r == nil {
		return 0
	}
	return r.n
}

// snapshot copies the ring's live records in write order.
func (r *Ring) snapshot() RingDump {
	d := RingDump{Dom: r.dom, Written: r.n}
	n := uint64(len(r.rec))
	start := uint64(0)
	if r.n > n {
		start = r.n - n
	}
	d.Recs = make([]Rec, 0, r.n-start)
	for i := start; i < r.n; i++ {
		d.Recs = append(d.Recs, r.rec[i&r.mask])
	}
	return d
}

// Recorder owns one ring per event domain.  Rings are created at
// domain creation (a quiescent composition point); the mutex guards
// only the ring list, never the per-ring write path.
type Recorder struct {
	mu    sync.Mutex
	size  int
	rings []*Ring
}

// NewRecorder returns a recorder whose rings hold size records each
// (<= 0 selects DefaultEvents).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultEvents
	}
	return &Recorder{size: size}
}

// NewRing allocates and registers the ring for domain dom.
func (c *Recorder) NewRing(dom int) *Ring {
	r := newRing(dom, c.size)
	c.mu.Lock()
	c.rings = append(c.rings, r)
	c.mu.Unlock()
	return r
}

// Events reports the per-ring record capacity.
func (c *Recorder) Events() int { return c.size }

// Dump snapshots every ring (including rings of domains that have
// since been merged away).  Call only from a quiescent point.
func (c *Recorder) Dump() *Dump {
	c.mu.Lock()
	rings := append([]*Ring(nil), c.rings...)
	c.mu.Unlock()
	d := &Dump{Events: c.size}
	for _, r := range rings {
		d.Rings = append(d.Rings, r.snapshot())
	}
	sort.Slice(d.Rings, func(i, j int) bool { return d.Rings[i].Dom < d.Rings[j].Dom })
	return d
}

// RingDump is the drained form of one ring.
type RingDump struct {
	Dom     int    `json:"dom"`
	Written uint64 `json:"written"` // > len(Recs) means the ring wrapped
	Recs    []Rec  `json:"records"`
}

// Dump is a point-in-time snapshot of every ring, serializable to
// JSON (WriteJSON/ParseDump), human-readable text (WriteText) and the
// Chrome trace-event format (WriteChrome).
type Dump struct {
	Events int        `json:"events"`
	Rings  []RingDump `json:"rings"`
}

// WriteJSON serializes the dump as indented JSON, the on-disk form
// written by tflexsim -flight and parsed back by ParseDump.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ParseDump reads a dump previously written by WriteJSON and
// validates its record kinds.
func ParseDump(r io.Reader) (*Dump, error) {
	var d Dump
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("flight dump: %w", err)
	}
	for _, ring := range d.Rings {
		if uint64(len(ring.Recs)) > ring.Written {
			return nil, fmt.Errorf("flight dump: ring %d holds %d records but claims only %d written",
				ring.Dom, len(ring.Recs), ring.Written)
		}
		for _, rc := range ring.Recs {
			if rc.Kind >= numKinds {
				return nil, fmt.Errorf("flight dump: ring %d has unknown record kind %d", ring.Dom, rc.Kind)
			}
		}
	}
	return &d, nil
}

// WriteText renders the dump as one line per record.
func (d *Dump) WriteText(w io.Writer) error {
	for _, ring := range d.Rings {
		if _, err := fmt.Fprintf(w, "ring dom=%d records=%d written=%d\n",
			ring.Dom, len(ring.Recs), ring.Written); err != nil {
			return err
		}
		for _, rc := range ring.Recs {
			if _, err := fmt.Fprintf(w, "  @%-10d %-15s dom=%d proc=%d core=%d a=%#x b=%d\n",
				rc.Cycle, rc.Kind, rc.Dom, rc.Proc, rc.Core, rc.A, rc.B); err != nil {
				return err
			}
		}
	}
	return nil
}

// chromeEvent mirrors the Chrome trace-event JSON shape.
type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    uint64            `json:"ts"`
	Dur   uint64            `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]uint64 `json:"args,omitempty"`
}

// WriteChrome renders the dump in the Chrome trace-event format (load
// in chrome://tracing or ui.perfetto.dev): one process track per
// domain, window open/close pairs as duration spans, every other
// record as a thread-scoped instant event on the core's track.
func (d *Dump) WriteChrome(w io.Writer) error {
	var evs []chromeEvent
	for _, ring := range d.Rings {
		var open *Rec
		for i := range ring.Recs {
			rc := &ring.Recs[i]
			switch rc.Kind {
			case KWindowOpen:
				open = rc
			case KWindowClose:
				if open != nil {
					evs = append(evs, chromeEvent{
						Name: "window", Phase: "X", TS: open.Cycle,
						Dur: rc.Cycle - open.Cycle + 1, PID: ring.Dom, TID: -1,
						Args: map[string]uint64{"limit": rc.A, "events": rc.B},
					})
					open = nil
				}
			default:
				evs = append(evs, chromeEvent{
					Name: rc.Kind.String(), Phase: "i", TS: rc.Cycle,
					PID: ring.Dom, TID: int(rc.Core), Scope: "t",
					Args: map[string]uint64{"a": rc.A, "b": rc.B},
				})
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].PID < evs[j].PID
	})
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{evs})
}

// Records returns every record of the given kinds (all kinds when
// none are named) across all rings, in per-ring write order.
func (d *Dump) Records(kinds ...Kind) []Rec {
	want := func(Kind) bool { return true }
	if len(kinds) > 0 {
		set := map[Kind]bool{}
		for _, k := range kinds {
			set[k] = true
		}
		want = func(k Kind) bool { return set[k] }
	}
	var out []Rec
	for _, ring := range d.Rings {
		for _, rc := range ring.Recs {
			if want(rc.Kind) {
				out = append(out, rc)
			}
		}
	}
	return out
}

// DomainStats is the live per-domain scheduler snapshot served by the
// obs server's /domains endpoint and aggregated by tflexexp's
// domain summary line.  All counters are derived from the merged
// event order, so they are deterministic.
type DomainStats struct {
	Dom     int    `json:"dom"`
	Procs   int    `json:"procs"`
	Cores   int    `json:"cores"`
	Now     uint64 `json:"now"`
	Windows uint64 `json:"windows"`
	Events  uint64 `json:"events"`
	// BarrierWait accumulates each window's end-of-window slack: how
	// many cycles of the window the domain spent idle after its last
	// event, clamped to the window width.
	BarrierWait uint64 `json:"barrier_wait_cycles"`
	// SharedGrants and SharedWait are always zero: the arbiter that
	// counted them is gone.  The fields remain only because the frozen
	// benchmark (cmd/clpbench) still reads them; the next benchmark PR
	// may drop them.
	SharedGrants uint64 `json:"shared_grants"`
	SharedWait   uint64 `json:"shared_wait"`
	Invals       uint64 `json:"invals_delivered"`
	InboxDepth   int    `json:"inbox_depth"`
	RingRecords  uint64 `json:"ring_records"`
}
