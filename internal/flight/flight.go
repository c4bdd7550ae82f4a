// Package flight implements the simulator's flight recorder: one
// fixed-size ring buffer of compact binary event records per chip,
// written by the engine goroutine and drained post-mortem into text or
// JSON form.
//
// The recorder follows the instrumentation discipline of
// internal/telemetry: the chip holds a *Ring that is nil unless
// Chip.EnableFlight armed the recorder, every hot-path write goes
// through the nil-receiver-safe Add, and a disabled recorder therefore
// costs exactly one nil check per record site.
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

	// Engine milestones, recorded by the chip.
	KCompose // processor composed; A=proc id, B=cores
	KStall   // watchdog fired; A=events executed without the clock advancing

	numKinds
)

var kindNames = [numKinds]string{
	"fetch", "dispatch", "issue", "commit", "flush", "compose", "stall",
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
	Proc  int16  `json:"proc"`
	Core  int16  `json:"core"`
}

// DefaultEvents is the ring's record capacity when the caller does not
// pick one (tflexsim -flight-events, tflex.RunConfig).
const DefaultEvents = 4096

// MaxEvents is the largest ring: 1<<20 records, 32 MiB.  NewRing clamps
// a larger size to it, and tflexsim rejects a larger -flight-events.
const MaxEvents = 1 << 20

// Ring is a fixed-capacity single-writer record ring.  Once full it
// overwrites the oldest records, so a dump always holds the most
// recent window of activity.
type Ring struct {
	mask uint64 // len(rec) - 1
	n    uint64 // records ever written; n & mask is the next slot
	rec  []Rec
}

// NewRing returns a ring holding size records (<= 0 selects
// DefaultEvents, above MaxEvents selects MaxEvents), rounded up to a
// power of two, minimum 64.
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultEvents
	}
	size = min(size, MaxEvents)
	n := 64
	for n < size {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), rec: make([]Rec, n)}
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
	rc.Kind, rc.Proc, rc.Core = k, proc, core
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

// Dump snapshots the ring's live records in write order.  Call only
// from the goroutine that writes the ring.
func (r *Ring) Dump() *Dump {
	d := RingDump{Written: r.n}
	n := uint64(len(r.rec))
	start := uint64(0)
	if r.n > n {
		start = r.n - n
	}
	d.Recs = make([]Rec, 0, r.n-start)
	for i := start; i < r.n; i++ {
		d.Recs = append(d.Recs, r.rec[i&r.mask])
	}
	return &Dump{Events: len(r.rec), Rings: []RingDump{d}}
}

// RingDump is the drained form of one ring.
type RingDump struct {
	Written uint64 `json:"written"` // > len(Recs) means the ring wrapped
	Recs    []Rec  `json:"records"`
}

// Dump is a point-in-time snapshot of a chip's ring, serializable to
// JSON (WriteJSON/ParseDump) and human-readable text (WriteText).
// Rings holds one element: a chip has one ring.
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
	for i, ring := range d.Rings {
		if uint64(len(ring.Recs)) > ring.Written {
			return nil, fmt.Errorf("flight dump: ring %d holds %d records but claims only %d written",
				i, len(ring.Recs), ring.Written)
		}
		for _, rc := range ring.Recs {
			if rc.Kind >= numKinds {
				return nil, fmt.Errorf("flight dump: ring %d has unknown record kind %d", i, rc.Kind)
			}
		}
	}
	return &d, nil
}

// WriteText renders the dump as one line per record.
func (d *Dump) WriteText(w io.Writer) error {
	for _, ring := range d.Rings {
		if _, err := fmt.Fprintf(w, "ring records=%d written=%d\n",
			len(ring.Recs), ring.Written); err != nil {
			return err
		}
		for _, rc := range ring.Recs {
			if _, err := fmt.Fprintf(w, "  @%-10d %-9s proc=%d core=%d a=%#x b=%d\n",
				rc.Cycle, rc.Kind, rc.Proc, rc.Core, rc.A, rc.B); err != nil {
				return err
			}
		}
	}
	return nil
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

// DomainStats is what is left of the per-domain scheduler snapshot now
// that a chip has one event queue: sim.Chip.DomainStats returns exactly
// one.  The type and the always-zero fields remain only because the
// frozen benchmark (cmd/clpbench) still reads them; the benchmark PR
// (ROADMAP item 1a) drops them.
type DomainStats struct {
	Events      uint64 // events the chip's loop executed
	RingRecords uint64 // flight records ever written; 0 with the recorder off

	// Always zero: lockstep windows, barriers, the shared-section
	// arbiter and deferred-invalidation inboxes are gone.
	Windows      uint64
	BarrierWait  uint64
	SharedGrants uint64
	SharedWait   uint64
	Invals       uint64
	InboxDepth   int
}
