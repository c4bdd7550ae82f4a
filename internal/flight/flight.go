// Package flight implements the simulator's flight recorder: one
// fixed-size ring of compact binary records per chip — one per retired
// block (commit or flush), processor composition and watchdog stall —
// and dumps that add the blocks still in flight, read from the live
// window as the telemetry.BlockRecord the Chrome trace renders.
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
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"github.com/clp-sim/tflex/internal/telemetry"
)

// Kind enumerates the record types a ring can hold.
type Kind uint8

const (
	// Block retirement, recorded by the owning processor: A=block
	// sequence number, B=block address, Core=owner core, Cycle=RetiredAt.
	KCommit Kind = iota
	KFlush

	// Engine milestones, recorded by the chip.
	KCompose // processor composed; A=proc id, B=cores
	KStall   // watchdog fired; A=events executed without the clock advancing

	numKinds
)

var kindNames = [numKinds]string{"commit", "flush", "compose", "stall"}

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
	n := ringLen(size)
	return &Ring{mask: uint64(n - 1), rec: make([]Rec, n)}
}

// Renew returns r emptied when it holds as many records as
// NewRing(size) would, and NewRing(size) otherwise (r nil included), so
// a chip that keeps its ring between jobs re-arms it without
// allocating.
func (r *Ring) Renew(size int) *Ring {
	if r == nil || len(r.rec) != ringLen(size) {
		return NewRing(size)
	}
	clear(r.rec)
	r.n = 0
	return r
}

// ringLen is the record count NewRing gives a ring asked for size.
func ringLen(size int) int {
	if size <= 0 {
		size = DefaultEvents
	}
	size = min(size, MaxEvents)
	n := 64
	for n < size {
		n <<= 1
	}
	return n
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

// Written reports how many records were ever written, more than the ring
// holds once it has wrapped.
func (r *Ring) Written() uint64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Dump snapshots the ring's live records in write order, with no
// in-flight half (the chip appends that).  Call only from the goroutine
// that writes the ring.
func (r *Ring) Dump() *Dump {
	start := r.n - min(r.n, uint64(len(r.rec)))
	d := &Dump{Events: len(r.rec), Written: r.n, Recs: make([]Rec, 0, r.n-start)}
	for i := start; i < r.n; i++ {
		d.Recs = append(d.Recs, r.rec[i&r.mask])
	}
	return d
}

// InFlight is one block still in a processor's window when the dump was
// taken: its lifetime so far, RetiredAt 0 (a CompleteAt or CommitStart
// of 0 means the block has not reached that phase), and the outputs it
// still waits for.
type InFlight struct {
	telemetry.BlockRecord
	OutputsPending int `json:"outputs_pending"`
}

// Dump is a point-in-time snapshot of a chip's flight recorder,
// serializable to JSON (WriteJSON/ParseDump) and human-readable text
// (WriteText): the ring's surviving records, oldest first, and every
// block in flight, per processor oldest first.
type Dump struct {
	Events   int        `json:"events"`  // ring capacity
	Written  uint64     `json:"written"` // > len(Recs) means the ring wrapped
	Recs     []Rec      `json:"records"`
	InFlight []InFlight `json:"in_flight"`
}

// WriteJSON serializes the dump as indented JSON, the on-disk form
// written by tflexsim -flight and parsed back by ParseDump.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ParseDump reads a dump previously written by WriteJSON.  It rejects
// unknown fields (a dump of another shape is an error, not an empty
// dump) and unknown record kinds.
func ParseDump(r io.Reader) (*Dump, error) {
	var d Dump
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("flight dump: %w", err)
	}
	if uint64(len(d.Recs)) > d.Written {
		return nil, fmt.Errorf("flight dump: holds %d records but claims only %d written", len(d.Recs), d.Written)
	}
	for _, rc := range d.Recs {
		if rc.Kind >= numKinds {
			return nil, fmt.Errorf("flight dump: unknown record kind %d", rc.Kind)
		}
	}
	return &d, nil
}

// WriteText renders the dump as one line per record, then one line per
// block in flight.
func (d *Dump) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w) // keeps the first write error, which Flush returns
	fmt.Fprintf(bw, "ring records=%d written=%d\n", len(d.Recs), d.Written)
	for _, rc := range d.Recs {
		fmt.Fprintf(bw, "  @%-10d %-9s proc=%d core=%d a=%d b=%#x\n", rc.Cycle, rc.Kind, rc.Proc, rc.Core, rc.A, rc.B)
	}
	fmt.Fprintf(bw, "in flight blocks=%d\n", len(d.InFlight))
	for _, b := range d.InFlight {
		fmt.Fprintf(bw, "  proc=%d seq=%d addr=%#x %q core=%d fetch@%d dispatched@%d complete@%d commit@%d pending=%d\n",
			b.Proc, b.Seq, b.Addr, b.Name, b.OwnerCore, b.FetchStart, b.DispatchDone, b.CompleteAt, b.CommitStart, b.OutputsPending)
	}
	return bw.Flush()
}

// Records returns the ring's records of one kind, in write order.
func (d *Dump) Records(k Kind) []Rec {
	var out []Rec
	for _, rc := range d.Recs {
		if rc.Kind == k {
			out = append(out, rc)
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
