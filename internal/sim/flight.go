package sim

import (
	"io"

	"github.com/clp-sim/tflex/internal/flight"
)

// Flight recorder wiring (see internal/flight): the chip owns one ring.
// Everything here follows the telemetry disabled-cost contract — the
// ring pointer is nil until EnableFlight, every hot-path write is a
// nil-receiver-safe flight.Ring.Add, and all reads (dumps, stats)
// happen on the goroutine running the event loop.

// EnableFlight arms the flight recorder with a ring holding events
// records (<= 0 selects flight.DefaultEvents).  Idempotent; call before
// Run.
func (c *Chip) EnableFlight(events int) {
	if c.flight == nil {
		c.flight = flight.NewRing(events)
	}
}

// FlightEnabled reports whether EnableFlight armed the recorder.
func (c *Chip) FlightEnabled() bool { return c.flight != nil }

// SetFlightSink directs post-mortem text dumps at w: Chip.Run writes
// the ring there when the run panics (before re-panicking) or fails.
func (c *Chip) SetFlightSink(w io.Writer) { c.flightSink = w }

// FlightDump snapshots the ring.  Returns nil when the recorder is
// disabled.  Call only from the goroutine running the chip: after Run
// returns, or inside a sampler notify hook.
func (c *Chip) FlightDump() *flight.Dump {
	if c.flight == nil {
		return nil
	}
	return c.flight.Dump()
}

// DomainStats returns exactly one element: the chip's events executed
// and flight records written, every other field zero.  A chip has one
// event queue and no domains; the method remains only because the frozen
// benchmark (cmd/clpbench) still calls it, and the benchmark PR (ROADMAP
// item 1a) drops it.  Same calling contract as FlightDump.
func (c *Chip) DomainStats() []flight.DomainStats {
	return []flight.DomainStats{{Events: c.events, RingRecords: c.flight.Written()}}
}

// flightPostMortem writes a text dump of the ring to the flight sink,
// prefixed with why the run ended.  Best-effort: write errors
// are ignored, the dump is an aid on an already-failing path.
func (c *Chip) flightPostMortem(why string) {
	if c.flight == nil || c.flightSink == nil {
		return
	}
	io.WriteString(c.flightSink, "flight recorder post-mortem ("+why+"):\n")
	c.flight.Dump().WriteText(c.flightSink)
}
