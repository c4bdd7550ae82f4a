package sim

import (
	"io"

	"github.com/clp-sim/tflex/internal/flight"
)

// Flight recorder wiring (see internal/flight): the chip owns a
// Recorder whose rings are handed to domains at creation.  Everything
// here follows the telemetry disabled-cost contract — the recorder
// pointer is nil until EnableFlight, every hot-path write is a
// nil-receiver-safe flight.Ring.Add, and all reads (dumps, stats)
// happen on the goroutine running the event loop.

// EnableFlight arms the flight recorder with per-domain rings holding
// events records each (<= 0 selects flight.DefaultEvents).  Idempotent;
// call before Run.  Existing domains (and any formed later) get rings.
func (c *Chip) EnableFlight(events int) {
	if c.flightRec != nil {
		return
	}
	c.flightRec = flight.NewRecorder(events)
	for _, d := range c.domains {
		d.flight = c.flightRec.NewRing(d.id)
		for _, p := range d.procs {
			p.fr = d.flight
		}
	}
}

// FlightEnabled reports whether EnableFlight armed the recorder.
func (c *Chip) FlightEnabled() bool { return c.flightRec != nil }

// SetFlightSink directs post-mortem text dumps at w: Chip.Run writes
// every ring there when the run panics (before re-panicking) or fails.
func (c *Chip) SetFlightSink(w io.Writer) { c.flightSink = w }

// FlightDump snapshots every ring, including rings of domains merged
// away.  Returns nil when the recorder is disabled.  Call only from the
// goroutine running the chip: after Run returns, or inside a sampler
// notify hook.
func (c *Chip) FlightDump() *flight.Dump {
	if c.flightRec == nil {
		return nil
	}
	return c.flightRec.Dump()
}

// DomainStats snapshots every live domain's scheduler observability
// counters (always on — available with or without the flight
// recorder), in domain-ID order.  Same calling contract as FlightDump.
func (c *Chip) DomainStats() []flight.DomainStats {
	out := make([]flight.DomainStats, 0, len(c.domains))
	for _, d := range c.domains {
		out = append(out, d.stats())
	}
	return out
}

// flightPostMortem writes a text dump of every ring to the flight
// sink, prefixed with why the run ended.  Best-effort: write errors
// are ignored, the dump is an aid on an already-failing path.
func (c *Chip) flightPostMortem(why string) {
	if c.flightRec == nil || c.flightSink == nil {
		return
	}
	io.WriteString(c.flightSink, "flight recorder post-mortem ("+why+"):\n")
	dump := c.flightRec.Dump()
	dump.WriteText(c.flightSink)
}
