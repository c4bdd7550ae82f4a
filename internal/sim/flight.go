package sim

import (
	"io"

	"github.com/clp-sim/tflex/internal/flight"
)

// Flight recorder wiring (see internal/flight): the chip owns one ring,
// written at three sites — emitBlockEvent (commit, flush), launch
// (compose) and the watchdog (stall).  Everything here follows the
// telemetry disabled-cost contract — the ring pointer is nil until
// EnableFlight, and all reads (dumps, stats) happen on the goroutine
// running the event loop.

// EnableFlight arms the flight recorder with a ring holding events
// records (<= 0 selects flight.DefaultEvents): the ring the last reset
// kept, emptied, when it has that size, else a new one.  Idempotent;
// call before Run.
func (c *Chip) EnableFlight(events int) {
	if c.flight != nil {
		return
	}
	var kept *flight.Ring
	if c.kept != nil {
		kept, c.kept.ring = c.kept.ring, nil
	}
	c.flight = kept.Renew(events)
}

// SetFlightSink directs post-mortem text dumps at w: Chip.Run writes
// FlightDump there when the run panics (before re-panicking) or fails.
func (c *Chip) SetFlightSink(w io.Writer) { c.flightSink = w }

// FlightDump snapshots the ring and every block in flight: each running
// processor's window, oldest first, as the record its retirement would
// complete.  Returns nil when the recorder is disabled.  Call only from
// the goroutine running the chip: after Run returns, inside a sampler
// notify hook, or on Run's way out of a failure.
func (c *Chip) FlightDump() *flight.Dump {
	if c.flight == nil {
		return nil
	}
	d := c.flight.Dump()
	for _, p := range c.Procs {
		if p.halted {
			continue
		}
		for _, b := range p.window {
			d.InFlight = append(d.InFlight, flight.InFlight{BlockRecord: p.blockRecord(b), OutputsPending: b.outputsPending})
		}
	}
	return d
}

// DomainStats returns exactly one element: the chip's events executed
// and flight records written, every other field zero.  A chip has one
// event queue and no domains; the method remains only because the frozen
// benchmark (cmd/clpbench) still calls it, and the benchmark PR (ROADMAP
// item 1a) drops it.  Same calling contract as FlightDump.
func (c *Chip) DomainStats() []flight.DomainStats {
	return []flight.DomainStats{{Events: c.Events(), RingRecords: c.flight.Written()}}
}

// flightPostMortem writes a text dump to the flight sink, prefixed with
// why the run ended.  Best-effort: write errors are ignored, the dump is
// an aid on an already-failing path.
func (c *Chip) flightPostMortem(why string) {
	io.WriteString(c.flightSink, "flight recorder post-mortem ("+why+"):\n")
	c.FlightDump().WriteText(c.flightSink)
}
