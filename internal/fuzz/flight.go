package fuzz

import (
	"fmt"
	"os"

	"github.com/clp-sim/tflex/internal/arch"
	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/sim"
)

// FlightReplay re-runs the program on a pooled chip with the flight
// recorder armed and returns its dump — the last `events` records
// leading up to the divergence (or the end of the run) and the blocks
// still in flight.  A failed run is not an error here: the dump is the
// point, and a reproducer that errors mid-run still leaves its final
// cycles in the ring and its stuck blocks in the window.
func FlightReplay(p *prog.Program, in arch.Input, cores, events int) (*flight.Dump, error) {
	comp, err := compose.Rect(0, 0, cores)
	if err != nil {
		return nil, err
	}
	chip := sim.Acquire(sim.DefaultOptions())
	defer sim.Release(chip) // the dump is a copy
	chip.EnableFlight(events)
	proc, err := chip.AddProc(comp, p)
	if err != nil {
		return nil, err
	}
	proc.Regs = in.Regs
	if len(in.Mem) > 0 {
		proc.Mem.WriteBytes(in.MemBase, in.Mem)
	}
	mc := in.MaxCycles
	if mc == 0 {
		mc = arch.DefaultMaxCycles
	}
	chip.Run(mc) //nolint:errcheck // a diverging run may legitimately fail; the ring is what we came for
	return chip.FlightDump(), nil
}

// writeFlightSidecar replays the divergence on the diverging
// composition and writes the flight dump as JSON next to the .tfa
// reproducer.
func writeFlightSidecar(tfaPath string, d *Divergence) error {
	p, err := d.Spec.Build()
	if err != nil {
		return fmt.Errorf("flight sidecar: rebuild spec: %w", err)
	}
	dump, err := FlightReplay(p, d.Spec.Input(), d.Cores, 0)
	if err != nil {
		return fmt.Errorf("flight sidecar: replay: %w", err)
	}
	f, err := os.Create(tfaPath + ".flight.json")
	if err != nil {
		return fmt.Errorf("flight sidecar: %w", err)
	}
	defer f.Close()
	if err := dump.WriteJSON(f); err != nil {
		return fmt.Errorf("flight sidecar: %w", err)
	}
	return nil
}
