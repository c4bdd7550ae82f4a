// Package sim implements the cycle-level TFlex CLP simulator: composed
// logical processors built from dual-issue cores, with fully distributed
// fetch, next-block prediction, execution, memory disambiguation and
// commit protocols (paper §4), over the mesh networks, caches, LSQ banks,
// S-NUCA L2 and DRAM substrates.
//
// The simulator is event-driven and deterministic: every message, issue
// slot and bank port is booked on a reservation timeline, and all events
// execute in (cycle, insertion-order) order.  Architectural values are
// computed during simulation with the same ALU evaluation as the
// functional executor, so a simulated run finishes with bit-identical
// registers and memory to exec.Machine — the end-to-end correctness
// property the test suite enforces across every composition.
package sim

import (
	"github.com/clp-sim/tflex/internal/compose"
)

// Options configure a chip.
type Options struct {
	Params compose.CoreParams

	// ZeroHandshake makes every distributed control handshake (fetch
	// hand-off and distribution, completion and commit messages)
	// instantaneous — the paper's §6.4 overhead ablation.  The operand
	// network is unaffected.
	ZeroHandshake bool

	// CentralPredictor forces all block ownership (prediction, tags,
	// completion bookkeeping) onto participating core 0, modeling the
	// TRIPS centralized next-block predictor.
	CentralPredictor bool

	// DBanks/RegBanks optionally restrict which participating-core
	// indices carry D-cache/LSQ banks and register-file banks (TRIPS has
	// 4 of each at fixed tiles; TFlex uses all cores).  Empty = all.
	DBanks   []int
	RegBanks []int

	// ParallelDomains is accepted and has no effect: a chip has one
	// event queue, drained on the caller's goroutine.  The field remains
	// only because the frozen benchmark (cmd/clpbench) still assigns it;
	// the benchmark PR (ROADMAP item 1a) drops it.
	ParallelDomains int

	// Reference selects the oracle engine the differential tests compare
	// against: a plain binary heap of events replaces the calendar queue
	// and in-flight blocks are never recycled.  Everything else — the
	// event loop, the linked block form — is shared, and simulated results
	// are identical either way.
	Reference bool
}

// DefaultOptions returns the TFlex configuration of Table 1.
func DefaultOptions() Options {
	return Options{Params: compose.DefaultCoreParams()}
}

// Latency of one opcode class.
func (o *Options) opLatency(fp, mul, div bool) uint64 {
	p := &o.Params
	switch {
	case div && fp:
		return uint64(p.FDivLat)
	case div:
		return uint64(p.DivLat)
	case mul:
		return uint64(p.MulLat)
	case fp:
		return uint64(p.FPLat)
	default:
		return uint64(p.IntLat)
	}
}
