// Package arch defines the unified architectural-state contract shared
// by every executor in the simulator: the functional interpreter
// (internal/exec), the optimized and reference timing engines
// (internal/sim), and the conventional-superscalar model's linearized
// trace (internal/conv).  The paper's correctness story rests on every
// composition executing identical EDGE semantics; this package is where
// "identical" is defined.
//
// State captures exactly the observables that must agree across
// executors — final registers, a digest of the memory image, the
// retired-block count, and a digest of the committed store stream —
// and Executor is the single entry point the differential fuzzer
// drives.  Anything not in State (cycle counts, cache misses, block
// pipeline timings) is a performance property and is allowed to differ.
package arch

import (
	"fmt"
	"strings"

	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// Input is the initial architectural state and run bounds for one
// execution.  The zero value is a valid empty input with default bounds.
type Input struct {
	// Regs seeds the architectural register file.
	Regs [isa.NumRegs]uint64
	// Mem, if non-empty, is copied into memory at MemBase before the run.
	MemBase uint64
	Mem     []byte
	// MaxBlocks bounds functional/trace execution (0: DefaultMaxBlocks).
	MaxBlocks uint64
	// MaxCycles bounds timing simulation (0: DefaultMaxCycles).
	MaxCycles uint64
}

// Default run bounds.  Generated fuzz programs are small and terminate
// within thousands of blocks; these defaults exist so a generator bug
// (or an executor bug that livelocks) fails fast instead of hanging.
const (
	DefaultMaxBlocks uint64 = 1 << 20
	DefaultMaxCycles uint64 = 1 << 26
)

func (in *Input) maxBlocks() uint64 {
	if in.MaxBlocks > 0 {
		return in.MaxBlocks
	}
	return DefaultMaxBlocks
}

func (in *Input) maxCycles() uint64 {
	if in.MaxCycles > 0 {
		return in.MaxCycles
	}
	return DefaultMaxCycles
}

// State is the architectural result of one execution: the complete set
// of observables that every executor must agree on, bit for bit.
type State struct {
	// Regs is the final architectural register file.
	Regs [isa.NumRegs]uint64
	// MemDigest hashes the final memory image (exec.PageMem.Digest):
	// page numbers in ascending order plus contents, zero pages skipped.
	MemDigest uint64
	// Blocks is the number of architecturally retired blocks, including
	// the halting block.
	Blocks uint64
	// Stores is the number of architecturally committed stores.
	Stores uint64
	// StoreDigest hashes the committed store stream in commit order
	// (block retirement order, LSID order within a block): each store's
	// (addr, size, val) tuple.  Two executors can reach the same final
	// memory image through different store sequences; this digest
	// catches that class of divergence.
	StoreDigest uint64
}

// Executor runs an EDGE program to completion and reports final
// architectural state.  Implementations must be deterministic: the same
// (program, input) pair always yields the same State.
type Executor interface {
	// Name identifies the executor in divergence reports ("functional",
	// "sim-opt-4", "conv-trace", ...).
	Name() string
	// Run executes the program from the given initial state.  A non-nil
	// error means the program failed to complete (deadlock, block-count
	// or cycle bound exceeded, invalid branch target) — the differential
	// harness treats error/no-error disagreement as a divergence too.
	Run(p *prog.Program, in Input) (State, error)
}

// Equal reports whether two states agree on every observable.
func (s State) Equal(o State) bool { return s == o }

// Diff renders a human-readable summary of how two states differ, or ""
// when they are equal.  Register differences list the first few
// mismatching registers; digest differences are reported as opaque
// hashes (replay the seed with tflexsim -fuzz-seed for the full dump).
func (s State) Diff(o State) string {
	if s == o {
		return ""
	}
	var b strings.Builder
	if s.Blocks != o.Blocks {
		fmt.Fprintf(&b, "blocks %d vs %d; ", s.Blocks, o.Blocks)
	}
	if s.Stores != o.Stores {
		fmt.Fprintf(&b, "stores %d vs %d; ", s.Stores, o.Stores)
	}
	if s.StoreDigest != o.StoreDigest {
		fmt.Fprintf(&b, "store digest %#x vs %#x; ", s.StoreDigest, o.StoreDigest)
	}
	if s.MemDigest != o.MemDigest {
		fmt.Fprintf(&b, "mem digest %#x vs %#x; ", s.MemDigest, o.MemDigest)
	}
	shown := 0
	for r := 0; r < isa.NumRegs; r++ {
		if s.Regs[r] == o.Regs[r] {
			continue
		}
		if shown == 4 {
			b.WriteString("more registers differ; ")
			break
		}
		fmt.Fprintf(&b, "r%d %#x vs %#x; ", r, s.Regs[r], o.Regs[r])
		shown++
	}
	return strings.TrimSuffix(b.String(), "; ")
}

// FNV-1a's offset basis and prime.  The store digest folds the stream a
// byte at a time; PageMem.Digest folds memory with the same constants a
// word at a time, with a xorshift after each multiply, because it hashes
// whole pages for every run.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// StoreHasher folds a commit-ordered store stream into (count, digest).
// Executor adapters feed it from their store-observation hooks.
type StoreHasher struct {
	n uint64
	h uint64
}

// NewStoreHasher returns a hasher over the empty stream.
func NewStoreHasher() *StoreHasher { return &StoreHasher{h: fnvOffset64} }

// Observe folds one committed store into the digest.  The signature
// matches exec.Machine.OnStore and sim.Proc.TraceStores.
func (sh *StoreHasher) Observe(addr uint64, size uint8, val uint64) {
	sh.n++
	h := sh.h
	for i := 0; i < 8; i++ {
		h = (h ^ (addr & 0xff)) * fnvPrime64
		addr >>= 8
	}
	h = (h ^ uint64(size)) * fnvPrime64
	for i := 0; i < 8; i++ {
		h = (h ^ (val & 0xff)) * fnvPrime64
		val >>= 8
	}
	sh.h = h
}

// Count reports how many stores were observed.
func (sh *StoreHasher) Count() uint64 { return sh.n }

// Digest reports the stream digest (the FNV offset basis when empty).
func (sh *StoreHasher) Digest() uint64 { return sh.h }
