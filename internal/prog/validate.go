package prog

import (
	"errors"
	"fmt"
)

// Validate checks every architectural and structural constraint on a
// program: per-block ISA limits (instruction count, read/write/store
// caps, duplicate store IDs, target fields within the block) plus the
// program-level invariants no single block can see — a defined entry
// block, unique block names, and branch labels that resolve to blocks
// of this program.  It is the hardened front door for generated code:
// the builder calls it on every sealed program, and external producers
// (the assembler, the fuzzer's program generator, a future compiler
// back end) get precise per-block errors instead of a mid-simulation
// panic.
//
// Validate aggregates every finding via errors.Join rather than
// stopping at the first, so a generator can see all violations of one
// candidate at once.
func Validate(p *Program) error {
	var errs []error
	names := make(map[string]bool, len(p.Blocks))
	for _, b := range p.Blocks {
		if names[b.Name] {
			errs = append(errs, fmt.Errorf("prog: duplicate block name %q", b.Name))
		}
		names[b.Name] = true
	}
	if p.Entry == "" {
		errs = append(errs, fmt.Errorf("prog: no entry block"))
	} else if !names[p.Entry] {
		errs = append(errs, fmt.Errorf("prog: entry block %q not defined", p.Entry))
	}
	for _, b := range p.Blocks {
		// Dangling control flow: every direct branch label must name a
		// block of this program.
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.BranchTo == "" {
				continue
			}
			if !names[in.BranchTo] {
				errs = append(errs, fmt.Errorf("prog: block %s references undefined label %q", b.Name, in.BranchTo))
			}
		}
		// Block-local ISA constraints (caps, LSIDs, target fields).
		if err := b.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
