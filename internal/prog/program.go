// Package prog provides the program container and a builder API for
// constructing EDGE block programs.  The builder plays the role of the
// TRIPS compiler back end: callers describe dataflow with SSA-style value
// references and the builder assigns instruction IDs, load/store IDs,
// predicate routing and explicit target fields, inserting MOV fan-out trees
// when a value has more than two consumers.
package prog

import (
	"fmt"

	"github.com/clp-sim/tflex/internal/isa"
)

// CodeBase is the virtual address of the first block.  Blocks are laid out
// contiguously in isa.BlockBytes chunks, so the "next sequential block"
// used by call return-address prediction is Addr+isa.BlockBytes.
const CodeBase uint64 = 0x0001_0000

// Program is a laid-out collection of blocks.
type Program struct {
	Blocks []*isa.Block
	Entry  string

	byName map[string]*isa.Block
	linked []Linked // by block index, built by layout
}

// Lookup returns the block with the given name, or nil.
func (p *Program) Lookup(name string) *isa.Block { return p.byName[name] }

// BlockIndex returns the dense index of the block at addr, or -1 if addr
// is not a laid-out block address.  Layout places blocks contiguously from
// CodeBase, so the lookup is a bounds check and a division — this sits on
// the simulator's per-fetch hot path.
func (p *Program) BlockIndex(addr uint64) int {
	if addr < CodeBase {
		return -1
	}
	off := addr - CodeBase
	if off%uint64(isa.BlockBytes) != 0 {
		return -1
	}
	i := off / uint64(isa.BlockBytes)
	if i >= uint64(len(p.Blocks)) || p.Blocks[i].Addr != addr {
		return -1
	}
	return int(i)
}

// NumBlocks returns the number of laid-out blocks.
func (p *Program) NumBlocks() int { return len(p.Blocks) }

// EntryBlock returns the entry block.
func (p *Program) EntryBlock() *isa.Block { return p.byName[p.Entry] }

// AddrOf returns the laid-out address of a labeled block.
func (p *Program) AddrOf(name string) (uint64, bool) {
	b, ok := p.byName[name]
	if !ok {
		return 0, false
	}
	return b.Addr, true
}

// layout assigns addresses, validates the whole program through Validate,
// resolves branch labels and label constants, and links every block.  It
// is the only function that finishes a program.
func (p *Program) layout() error {
	p.byName = make(map[string]*isa.Block, len(p.Blocks))
	for i, b := range p.Blocks {
		if _, dup := p.byName[b.Name]; dup {
			return fmt.Errorf("prog: duplicate block name %q", b.Name)
		}
		b.Addr = CodeBase + uint64(i)*uint64(isa.BlockBytes)
		p.byName[b.Name] = b
	}
	if err := Validate(p); err != nil {
		return err
	}
	for _, b := range p.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.BranchTo == "" {
				continue
			}
			tgt := p.byName[in.BranchTo] // resolvable: Validate checked labels
			in.TargetAddr = tgt.Addr
			if in.Op == isa.OpGenC {
				// Label constant: materialize the target address.
				in.Imm = int64(tgt.Addr)
			}
		}
	}
	p.linked = make([]Linked, len(p.Blocks))
	for i, b := range p.Blocks {
		p.linked[i] = link(b, i)
	}
	return nil
}

// Stats summarizes static program properties (used in reports and tests).
type Stats struct {
	Blocks       int
	Insts        int
	Movs         int // fan-out overhead instructions
	MemOps       int
	Branches     int
	MaxBlockSize int
	AvgBlockSize float64
}

// StaticStats computes static code statistics.
func (p *Program) StaticStats() Stats {
	var s Stats
	s.Blocks = len(p.Blocks)
	for _, b := range p.Blocks {
		n := 0
		for i := range b.Insts {
			switch b.Insts[i].Op {
			case isa.OpNop:
				continue // unused slot
			case isa.OpMov:
				s.Movs++
			case isa.OpLoad, isa.OpStore:
				s.MemOps++
			}
			if b.Insts[i].Op.IsBranch() {
				s.Branches++
			}
			n++
		}
		s.Insts += n
		if n > s.MaxBlockSize {
			s.MaxBlockSize = n
		}
	}
	if s.Blocks > 0 {
		s.AvgBlockSize = float64(s.Insts) / float64(s.Blocks)
	}
	return s
}
