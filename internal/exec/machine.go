package exec

import (
	"fmt"

	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// Machine runs a program architecturally (no timing): the reference
// semantics every timing simulation must match.
type Machine struct {
	Prog *prog.Program
	Mem  Mem
	Regs [isa.NumRegs]uint64

	// Trace, if non-nil, accumulates the linearized dynamic instruction
	// stream for the conventional-superscalar model.
	Trace *Trace

	// OnStore, if non-nil, observes every committed store in commit order
	// (block retirement order, LSID order within a block).  The harness
	// layers a store-set digest on top without the machine knowing.
	OnStore func(addr uint64, size uint8, val uint64)

	regSrc [isa.NumRegs]int32
	run    blockRun // the executing block's state, reused block after block
}

// NewMachine returns a machine over the program with a fresh paged memory.
func NewMachine(p *prog.Program) *Machine {
	m := &Machine{Prog: p, Mem: NewPageMem()}
	for i := range m.regSrc {
		m.regSrc[i] = -1
	}
	return m
}

// RunStats summarizes an architectural run.
type RunStats struct {
	Blocks uint64
	Fired  uint64 // instructions fired, including fan-out movs
	Useful uint64 // excluding movs and nulls
	Loads  uint64
	Stores uint64
	Halted bool
}

// Run executes from the entry block until halt or maxBlocks blocks.
func (m *Machine) Run(maxBlocks uint64) (RunStats, error) {
	var st RunStats
	entry := m.Prog.EntryBlock()
	if entry == nil {
		return st, fmt.Errorf("exec: no entry block")
	}
	idx := m.Prog.BlockIndex(entry.Addr)
	r := &m.run
	r.mem, r.trace, r.regSrc = m.Mem, m.Trace, nil
	if m.Trace != nil {
		r.regSrc = &m.regSrc
	}
	for {
		if st.Blocks >= maxBlocks {
			return st, fmt.Errorf("exec: exceeded %d blocks without halting", maxBlocks)
		}
		lk := m.Prog.Linked(idx)
		res, err := r.runBlock(lk, &m.Regs)
		if err != nil {
			return st, err
		}
		st.Blocks++
		st.Fired += uint64(res.Fired)
		st.Useful += uint64(res.Useful)
		st.Loads += uint64(res.Loads)
		st.Stores += uint64(len(res.Stores))
		// Commit: register writes, then stores in LSID (program) order —
		// dataflow firing order is not program order, and overlapping
		// stores within a block must commit oldest-first.
		for _, w := range res.Writes {
			m.Regs[w.Reg] = w.Val
		}
		for id := int8(0); id < lk.MaxLSID; id++ {
			for _, s := range res.Stores {
				if s.LSID == id {
					m.Mem.Store(s.Addr, int(s.Size), s.Val)
					if m.OnStore != nil {
						m.OnStore(s.Addr, s.Size, s.Val)
					}
				}
			}
		}
		if res.Branch.Op == isa.OpHalt {
			st.Halted = true
			return st, nil
		}
		if idx = m.Prog.BlockIndex(res.Branch.Target); idx < 0 {
			return st, fmt.Errorf("exec: block %s branched to non-block address %#x", lk.Block.Name, res.Branch.Target)
		}
	}
}
