package arch

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/conv"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/sim"
)

// Functional executes programs on the architectural dataflow
// interpreter (internal/exec) — the ground-truth semantics every other
// executor is judged against.
type Functional struct{}

// Name implements Executor.
func (Functional) Name() string { return "functional" }

// Run implements Executor.
func (Functional) Run(p *prog.Program, in Input) (State, error) {
	m := exec.NewMachine(p)
	m.Regs = in.Regs
	pm := m.Mem.(*exec.PageMem)
	if len(in.Mem) > 0 {
		pm.WriteBytes(in.MemBase, in.Mem)
	}
	sh := NewStoreHasher()
	m.OnStore = sh.Observe
	st, err := m.Run(in.maxBlocks())
	if err != nil {
		return State{}, err
	}
	return State{
		Regs:        m.Regs,
		MemDigest:   pm.Digest(),
		Blocks:      st.Blocks,
		Stores:      sh.Count(),
		StoreDigest: sh.Digest(),
	}, nil
}

// Sim executes programs on the timing simulator: a chip in the state
// sim.New returns, with one processor composed of Cores cores, in either
// the optimized or the bit-identical reference engine.  The chip comes
// from sim's pool of idle chips of the engine (sim.Acquire), which serves
// every core count, so a corpus run rebuilds no meshes, tag groups or
// predictor tables.
type Sim struct {
	Cores     int
	Reference bool
}

// Name implements Executor.
func (s Sim) Name() string {
	eng := "opt"
	if s.Reference {
		eng = "ref"
	}
	return fmt.Sprintf("sim-%s-%d", eng, s.Cores)
}

// Composition reports the core count the executor simulates on.  The
// fuzz harness uses it (via an anonymous interface, so wrappers that
// embed Sim stay detectable) to replay divergences with the flight
// recorder armed on the same composition.
func (s Sim) Composition() int { return s.Cores }

// Run implements Executor.
func (s Sim) Run(p *prog.Program, in Input) (State, error) {
	cores, err := compose.Rect(0, 0, s.Cores)
	if err != nil {
		return State{}, err
	}
	opts := sim.DefaultOptions()
	opts.Reference = s.Reference
	chip := sim.Acquire(opts)
	st, err := runSim(chip, cores, p, in)
	sim.Release(chip)
	return st, err
}

// runSim runs p from in on one processor of chip composed of cores.
func runSim(chip *sim.Chip, cores compose.Processor, p *prog.Program, in Input) (State, error) {
	proc, err := chip.AddProc(cores, p)
	if err != nil {
		return State{}, err
	}
	proc.Regs = in.Regs
	if len(in.Mem) > 0 {
		proc.Mem.WriteBytes(in.MemBase, in.Mem)
	}
	sh := NewStoreHasher()
	proc.TraceStores(sh.Observe)
	if err := chip.Run(in.maxCycles()); err != nil {
		return State{}, err
	}
	return SimState(proc, sh), nil
}

// SimState reads the architectural state off a finished simulated
// processor whose committed stores sh observed (Proc.TraceStores).
func SimState(proc *sim.Proc, sh *StoreHasher) State {
	return State{
		Regs:        proc.Regs,
		MemDigest:   proc.Mem.Digest(),
		Blocks:      proc.Stats.BlocksCommitted,
		Stores:      sh.Count(),
		StoreDigest: sh.Digest(),
	}
}

// ConvTrace executes programs through the linearized-trace pipeline the
// conventional-superscalar model consumes: the functional machine
// produces the trace, the architectural store stream is reconstructed
// from trace entries alone (per-block boundaries, LSID order within a
// block) and replayed onto a fresh memory, and the conv timing model is
// run over the trace as a consistency check.  A bug in trace
// linearization — wrong store values, missing entries, broken block
// boundaries — shows up here as a state divergence even though the
// underlying interpreter is shared with Functional.
type ConvTrace struct{}

// Name implements Executor.
func (ConvTrace) Name() string { return "conv-trace" }

// Run implements Executor.
func (ConvTrace) Run(p *prog.Program, in Input) (State, error) {
	m := exec.NewMachine(p)
	m.Regs = in.Regs
	if len(in.Mem) > 0 {
		m.Mem.(*exec.PageMem).WriteBytes(in.MemBase, in.Mem)
	}
	tr := &exec.Trace{}
	m.Trace = tr
	st, err := m.Run(in.maxBlocks())
	if err != nil {
		return State{}, err
	}
	if tr.Truncated {
		return State{}, fmt.Errorf("conv-trace: trace truncated at %d entries", len(tr.Entries))
	}
	if uint64(len(tr.Blocks)) != st.Blocks {
		return State{}, fmt.Errorf("conv-trace: %d trace blocks for %d retired blocks", len(tr.Blocks), st.Blocks)
	}
	// Replay the store stream from the trace alone.  Entries within a
	// dynamic block are in instruction-ID order; architectural commit
	// order is LSID order, so sort each block's stores by LSID (unique
	// within a block, so the order is total).
	mem := exec.NewPageMem()
	if len(in.Mem) > 0 {
		mem.WriteBytes(in.MemBase, in.Mem)
	}
	sh := NewStoreHasher()
	var stores []exec.TraceEntry
	for bi, start := range tr.Blocks {
		end := len(tr.Entries)
		if bi+1 < len(tr.Blocks) {
			end = tr.Blocks[bi+1]
		}
		stores = stores[:0]
		for _, e := range tr.Entries[start:end] {
			if e.IsStore {
				stores = append(stores, e)
			}
		}
		slices.SortFunc(stores, func(a, b exec.TraceEntry) int { return cmp.Compare(a.LSID, b.LSID) })
		for _, e := range stores {
			mem.Store(e.Addr, int(e.Size), e.Val)
			sh.Observe(e.Addr, e.Size, e.Val)
		}
	}
	// Timing-model consistency: conv must commit exactly the trace, and
	// its commit ring retires at most CommitWidth entries a cycle.
	cfg := conv.DefaultConfig()
	res := conv.Run(tr.Entries, cfg)
	if res.Insts != uint64(len(tr.Entries)) {
		return State{}, fmt.Errorf("conv-trace: model retired %d of %d entries", res.Insts, len(tr.Entries))
	}
	if w := uint64(cfg.CommitWidth); res.Cycles < (res.Insts+w-1)/w {
		return State{}, fmt.Errorf("conv-trace: model retired %d entries in %d cycles at %d a cycle", res.Insts, res.Cycles, w)
	}
	return State{
		Regs:        m.Regs,
		MemDigest:   mem.Digest(),
		Blocks:      uint64(len(tr.Blocks)),
		Stores:      sh.Count(),
		StoreDigest: sh.Digest(),
	}, nil
}
