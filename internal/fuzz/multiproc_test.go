package fuzz

import (
	"testing"

	"github.com/clp-sim/tflex/internal/arch"
	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/sim"
)

// TestFuzzMultiProcessorChips puts random programs on chips with more
// than one processor: for 50 seeds, four generated programs run side by
// side on disjoint 2-core rectangles of one chip, on both engines.  Each
// processor must finish in the architectural state the functional
// interpreter computes for its program alone — co-runners share only the
// L2 and DRAM — and must take the same number of cycles on the optimized
// engine as on the Reference oracle.
func TestFuzzMultiProcessorChips(t *testing.T) {
	rects := [][2]int{{0, 0}, {2, 0}, {0, 1}, {2, 1}}
	for seed := int64(0); seed < 50; seed++ {
		progs := make([]*prog.Program, len(rects))
		ins := make([]arch.Input, len(rects))
		want := make([]arch.State, len(rects))
		for i := range rects {
			spec := edgegen.GenSpec(seed*int64(len(rects)) + int64(i))
			var err error
			if progs[i], err = spec.Build(); err != nil {
				t.Fatalf("seed %d: program %d does not build: %v", seed, i, err)
			}
			ins[i] = spec.Input()
			if want[i], err = (arch.Functional{}).Run(progs[i], ins[i]); err != nil {
				t.Fatalf("seed %d: program %d: ground truth failed: %v", seed, i, err)
			}
		}
		var cycles [2][]uint64
		for e, reference := range []bool{false, true} {
			opts := sim.DefaultOptions()
			opts.Reference = reference
			chip := sim.New(opts)
			procs := make([]*sim.Proc, len(rects))
			hashers := make([]*arch.StoreHasher, len(rects))
			for i, at := range rects {
				pr, err := chip.AddProc(compose.MustRect(at[0], at[1], 2), progs[i])
				if err != nil {
					t.Fatal(err)
				}
				pr.Regs = ins[i].Regs
				if len(ins[i].Mem) > 0 {
					pr.Mem.WriteBytes(ins[i].MemBase, ins[i].Mem)
				}
				hashers[i] = arch.NewStoreHasher()
				pr.TraceStores(hashers[i].Observe)
				procs[i] = pr
			}
			if err := chip.Run(arch.DefaultMaxCycles); err != nil {
				t.Fatalf("seed %d (reference %t): %v", seed, reference, err)
			}
			for i, pr := range procs {
				if d := arch.SimState(pr, hashers[i]).Diff(want[i]); d != "" {
					t.Errorf("seed %d (reference %t): processor %d disagrees with the functional run: %s", seed, reference, i, d)
				}
				cycles[e] = append(cycles[e], pr.Stats.Cycles)
			}
		}
		for i := range rects {
			if cycles[0][i] != cycles[1][i] {
				t.Errorf("seed %d: processor %d took %d cycles optimized, %d on Reference", seed, i, cycles[0][i], cycles[1][i])
			}
		}
	}
}
