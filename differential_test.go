package tflex

import (
	"reflect"
	"testing"
)

// TestOptimizedVsReferenceDifferential cross-checks the engine's default
// hot path (typed events on the calendar queue, pooled blocks, cached
// decode metadata) against the reference slow path (Options.Reference:
// container/heap queue, fresh block and metadata per fetch).  The two
// paths must produce bit-identical simulations — same cycle count, same
// statistics, same architectural state — on every kernel and composition
// size; any divergence is a bug in the optimizations, not a modeling
// choice.
func TestOptimizedVsReferenceDifferential(t *testing.T) {
	type config struct {
		name  string
		cores int // 0: the TRIPS baseline
	}
	configs := []config{{"1c", 1}, {"2c", 2}, {"4c", 4}, {"8c", 8}, {"32c", 32}, {"trips", 0}}
	kernels := []string{"conv", "autcor", "dither", "tblook", "mcf"}
	for _, name := range kernels {
		for _, c := range configs {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				cfg := RunConfig{Cores: c.cores, TRIPS: c.cores == 0}
				fast, err := RunKernel(name, 1, cfg)
				if err != nil {
					t.Fatalf("optimized run: %v", err)
				}
				refOpts := DefaultOptions()
				if cfg.TRIPS {
					refOpts = TRIPSOptions()
				}
				refOpts.Reference = true
				cfg.Options = &refOpts
				ref, err := RunKernel(name, 1, cfg)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				if fast.Cycles != ref.Cycles {
					t.Errorf("cycles diverge: optimized %d, reference %d", fast.Cycles, ref.Cycles)
				}
				if !reflect.DeepEqual(fast.Stats, ref.Stats) {
					t.Errorf("stats diverge:\noptimized %+v\nreference %+v", fast.Stats, ref.Stats)
				}
				if fast.Regs != ref.Regs {
					t.Errorf("architectural registers diverge")
				}
			})
		}
	}
}

// TestMultiprogramIsolationAndDeterminism covers the case where domains
// multiply: four programs on four 8-core partitions of one chip.  Every
// program's outputs validate against its pure-Go reference, its
// architectural results (registers, committed blocks and instructions)
// equal those of the same program running alone on the same composition
// — co-runners may only move its timing — and a second run reproduces
// every processor's cycles and statistics exactly.
func TestMultiprogramIsolationAndDeterminism(t *testing.T) {
	names := []string{"conv", "autcor", "tblook", "mcf"}
	runMulti := func(t *testing.T) []*Result {
		t.Helper()
		procs, err := Partition(8, len(names))
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		specs := make([]ProgramSpec, len(names))
		insts := make([]*KernelInstance, len(names))
		for i, name := range names {
			inst, err := BuildKernel(name, 1)
			if err != nil {
				t.Fatalf("build %s: %v", name, err)
			}
			insts[i] = inst
			specs[i] = ProgramSpec{Prog: inst.Prog, Cores: procs[i], Init: inst.Init}
		}
		results, err := RunMulti(specs, RunConfig{})
		if err != nil {
			t.Fatalf("RunMulti: %v", err)
		}
		for i, r := range results {
			if err := insts[i].Check(&r.Regs, r.Mem); err != nil {
				t.Fatalf("%s output validation failed: %v", names[i], err)
			}
		}
		return results
	}

	first := runMulti(t)
	for i, name := range names {
		alone, err := RunKernel(name, 1, RunConfig{Cores: 8})
		if err != nil {
			t.Fatalf("%s alone: %v", name, err)
		}
		r := first[i]
		if r.Regs != alone.Regs {
			t.Errorf("%s: architectural registers differ from the solo run", name)
		}
		if r.Stats.BlocksCommitted != alone.Stats.BlocksCommitted || r.Stats.InstsCommitted != alone.Stats.InstsCommitted {
			t.Errorf("%s: committed %d blocks / %d insts multiprogrammed, %d / %d alone", name,
				r.Stats.BlocksCommitted, r.Stats.InstsCommitted, alone.Stats.BlocksCommitted, alone.Stats.InstsCommitted)
		}
	}
	second := runMulti(t)
	for i, name := range names {
		if second[i].Cycles != first[i].Cycles {
			t.Errorf("%s: cycles differ between identical runs: %d, %d", name, first[i].Cycles, second[i].Cycles)
		}
		if !reflect.DeepEqual(second[i].Stats, first[i].Stats) {
			t.Errorf("%s: stats differ between identical runs:\nfirst  %+v\nsecond %+v", name, first[i].Stats, second[i].Stats)
		}
	}
}
