package tflex

import (
	"fmt"
	"reflect"
	"strings"
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

// TestMultiprogramOptimizedVsReference holds Options.Reference's "results
// are identical either way" on chips with several processors: four
// programs share one chip — evicting each other's lines from the L2,
// halting far apart, interleaving same-cycle events — and every
// processor's cycles, statistics and registers must be equal on both
// engines.
func TestMultiprogramOptimizedVsReference(t *testing.T) {
	mixes := []struct {
		kernels []string
		sizes   []int // nil: Partition(8, 4)
	}{
		{[]string{"conv", "autcor", "tblook", "mcf"}, nil},
		{[]string{"ct", "autcor", "mcf", "8b10b"}, []int{16, 8, 4, 4}},
		{[]string{"ammp", "conv", "gcc", "dither"}, []int{16, 8, 4, 4}},
		{[]string{"swim", "802.11b", "bzip2", "tblook"}, []int{16, 8, 4, 4}},
		{[]string{"art", "bezier", "parser", "genalg"}, []int{16, 8, 4, 4}},
	}
	for _, mix := range mixes {
		for _, scale := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s@%d", strings.Join(mix.kernels, "+"), scale), func(t *testing.T) {
				run := func(reference bool) []*Result {
					procs, err := Partition(8, len(mix.kernels))
					if mix.sizes != nil {
						procs, err = PartitionAsymmetric(mix.sizes)
					}
					if err != nil {
						t.Fatalf("partition: %v", err)
					}
					specs := make([]ProgramSpec, len(mix.kernels))
					for i, name := range mix.kernels {
						inst, err := BuildKernel(name, scale)
						if err != nil {
							t.Fatalf("build %s: %v", name, err)
						}
						specs[i] = ProgramSpec{Prog: inst.Prog, Cores: procs[i], Init: inst.Init}
					}
					opts := DefaultOptions()
					opts.Reference = reference
					results, err := RunMulti(specs, RunConfig{Options: &opts})
					if err != nil {
						t.Fatalf("RunMulti (reference %t): %v", reference, err)
					}
					return results
				}
				fast, ref := run(false), run(true)
				for i, name := range mix.kernels {
					if fast[i].Cycles != ref[i].Cycles {
						t.Errorf("%s: cycles diverge: optimized %d, reference %d", name, fast[i].Cycles, ref[i].Cycles)
					}
					if !reflect.DeepEqual(fast[i].Stats, ref[i].Stats) {
						t.Errorf("%s: stats diverge:\noptimized %+v\nreference %+v", name, fast[i].Stats, ref[i].Stats)
					}
					if fast[i].Regs != ref[i].Regs {
						t.Errorf("%s: architectural registers diverge", name)
					}
				}
			})
		}
	}
}

// TestMultiprogramIsolationAndDeterminism covers four programs on four
// 8-core partitions of one chip.  Every program's outputs validate
// against its pure-Go reference, its architectural results (registers,
// committed blocks and instructions) equal those of the same program
// running alone on the same composition — co-runners may only move its
// timing — and a second run reproduces every processor's cycles and
// statistics exactly.
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
