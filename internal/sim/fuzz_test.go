package sim_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/clp-sim/tflex/internal/arch"
	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/sim"
)

// Random-program cross-validation: edgegen programs (arithmetic DAGs,
// predication, guarded stores, loads, data-dependent branches, loops)
// must finish on the timing simulator with the architectural state of
// the functional executor — registers, memory image, retired blocks and
// the committed store stream — on compositions and option sets the
// differential harness (internal/fuzz: rectangles of 1, 2 and 4 cores,
// default options) does not reach.  This is the strongest correctness
// property the simulator has: speculation, flushes, forwarding and
// violation recovery must all be architecturally invisible.  Every seed
// must build and run; none is skipped.

// fuzzCase draws the seed's program and its functional ground truth.
func fuzzCase(t *testing.T, seed int64) (*prog.Program, arch.Input, arch.State) {
	t.Helper()
	spec := edgegen.GenSpec(seed)
	p, err := spec.Build()
	if err != nil {
		t.Fatalf("seed %d does not build: %v", seed, err)
	}
	in := spec.Input()
	want, err := arch.Functional{}.Run(p, in)
	if err != nil {
		t.Fatalf("seed %d does not run functionally: %v", seed, err)
	}
	return p, in, want
}

// simState runs p on one processor composed of cores and reads its
// architectural state and its cycle count.
func simState(t *testing.T, opts sim.Options, cores compose.Processor, p *prog.Program, in arch.Input) (arch.State, uint64) {
	t.Helper()
	chip := sim.New(opts)
	proc, err := chip.AddProc(cores, p)
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs = in.Regs
	proc.Mem.WriteBytes(in.MemBase, in.Mem)
	sh := arch.NewStoreHasher()
	proc.TraceStores(sh.Observe)
	if err := chip.Run(in.MaxCycles); err != nil {
		t.Fatalf("%d cores: %v", cores.N(), err)
	}
	return arch.SimState(proc, sh), proc.Stats.Cycles
}

// fuzzComps are the compositions seeds 1-25 run on under default options.
var fuzzComps = []compose.Processor{
	compose.MustRect(0, 0, 1),
	compose.MustRect(0, 0, 4),
	compose.MustRect(0, 0, 32),
	{Cores: []int{5, 9, 30}},       // arbitrary 3-core composition
	{Cores: []int{2, 3, 6, 7, 10}}, // arbitrary 5-core composition
}

func TestFuzzSimMatchesFunctional(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		p, in, want := fuzzCase(t, seed)
		for _, comp := range fuzzComps {
			got, _ := simState(t, sim.DefaultOptions(), comp, p, in)
			if d := want.Diff(got); d != "" {
				t.Fatalf("seed %d on cores %v: functional vs sim: %s", seed, comp.Cores, d)
			}
		}
	}
}

// tripsFuzzOptions is the TRIPS-style configuration seeds 30-42 run under
// on 16 cores: central predictor, restricted banks, 8 blocks in flight.
func tripsFuzzOptions() sim.Options {
	opts := sim.DefaultOptions()
	opts.Params.WindowEntries = 64
	opts.CentralPredictor = true
	opts.DBanks = []int{0, 4, 8, 12}
	opts.RegBanks = []int{0, 1, 2, 3}
	opts.Params.IssueTotal = 1
	opts.Params.OperandBW = 1
	return opts
}

// TestFuzzTRIPSConfigMatchesFunctional: the TRIPS-style configuration must
// be architecturally invisible too.
func TestFuzzTRIPSConfigMatchesFunctional(t *testing.T) {
	for seed := int64(30); seed <= 42; seed++ {
		p, in, want := fuzzCase(t, seed)
		got, _ := simState(t, tripsFuzzOptions(), compose.MustRect(0, 0, 16), p, in)
		if d := want.Diff(got); d != "" {
			t.Fatalf("seed %d: functional vs sim: %s", seed, d)
		}
	}
}

// TestFuzzCyclesPinned pins the timing of random programs: one digest
// over the cycle count of every run the two tests above make (all 38
// seeds, every composition).  The architectural checks cannot see an
// event-ordering slip and the Reference differential shares the engine's
// fetch and dispatch code, so a cycle-exact engine change is held to this
// number; a model change updates it and says so.
func TestFuzzCyclesPinned(t *testing.T) {
	const want = 0xa2ea0c03a54e6464
	h := fnv.New64a()
	run := func(seed int64, opts sim.Options, comp compose.Processor) {
		p, in, _ := fuzzCase(t, seed)
		_, cycles := simState(t, opts, comp, p, in)
		fmt.Fprintf(h, "%d %v %d\n", seed, comp.Cores, cycles)
	}
	for seed := int64(1); seed <= 25; seed++ {
		for _, comp := range fuzzComps {
			run(seed, sim.DefaultOptions(), comp)
		}
	}
	for seed := int64(30); seed <= 42; seed++ {
		run(seed, tripsFuzzOptions(), compose.MustRect(0, 0, 16))
	}
	if got := h.Sum64(); got != want {
		t.Errorf("cycle digest over the edgegen seeds = %#x, want %#x: simulated timing moved", got, uint64(want))
	}
}
