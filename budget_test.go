package tflex

import (
	"testing"

	"github.com/clp-sim/tflex/internal/budget"
)

// TestRunKernelReuseBudget holds what tflex.RunKernel("conv", 1) on 8
// cores pays once the chip pool is warm: the kernel build, Init and Check,
// the processor's architectural memory and the run itself, on a chip an
// earlier run released.  The observed leg arms clpbench's observed taps
// (the registry, a 64-cycle sampler, a Chrome trace, attribution and the
// flight recorder), whose run releases its chip too, and adds what they
// record.  The mcf leg is the steady workload's largest image, 4 MiB of
// pointer ring at every scale: its run stores nothing, so it pays for the
// attached memory's page table and no page.  A chip is about 400 KB:
// when every untapped run built one, conv cost 491,312 B and 650
// allocations.  The observed leg's attribution records stay with the
// in-flight blocks of the chip it releases, so the next run on that chip
// builds none.
func TestRunKernelReuseBudget(t *testing.T) {
	var rows []budget.Row
	for _, leg := range []struct {
		name, kernel  string
		scale         int
		layer         budget.Layer
		cfg           func() RunConfig
		bytes, allocs float64
	}{
		{"conv/untapped", "conv", 1, budget.BlockLifecycle, func() RunConfig { return RunConfig{Cores: 8} }, 78768, 53},
		{"conv/observed", "conv", 1, budget.ObserverTaps, func() RunConfig {
			return RunConfig{Cores: 8, CollectMetrics: true, SampleEvery: 64, ChromeTrace: NewTrace(), CritPath: true, Flight: true}
		}, 154800, 154},
		{"mcf/untapped", "mcf", 32, budget.MemoryPath, func() RunConfig { return RunConfig{Cores: 8} }, 110368, 50},
	} {
		var cfg RunConfig
		setup := func(testing.TB) { cfg = leg.cfg() }
		run := func(tb testing.TB) budget.Work {
			if _, err := RunKernel(leg.kernel, leg.scale, cfg); err != nil {
				tb.Fatal(err)
			}
			return budget.Work{}
		}
		rows = append(rows,
			budget.Row{Name: leg.name + "/bytes", Quantity: budget.Bytes, Layer: leg.layer, Setup: setup, Run: run, Value: leg.bytes, Bound: 1.10 * leg.bytes},
			budget.Row{Name: leg.name + "/allocs", Quantity: budget.Allocs, Layer: leg.layer, Setup: setup, Run: run, Value: leg.allocs, Bound: 1.10 * leg.allocs})
	}
	budget.Check(t, rows)
}
