package tflex

import (
	"runtime"
	"testing"
)

// TestRunKernelReuseBudget holds what tflex.RunKernel("conv", 1) on 8
// cores pays once the chip pool is warm: the kernel build, Init and Check,
// the processor's architectural memory and the run itself, on a chip an
// earlier run released.  The observed leg arms clpbench's observed taps
// (the registry, a 64-cycle sampler, a Chrome trace, attribution and the
// flight recorder), whose run releases its chip too, and adds what they
// record.  Bytes and allocations each stay within 1.10x of the measured
// value (the highest of five runs).  A chip is about 400 KB: when every
// untapped run built one, it cost 491,312 B and 650 allocations, and when
// an observed run kept its chip, 697,592 B and 792.  The pool is a plain
// list, so the warm-up's chip serves the measured call whatever the
// collector or the race detector does.  The race detector's runtime adds
// bytes of its own, so a -race build holds the allocations alone; there
// the observed leg's attribution records, in a sync.Pool that drops a
// quarter of them at random, measured 546 to 572 allocations in 15 runs.
func TestRunKernelReuseBudget(t *testing.T) {
	for _, leg := range []struct {
		name          string
		cfg           func() RunConfig
		bytes, allocs float64 // measured: the log line below
	}{
		{"untapped", func() RunConfig { return RunConfig{Cores: 8} }, 90064, 403},
		{"observed", func() RunConfig {
			return RunConfig{Cores: 8, CollectMetrics: true, SampleEvery: 64, ChromeTrace: NewTrace(), CritPath: true, Flight: true}
		}, 300088, 548},
	} {
		if _, err := RunKernel("conv", 1, leg.cfg()); err != nil {
			t.Fatal(err)
		}
		cfg := leg.cfg()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RunKernel("conv", 1, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes, allocs := float64(after.TotalAlloc-before.TotalAlloc), float64(after.Mallocs-before.Mallocs)
		t.Logf("%s: RunKernel(conv, 1) on 8 cores, warm pool: %.0f B and %.0f allocations", leg.name, bytes, allocs)
		if bytes > 1.10*leg.bytes && !raceDetector {
			t.Errorf("%s: %.0f B, budget %.0f (1.10 x %.0f)", leg.name, bytes, 1.10*leg.bytes, leg.bytes)
		}
		if allocs > 1.10*leg.allocs {
			t.Errorf("%s: %.0f allocations, budget %.0f (1.10 x %.0f)", leg.name, allocs, 1.10*leg.allocs, leg.allocs)
		}
	}
}
