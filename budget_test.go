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
// record.  The mcf leg is the steady workload's largest image, 4 MiB of
// pointer ring at every scale: its run stores nothing, so it pays for the
// attached memory's page table and no page, where writing the image into
// fresh pages cost over 4 MB.  Bytes and allocations each stay within
// 1.10x of the measured value (the highest of ten runs).  A chip is
// about 400 KB: when every untapped run built one, conv cost 491,312 B
// and 650 allocations, and when an observed run kept its chip, 697,592 B
// and 792; when each observed run armed a new 128 KiB flight ring and
// grew its trace and sample slices by append, 306,408 B; while each
// observed run bound its components' gauge funcs afresh, 176
// allocations.  The pool is a plain list, so the warm-up's chip serves the
// measured call whatever the collector or the race detector does.  The
// race detector's runtime adds bytes of its own, so a -race build holds
// the allocations alone, to 1.50x: there the observed leg's attribution
// records, in a sync.Pool that drops a quarter of them at random,
// measured 154 to 186 allocations in 30 runs.
func TestRunKernelReuseBudget(t *testing.T) {
	allocsFactor := 1.10
	if raceDetector {
		allocsFactor = 1.50
	}
	for _, leg := range []struct {
		name          string
		kernel        string
		scale         int
		cfg           func() RunConfig
		bytes, allocs float64 // measured: the log line below
	}{
		{"untapped", "conv", 1, func() RunConfig { return RunConfig{Cores: 8} }, 78768, 53},
		{"observed", "conv", 1, func() RunConfig {
			return RunConfig{Cores: 8, CollectMetrics: true, SampleEvery: 64, ChromeTrace: NewTrace(), CritPath: true, Flight: true}
		}, 154936, 156},
		{"untapped", "mcf", 32, func() RunConfig { return RunConfig{Cores: 8} }, 110368, 50},
	} {
		if _, err := RunKernel(leg.kernel, leg.scale, leg.cfg()); err != nil {
			t.Fatal(err)
		}
		cfg := leg.cfg()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RunKernel(leg.kernel, leg.scale, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes, allocs := float64(after.TotalAlloc-before.TotalAlloc), float64(after.Mallocs-before.Mallocs)
		t.Logf("%s: RunKernel(%s, %d) on 8 cores, warm pool: %.0f B and %.0f allocations", leg.name, leg.kernel, leg.scale, bytes, allocs)
		if bytes > 1.10*leg.bytes && !raceDetector {
			t.Errorf("%s %s: %.0f B, budget %.0f (1.10 x %.0f)", leg.name, leg.kernel, bytes, 1.10*leg.bytes, leg.bytes)
		}
		if allocs > allocsFactor*leg.allocs {
			t.Errorf("%s %s: %.0f allocations, budget %.0f (%.2f x %.0f)", leg.name, leg.kernel, allocs, allocsFactor*leg.allocs, allocsFactor, leg.allocs)
		}
	}
}
