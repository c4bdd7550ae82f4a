//go:build !race

package tflex

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestRunKernelReuseBudget holds what tflex.RunKernel("conv", 1) on 8
// cores pays once the chip pool is warm: the kernel build, Init and Check,
// the processor's architectural memory and the run itself, on a chip an
// earlier run released.  Bytes and allocations each stay within 1.10x of
// the measured value.  Before RunMulti took its chip from the pool, every
// run built one: 491,312 B and 650 allocations.  The collector is off
// only for the measured call, so that a GC cannot empty the pool between
// the warm-up and it, and one P keeps the warm-up's chip where the
// measured call looks first.  The file is left out of -race builds, whose
// sync.Pool drops a quarter of Puts at random and whose runtime adds
// bytes of its own.
func TestRunKernelReuseBudget(t *testing.T) {
	const bytesBudget, allocsBudget = 90064, 403 // measured: the log line below
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := RunConfig{Cores: 8}
	if _, err := RunKernel("conv", 1, cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	gc := debug.SetGCPercent(-1)
	runtime.ReadMemStats(&before)
	_, err := RunKernel("conv", 1, cfg)
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gc)
	if err != nil {
		t.Fatal(err)
	}
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("RunKernel(conv, 1) on 8 cores, warm pool: %d B and %d allocations", bytes, allocs)
	if float64(bytes) > 1.10*bytesBudget {
		t.Errorf("%d B, budget %.0f (1.10 x %d)", bytes, 1.10*bytesBudget, bytesBudget)
	}
	if float64(allocs) > 1.10*allocsBudget {
		t.Errorf("%d allocations, budget %.0f (1.10 x %d)", allocs, 1.10*allocsBudget, allocsBudget)
	}
}
