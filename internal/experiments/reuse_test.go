package experiments

import (
	"runtime"
	"testing"
)

// TestSuiteJobBudget holds what the suite allocates for jobs once the
// chip pool and its Core2 trace are warm: a suite that has run one conv
// sweep then runs the ct and gzip sweeps (12 tflex jobs at 1 to 32 cores)
// at scale 1 on one worker.  The two kernels are built before the
// measurement (TestKernelBuildBudget holds builds), so what is counted is
// the jobs: Init and Check, each processor's architectural memory, its
// Stats, the registry's snapshot, and the chips' attribution records.  A
// reused chip keeps its metric registry, cleared, so arming it allocates
// no map, histogram or gauge.  The bound is the highest of eight runs,
// 424,384 B and 626 allocations, and a run may not exceed 1.10 x that.
// While each job built its own chip the same sweeps cost 5,884,200 B and
// 4,727 allocations; on reused chips that built a new registry each job,
// 922,872 B and 1,425.  The race detector's runtime adds bytes of its
// own, so a -race build holds no bytes bound; its sync.Pool also drops a
// quarter of the attribution records put back at random, which measured
// 730 to 880 allocations in 16 runs, so a -race build holds the
// allocations to 1.75 x.  ./ci.sh bench runs the plain bounds.
func TestSuiteJobBudget(t *testing.T) {
	const bytesBudget, allocsBudget = 424_384, 626
	allocsFactor := 1.10
	if raceDetector {
		allocsFactor = 1.75
	}
	s := NewSuite(1)
	s.SetJobs(1)
	if err := s.Prefetch(s.SweepSpecs("conv")); err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, k := range []string{"ct", "gzip"} {
		if _, err := s.instance(k, 1); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s.SweepSpecs(k)...)
	}
	warm := s.Summary().JobsRun
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.Prefetch(specs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes, allocs := float64(after.TotalAlloc-before.TotalAlloc), float64(after.Mallocs-before.Mallocs)
	t.Logf("%d jobs on warm chips: %.0f B and %.0f allocs", s.Summary().JobsRun-warm, bytes, allocs)
	if bytes > 1.10*bytesBudget && !raceDetector {
		t.Errorf("%.0f B, budget %.0f (1.10 x %d)", bytes, 1.10*bytesBudget, bytesBudget)
	}
	if allocs > allocsFactor*allocsBudget {
		t.Errorf("%.0f allocs, budget %.0f (%.2f x %d)", allocs, allocsFactor*allocsBudget, allocsFactor, allocsBudget)
	}
}
