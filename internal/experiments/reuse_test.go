package experiments

import (
	"testing"

	"github.com/clp-sim/tflex/internal/budget"
)

// TestSuiteJobBudget holds what the suite allocates for jobs once the
// chip pool and its Core2 trace are warm: a suite that has run one conv
// sweep then runs the ct and gzip sweeps (12 tflex jobs at 1 to 32 cores)
// at scale 1 on one worker.  Each window has a suite of its own, since a
// suite runs a job once, with both kernels built (TestKernelBuildBudget
// holds builds), so what is counted is the jobs: Init and Check, each
// processor's architectural memory, its Stats and the registry's
// snapshot.  A reused chip keeps its metric registry, cleared, so arming
// it allocates no map, histogram or gauge, and its in-flight blocks keep
// their attribution records.  With no trace armed a job formats no key
// for its span: formatting one anyway read 283,200 B and 267
// allocations, three a job.  The warm-up, the first ct and gzip jobs in
// the process, also pays for what the process builds once per kernel
// (418,640 B and 609 allocations).
func TestSuiteJobBudget(t *testing.T) {
	const bytes, allocs = 282_528, 231
	var s *Suite
	var specs []Spec
	setup := func(tb testing.TB) {
		s, specs = NewSuite(1), nil
		s.SetJobs(1)
		if err := s.Prefetch(s.SweepSpecs("conv")); err != nil {
			tb.Fatal(err)
		}
		for _, k := range []string{"ct", "gzip"} {
			if _, err := s.instance(k, 1); err != nil {
				tb.Fatal(err)
			}
			specs = append(specs, s.SweepSpecs(k)...)
		}
	}
	run := func(tb testing.TB) budget.Work {
		if err := s.Prefetch(specs); err != nil {
			tb.Fatal(err)
		}
		return budget.Work{}
	}
	budget.Check(t, []budget.Row{
		{Name: "ct+gzip/bytes", Quantity: budget.Bytes, Layer: budget.ObserverTaps, Setup: setup, Run: run, Value: bytes, Bound: 1.10 * bytes},
		{Name: "ct+gzip/allocs", Quantity: budget.Allocs, Layer: budget.ObserverTaps, Setup: setup, Run: run, Value: allocs, Bound: 1.10 * allocs},
	})
}
