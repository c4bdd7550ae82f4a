package experiments

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/clp-sim/tflex/internal/obs"
	"github.com/clp-sim/tflex/internal/sim"
)

// reuseSpecs lists conv and mcf on every machine row: the tflex row at
// 32, 1, 8, 2, 16 and 4 cores, so each chip the suite reuses shrinks and
// grows, and every other row at 8 cores (TRIPS and Core2, whose size is
// fixed, at 0, as the figures file them).  The Core2 jobs reuse the
// suite's trace.
func reuseSpecs() []Spec {
	var rows []string
	for row := range machines {
		if row != cfgTFlex {
			rows = append(rows, row)
		}
	}
	slices.Sort(rows)
	var specs []Spec
	for _, k := range []string{"conv", "mcf"} {
		for _, n := range []int{32, 1, 8, 2, 16, 4} {
			specs = append(specs, Spec{Kernel: k, Config: cfgTFlex, Cores: n, Scale: 1})
		}
		for _, row := range rows {
			cores := 8
			if row == cfgTRIPS || row == cfgCore2 {
				cores = 0
			}
			specs = append(specs, Spec{Kernel: k, Config: row, Cores: cores, Scale: 1})
		}
	}
	return specs
}

// TestSuiteReuseMatchesFresh: a job on a chip the pool reused gives the
// result the same job gives on a chip from sim.New.  One suite runs every
// spec of reuseSpecs on one worker, so each row's pooled chip, and the
// suite's one trace, runs them all in order; only then is each result
// compared with runOn on a new chip (a Core2 spec: with a fresh suite's
// run of it alone) — cycles, statistics, power counters, attribution
// summary and metric snapshot — so a result that aliased its chip's
// storage would show the later jobs' values and fail.  The second leg
// arms an observer, which gives every row attribution.
func TestSuiteReuseMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 26 jobs twice per leg")
	}
	specs := reuseSpecs()
	for _, observed := range []bool{false, true} {
		newSuite := func() *Suite {
			s := NewSuite(1)
			s.SetJobs(1)
			if observed {
				s.SetObserver(obs.New())
			}
			return s
		}
		reused := newSuite()
		if err := reused.Prefetch(specs); err != nil {
			t.Fatalf("observed=%v: %v", observed, err)
		}
		for _, sp := range specs {
			inst, err := reused.instance(sp.Kernel, sp.Scale)
			if err != nil {
				t.Fatal(err)
			}
			var want RunResult
			if m := machines[sp.Config]; m.options != nil {
				want, err = reused.runOn(sim.New(m.options()), m, sp.Cores, inst)
			} else {
				want, err = newSuite().simulate(sp)
			}
			if err != nil {
				t.Fatalf("observed=%v: fresh %s: %v", observed, sp.Key(), err)
			}
			got := reused.have(sp)
			if observed && sp.Config != cfgCore2 && want.Crit.Blocks == 0 {
				t.Errorf("observed=%v: %s recorded no attribution", observed, sp.Key())
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Cycles", got.Cycles, want.Cycles},
				{"Stats", got.Stats, want.Stats},
				{"Counters", got.Counters, want.Counters},
				{"Crit", got.Crit, want.Crit},
				{"Metrics", got.Metrics, want.Metrics},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("observed=%v: %s after reuse: %s differs from a new chip's\n got %+v\nwant %+v",
						observed, sp.Key(), f.name, f.got, f.want)
				}
			}
		}
	}
}

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
