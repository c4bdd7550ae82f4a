package fuzz

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/clp-sim/tflex/internal/asm"
	"github.com/clp-sim/tflex/internal/budget"
	"github.com/clp-sim/tflex/internal/edgegen"
)

// TestCheckSeedAllocs is the harness's allocation budget: what CheckSeed
// allocates for seeds 0-49 once the chip pool is warm.  It covers
// generating, building and running each program on all eight executors.
// The chip pool and the Core2 model's idle states are plain lists, so
// the count is the same under -race.
func TestCheckSeedAllocs(t *testing.T) {
	const allocs = 10855
	h := New()
	budget.Check(t, []budget.Row{{Name: "seeds=0-49", Quantity: budget.Allocs, Layer: budget.EngineOther,
		Run: func(tb testing.TB) budget.Work {
			for seed := int64(0); seed < 50; seed++ {
				d, err := h.CheckSeed(seed)
				if d != nil {
					err = fmt.Errorf("seed %d: %s diverges: %s", seed, d.Exec, d.Diff)
				}
				if err != nil {
					tb.Fatal(err)
				}
			}
			return budget.Work{}
		}, Value: allocs, Bound: 1.1 * allocs}})
}

// buildMatchesAssembly fails t unless Build and asm.Assemble of Asm's text
// agree on s: both refuse it, or their programs are deep-equal.
func buildMatchesAssembly(t *testing.T, s *edgegen.Spec) {
	t.Helper()
	got, gerr := s.Build()
	want, aerr := asm.Assemble(s.Asm())
	if (gerr == nil) != (aerr == nil) {
		t.Fatalf("seed %d: Build error %v, asm.Assemble(Asm()) error %v\nprogram:\n%s", s.Seed, gerr, aerr, s.Asm())
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: Build and asm.Assemble(Asm()) differ\nBuild:\n%s\nAssemble:\n%s",
			s.Seed, asm.Disassemble(got), asm.Disassemble(want))
	}
}

// TestCandidatesBuildMatchesAssembly holds every shrink candidate of seeds
// 0-49 to the equivalence edgegen's TestBuildMatchesAssembly holds for
// generated programs: truncated block lists, simplified terminators and
// neutralized ops lower directly as they assemble from text.
func TestCandidatesBuildMatchesAssembly(t *testing.T) {
	n := 0
	for seed := int64(0); seed < 50; seed++ {
		for _, c := range candidates(edgegen.GenSpec(seed)) {
			buildMatchesAssembly(t, c)
			n++
		}
	}
	t.Logf("%d candidates", n)
}
