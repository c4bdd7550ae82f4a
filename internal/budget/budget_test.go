package budget

import (
	"fmt"
	"strings"
	"testing"
)

var sink []byte

// allocate makes n allocations of 64 bytes, a size class of its own.
func allocate(n int) Work {
	for i := 0; i < n; i++ {
		sink = make([]byte, 64)
	}
	return Work{}
}

func TestMeasureCountsEveryWindow(t *testing.T) {
	for i, r := range measure(t, nil, func(testing.TB) Work { return allocate(10) }) {
		if r.Allocs != 10 || r.Bytes != 640 {
			t.Errorf("window %d: %d allocations and %d bytes, want 10 and 640", i, r.Allocs, r.Bytes)
		}
	}
}

func TestReadTakesTheSmallestWindow(t *testing.T) {
	calls := 0
	r := Row{Name: "noisy", Quantity: Allocs, Run: func(testing.TB) Work {
		if calls++; calls != 3 { // the warm-up and two of the three windows
			allocate(7)
		}
		return allocate(5)
	}}
	if got, allocs := r.read(t); got != 5 || allocs != 5 {
		t.Errorf("read %g allocations (%g in its window), want the smallest window's 5", got, allocs)
	}
}

// fakeTB records what a check reports.
type fakeTB struct {
	testing.TB
	errors []string
}

func (f *fakeTB) Helper()             {}
func (f *fakeTB) Logf(string, ...any) {}
func (f *fakeTB) Errorf(format string, a ...any) {
	f.errors = append(f.errors, fmt.Sprintf(format, a...))
}

func TestCheckFailsARowOverItsBound(t *testing.T) {
	var tb fakeTB
	r := Row{Name: "four slices", Quantity: Bytes, Run: func(testing.TB) Work { return allocate(4) }, Value: 200, Bound: 180}
	got := r.check(&tb, "TestOwner")
	if len(tb.errors) != 1 {
		t.Fatalf("%g bytes reported %d errors, want 1: %q", got, len(tb.errors), tb.errors)
	}
	for _, want := range []string{"TestOwner", "four slices", "bytes", fmt.Sprintf("%.6g", got), fmt.Sprintf("bound %.6g", r.bound(4, raceBuild))} {
		if !strings.Contains(tb.errors[0], want) {
			t.Errorf("%q does not name %q", tb.errors[0], want)
		}
	}
}

var tiny *byte

// TestRaceBuildTurnsTinyAllocationOff holds raceBuild, and the -race rule
// with it, to what the rule rests on: a plain build packs 16 one-byte
// objects into one or two 16 B blocks, and a -race build gives each its
// own, which the rule's 16 B an allocation covers.
func TestRaceBuildTurnsTinyAllocationOff(t *testing.T) {
	r := Row{Quantity: Bytes, Bound: 2 * tinySlot, Run: func(testing.TB) Work {
		for i := 0; i < 16; i++ {
			tiny = new(byte)
		}
		return Work{}
	}}
	if got, allocs := r.read(t); got > r.bound(allocs, raceBuild) || (got > r.Bound) != raceBuild {
		t.Errorf("16 one-byte objects took %g bytes in %g allocations, bound %g, in a build with raceBuild %v", got, allocs, r.bound(allocs, raceBuild), raceBuild)
	}
}
