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
		if r.Allocs != 10 || (r.Bytes != 640 && !raceDetector) {
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
	if got := r.read(t); got != 5 {
		t.Errorf("read %g allocations, want the smallest window's 5", got)
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
	r := Row{Name: "four slices", Quantity: Bytes, Run: func(testing.TB) Work { return allocate(4) }, Value: 200, Bound: 220, Race: 220}
	got := r.check(&tb, "TestOwner")
	if len(tb.errors) != 1 {
		t.Fatalf("%g bytes reported %d errors, want 1: %q", got, len(tb.errors), tb.errors)
	}
	for _, want := range []string{"TestOwner", "four slices", "bytes", fmt.Sprintf("%.6g", got), "bound 220"} {
		if !strings.Contains(tb.errors[0], want) {
			t.Errorf("%q does not name %q", tb.errors[0], want)
		}
	}
}
