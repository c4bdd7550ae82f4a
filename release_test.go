//go:build go1.24

package tflex

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestReleasedChipHoldsNoCallerData: a chip RunMulti gives back to the
// pool lives as long as the process, so it must keep nothing a run's
// caller handed it or got from it.  One run arms every tap (OnBlock, a
// Chrome trace, the registry, the sampler, attribution and the flight
// recorder); once the test drops its references, the collector must free
// the program, the processor's memory, the trace, the registry, the
// sampler and an object the OnBlock closure captured, while the chip sits
// idle in the pool.
func TestReleasedChipHoldsNoCallerData(t *testing.T) {
	freed := make(chan string, 8)
	func() {
		inst, err := BuildKernel("conv", 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := new([8]uint64) // no tiny allocation, which the collector frees late
		trace := NewTrace()
		res, err := Run(inst.Prog, RunConfig{
			Cores: 8, Init: inst.Init,
			OnBlock:        func(BlockEvent) { seen[0]++ },
			ChromeTrace:    trace,
			CollectMetrics: true, SampleEvery: 64, CritPath: true, Flight: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen[0] == 0 || res.Telemetry == nil || res.Samples.Len() == 0 {
			t.Fatal("the run armed no tap")
		}
		note := func(name string) { freed <- name }
		runtime.AddCleanup(inst.Prog, note, "the program")
		runtime.AddCleanup(res.Mem, note, "Result.Mem")
		runtime.AddCleanup(trace, note, "the Chrome trace")
		runtime.AddCleanup(res.Telemetry, note, "the registry")
		runtime.AddCleanup(res.Samples, note, "the sampler")
		runtime.AddCleanup(seen, note, "the OnBlock closure's object")
	}()
	want := []string{"Result.Mem", "the Chrome trace", "the OnBlock closure's object", "the program", "the registry", "the sampler"}
	var got []string
	for i := 0; i < 5 && len(got) < len(want); i++ {
		runtime.GC()
		wait := time.After(100 * time.Millisecond) // cleanups run on a goroutine of their own
	drain:
		for len(got) < len(want) {
			select {
			case name := <-freed:
				got = append(got, name)
			case <-wait:
				break drain
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("after five collections the pooled chip still holds what a run's caller owns: freed %q, want %q", got, want)
	}
}
