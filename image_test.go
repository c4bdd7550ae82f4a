package tflex

import (
	"sync"
	"testing"
)

// TestRunMultiSharesOneKernelImage: every run of a kernel at one scale
// reads one input image, and a store copies the page it lands on into
// the run's own memory first.  bzip2's move-to-front list is an input
// that every iteration stores into, so two processors of one chip running
// one bzip2 Instance both store into the same image page.  Both must pass
// Check, end with equal memories that differ from the image, and leave
// the image as it was.  A processor that saw the other's stores would
// scan the list for a symbol it no longer holds, so the runs are bounded
// far above the 4,400-odd cycles a correct one takes alone.  Two such
// chips run at once on two goroutines, which under -race also checks
// that concurrent runs only read the image.
func TestRunMultiSharesOneKernelImage(t *testing.T) {
	inst, err := BuildKernel("bzip2", 1)
	if err != nil {
		t.Fatal(err)
	}
	imageDigest := func() uint64 {
		var regs [128]uint64
		m := NewMemory()
		inst.Init(&regs, m)
		return m.Digest()
	}
	before := imageDigest()
	procs, err := Partition(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	specs := []ProgramSpec{
		{Prog: inst.Prog, Cores: procs[0], Init: inst.Init},
		{Prog: inst.Prog, Cores: procs[1], Init: inst.Init},
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	results := make([][]*Result, 2)
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = RunMulti(specs, RunConfig{MaxCycles: 1_000_000})
		}()
	}
	wg.Wait()
	for g, rs := range results {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, r := range rs {
			if err := inst.Check(&r.Regs, r.Mem); err != nil {
				t.Errorf("chip %d, processor %d: %v", g, i, err)
			}
			if d := r.Mem.Digest(); d != rs[0].Mem.Digest() || d == before {
				t.Errorf("chip %d, processor %d: memory digest %#x, processor 0's %#x, the image's %#x", g, i, d, rs[0].Mem.Digest(), before)
			}
		}
	}
	if after := imageDigest(); after != before {
		t.Errorf("the shared image's digest moved from %#x to %#x", before, after)
	}
}
