package kernels

import (
	"sync"
	"testing"

	"github.com/clp-sim/tflex/internal/prog"
)

// Registering a kernel whose name is already taken must panic — a silent
// overwrite would drop one benchmark from the suite and skew every
// regenerated figure.
func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register(conv) did not panic")
		}
		// Registration order must be untouched by the failed attempt.
		if n := len(order); n != len(registry) {
			t.Fatalf("order has %d entries, registry %d after failed register", n, len(registry))
		}
	}()
	register(Kernel{Name: "conv", Suite: "hand", Build: nil})
}

// Every registered kernel — the Table 1 suite and the extras — must
// build a program that passes the exported ISA validator.  The builder
// validates at seal time, but this pins the stronger claim: nothing in
// the registry depends on a rule Validate does not enforce, so the
// fuzz harness and the kernels hold programs to the same contract.
func TestAllKernelsPassValidate(t *testing.T) {
	for _, k := range append(All(), Extras()...) {
		inst, err := k.Build(1)
		if err != nil {
			t.Errorf("%s: Build(1): %v", k.Name, err)
			continue
		}
		if err := prog.Validate(inst.Prog); err != nil {
			t.Errorf("%s: Validate: %v", k.Name, err)
		}
	}
}

// The registry/order maps are mutated only by init-time register()
// calls; afterwards they are read-only and safe for the experiment
// suite's concurrent jobs.  The input-image memo is written by the first
// Build of each (kernel, scale), so eight goroutines race to make the
// first builds of two scales no other test builds.  This test exercises
// every read path from many goroutines so `go test -race` verifies that
// claim.
func TestRegistryConcurrentReads(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, _ := ByName("gzip")
			if _, err := k.Build(3 + g%2); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				if len(All()) != 26 {
					t.Error("All() lost kernels")
					return
				}
				if _, ok := ByName("conv"); !ok {
					t.Error("ByName(conv) failed")
					return
				}
				_ = Names()
				_ = Extras()
				_ = HandOptimized()
			}
		}()
	}
	wg.Wait()
}

// TestInputImagesBuiltOnce: register's Build wrapper gives every build of
// one (kernel, scale) the same input image, and another scale its own.
// The images are as small as DESIGN.md's substitution row says: at scales
// 1 and 2, 25 of the paper's 26 kernels hold at most 24 KiB of input
// pages, and mcf's ring of 2,048 nodes 2 KiB apart holds 4 MiB.
func TestInputImagesBuiltOnce(t *testing.T) {
	for _, k := range All() {
		var prev *Instance
		for _, scale := range []int{1, 2} {
			a, err := k.Build(scale)
			if err != nil {
				t.Fatal(err)
			}
			b, err := k.Build(scale)
			if err != nil {
				t.Fatal(err)
			}
			if a.mem != b.mem || a.Prog == b.Prog {
				t.Errorf("%s at scale %d: two builds share an image %v and a program %v, want an image and not a program",
					k.Name, scale, a.mem == b.mem, a.Prog == b.Prog)
			}
			if prev != nil && prev.mem == a.mem {
				t.Errorf("%s: scales 1 and 2 share one image", k.Name)
			}
			prev = a
			switch n := a.mem.Bytes(); {
			case k.Name == "mcf" && n != 4<<20:
				t.Errorf("mcf at scale %d: %d B of input pages, want 4 MiB", scale, n)
			case k.Name != "mcf" && n > 24<<10:
				t.Errorf("%s at scale %d: %d B of input pages, want at most 24 KiB", k.Name, scale, n)
			}
		}
	}
}
