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
// suite's concurrent jobs.  This test exercises every read path from many
// goroutines so `go test -race` verifies that claim.
func TestRegistryConcurrentReads(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
