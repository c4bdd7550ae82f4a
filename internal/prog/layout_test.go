package prog_test

import (
	"hash/fnv"
	"testing"

	"github.com/clp-sim/tflex/internal/asm"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/kernels"
)

// layoutDigest is the FNV-1a digest of asm.Disassemble over the 26 kernels
// at scales 1 and 2 and edgegen seeds 0-199: every instruction ID, target
// field, LSID, predicate and read/write slot the builder assigns.
const layoutDigest uint64 = 0x9378a75055f1ea09

// TestLayoutPinned holds the builder's layout still: a rewrite of seal,
// placement or fan-out that moves any instruction ID, target or LSID
// changes the digest.  A change that moves the layout on purpose also moves
// cycle counts, so it updates this value beside TestFuzzCyclesPinned and
// TestGoldenScale2.
func TestLayoutPinned(t *testing.T) {
	ks := kernels.All()
	if len(ks) != 26 {
		t.Fatalf("%d kernels, want the paper's 26", len(ks))
	}
	h := fnv.New64a()
	for _, k := range ks {
		for scale := 1; scale <= 2; scale++ {
			inst, err := k.Build(scale)
			if err != nil {
				t.Fatalf("%s at scale %d: %v", k.Name, scale, err)
			}
			h.Write([]byte(asm.Disassemble(inst.Prog)))
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		p, err := edgegen.GenSpec(seed).Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h.Write([]byte(asm.Disassemble(p)))
	}
	if got := h.Sum64(); got != layoutDigest {
		t.Errorf("layout digest %#x, want %#x", got, layoutDigest)
	}
}
