package fuzz

import (
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/arch"
	"github.com/clp-sim/tflex/internal/asm"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// CorpusSize is the fixed-seed corpus the tier-1 gate runs: every seed
// in [0, CorpusSize) must agree across all executors on 1/2/4-core
// compositions.
const CorpusSize = 200

// TestFuzzCorpus is the bounded differential gate: 200 fixed seeds,
// eight executors each (functional, conv-trace, sim-opt and sim-ref on
// 1/2/4 cores), zero divergences.
func TestFuzzCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus pass is the long differential gate")
	}
	h := New()
	for seed := int64(0); seed < CorpusSize; seed++ {
		d, err := h.CheckSeed(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d != nil {
			d = h.Shrink(d)
			path, derr := DumpTFA(d)
			if derr != nil {
				path = "(dump failed: " + derr.Error() + ")"
			}
			t.Fatalf("%s\nshrunk reproducer: %s", d.Report(), path)
		}
	}
}

// FuzzDifferential is the native open-ended entry point:
//
//	go test -fuzz=FuzzDifferential ./internal/fuzz
//
// The fuzzing engine mutates the seed; every derived program must
// build directly as it assembles from its text, and agree across
// executors.  Plain `go test` runs just the f.Add corpus.
func FuzzDifferential(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	h := New()
	f.Fuzz(func(t *testing.T, seed int64) {
		buildMatchesAssembly(t, edgegen.GenSpec(seed))
		d, err := h.CheckSeed(seed)
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			d = h.Shrink(d)
			path, derr := DumpTFA(d)
			if derr != nil {
				path = "(dump failed: " + derr.Error() + ")"
			}
			t.Fatalf("%s\nshrunk reproducer: %s", d.Report(), path)
		}
	})
}

// FuzzParseTFA feeds hostile text to the .tfa reader:
//
//	go test -run=NONE -fuzz=FuzzParseTFA ./internal/fuzz
//
// Any input gives a program and its input or an error, never a panic,
// and a program it returns passes prog.Validate and disassembles.  The
// seeds are generated programs and one whole reproducer; crashers found
// so far replay from testdata/fuzz/FuzzParseTFA under plain `go test`.
func FuzzParseTFA(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(edgegen.GenSpec(seed).Asm())
	}
	var tfa strings.Builder
	if err := WriteTFA(&tfa, &Divergence{Spec: edgegen.GenSpec(1), Exec: "sim-opt-2", Diff: "r3 0x1 vs 0x2"}); err != nil {
		f.Fatal(err)
	}
	f.Add(tfa.String())
	f.Fuzz(func(t *testing.T, src string) {
		p, _, err := ParseTFA(src)
		if err != nil {
			return
		}
		if err := prog.Validate(p); err != nil {
			t.Fatalf("ParseTFA returned a program that fails Validate: %v", err)
		}
		asm.Disassemble(p)
	})
}

// TestParseTFARejectsHostileImages pins the typed errors for the two
// crashers FuzzParseTFA's corpus replays: input.mem lines far apart (a
// span make cannot hold) and one running past the address space (a
// slice index off the image).
func TestParseTFARejectsHostileImages(t *testing.T) {
	for _, src := range []string{
		"; input.mem 0x0 01\n; input.mem 0x7fffffffffff0000 01\nblock a:\n    halt\n",
		"; input.mem 0x0 01\n; input.mem 0xffffffffffffffff 0102\nblock a:\n    halt\n",
	} {
		if _, _, err := ParseTFA(src); err == nil || !strings.HasPrefix(err.Error(), "tfa: line 2: ") {
			t.Errorf("ParseTFA(%q) = %v, want a tfa: line 2: error", src, err)
		}
	}
}

// buggyMul wraps an executor with a deliberate semantic bug: any
// program containing a mul mis-sets a register.  The divergence must
// be caught and shrunk to a minimal mul-bearing reproducer.
type buggyMul struct{ inner arch.Executor }

func (b buggyMul) Name() string { return "buggy-" + b.inner.Name() }

func (b buggyMul) Run(p *prog.Program, in arch.Input) (arch.State, error) {
	st, err := b.inner.Run(p, in)
	if err != nil {
		return st, err
	}
	if hasMul(p) {
		st.Regs[7] ^= 1 // the injected bug
	}
	return st, nil
}

func hasMul(p *prog.Program) bool {
	for _, blk := range p.Blocks {
		for i := range blk.Insts {
			if blk.Insts[i].Op == isa.OpMul {
				return true
			}
		}
	}
	return false
}

func hasMulSpec(s *edgegen.Spec) bool {
	for _, blk := range s.Blocks {
		for _, op := range blk.Ops {
			if (op.Kind == edgegen.KALU || op.Kind == edgegen.KALUImm) && op.Op == isa.OpMul {
				return true
			}
		}
	}
	return false
}

// TestInjectedBugCaughtAndShrunk is the acceptance check on the whole
// harness: a seeded semantic bug is detected as a divergence and shrunk
// to a minimal reproducer that still carries the trigger.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	// Deterministically find a seed whose program multiplies.
	seed := int64(-1)
	for c := int64(0); c < 100; c++ {
		if hasMulSpec(edgegen.GenSpec(c)) {
			seed = c
			break
		}
	}
	if seed < 0 {
		t.Fatal("no mul-bearing program in the first 100 seeds; generator weights broken")
	}
	h := &Harness{Execs: []arch.Executor{arch.Functional{}, buggyMul{arch.Functional{}}}}
	spec := edgegen.GenSpec(seed)
	d, err := h.Check(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("injected bug not detected")
	}
	if !strings.Contains(d.Exec, "buggy") {
		t.Fatalf("divergence attributed to %s, want the buggy executor", d.Exec)
	}

	shrunk := h.Shrink(d)
	if shrunk.Spec.Size() >= spec.Size() {
		t.Errorf("shrinking made no progress: %d -> %d", spec.Size(), shrunk.Spec.Size())
	}
	// Minimal mul reproducer: one block holding a constant and a mul
	// (plus the implicit halt).  Allow a little slack, but a double-
	// digit result means a shrinking pass regressed.
	if shrunk.Spec.Size() > 4 {
		t.Errorf("shrunk reproducer has size %d, want <= 4:\n%s", shrunk.Spec.Size(), shrunk.Spec.Asm())
	}
	if len(shrunk.Spec.Blocks) != 1 {
		t.Errorf("shrunk reproducer has %d blocks, want 1", len(shrunk.Spec.Blocks))
	}
	if !hasMulSpec(shrunk.Spec) {
		t.Error("shrunk reproducer lost the mul that triggers the bug")
	}
	// The shrunk spec must still be a complete, checkable program.
	if dv, err := h.Check(shrunk.Spec); err != nil || dv == nil {
		t.Errorf("shrunk reproducer no longer diverges (err=%v)", err)
	}
}

// TestTFARoundTrip pins that a dumped reproducer replays to the same
// architectural state as the in-memory spec it was dumped from, over
// enough seeds to cover at least one store-bearing program.
func TestTFARoundTrip(t *testing.T) {
	sawStores := false
	for seed := int64(0); seed < 20; seed++ {
		spec := edgegen.GenSpec(seed)
		d := &Divergence{Spec: spec, Exec: "sim-opt-2", Diff: "r3 0x1 vs 0x2"}
		var b strings.Builder
		if err := WriteTFA(&b, d); err != nil {
			t.Fatal(err)
		}
		text := b.String()

		p1, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		st1, err := (arch.Functional{}).Run(p1, spec.Input())
		if err != nil {
			t.Fatal(err)
		}

		p2, in2, err := ParseTFA(text)
		if err != nil {
			t.Fatalf("seed %d: ParseTFA: %v\ntfa:\n%s", seed, err, text)
		}
		st2, err := (arch.Functional{}).Run(p2, in2)
		if err != nil {
			t.Fatal(err)
		}
		if diff := st2.Diff(st1); diff != "" {
			t.Fatalf("seed %d: replayed .tfa diverges from its source spec: %s", seed, diff)
		}
		if st1.Stores > 0 {
			sawStores = true
		}
	}
	if !sawStores {
		t.Error("no seed in [0,20) produced stores; round-trip never exercised input.mem")
	}
}
