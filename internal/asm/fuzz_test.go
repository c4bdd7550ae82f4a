package asm_test

import (
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/asm"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/fuzz"
	"github.com/clp-sim/tflex/internal/prog"
)

// FuzzAssemble feeds hostile text to the assembler:
//
//	go test -run=NONE -fuzz=FuzzAssemble ./internal/asm
//
// Any input gives a program or an error, never a panic, and a program
// it returns passes prog.Validate and disassembles.  The seeds are
// generated programs and one whole .tfa reproducer (its input lines are
// comments to the assembler); crashers found so far replay from
// testdata/fuzz/FuzzAssemble under plain `go test`.
func FuzzAssemble(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(edgegen.GenSpec(seed).Asm())
	}
	var tfa strings.Builder
	if err := fuzz.WriteTFA(&tfa, &fuzz.Divergence{Spec: edgegen.GenSpec(1), Exec: "sim-opt-2", Diff: "r3 0x1 vs 0x2"}); err != nil {
		f.Fatal(err)
	}
	f.Add(tfa.String())
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			return
		}
		if err := prog.Validate(p); err != nil {
			t.Fatalf("Assemble returned a program that fails Validate: %v", err)
		}
		asm.Disassemble(p)
	})
}
