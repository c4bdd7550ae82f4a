package tflex

import (
	"strings"
	"testing"
)

func TestPublicAPIBuildAndRun(t *testing.T) {
	b := NewBuilder()
	bb := b.Block("loop")
	i := bb.Read(2)
	bb.Write(3, bb.Add(bb.Read(3), i))
	i2 := bb.AddI(i, 1)
	bb.Write(2, i2)
	bb.BranchIf(bb.OpI(OpLt, i2, 100), "loop", "done")
	b.Block("done").Halt()
	program := b.MustProgram("loop")

	ref, err := Verify(program, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(program, RunConfig{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[3] != ref.Regs[3] {
		t.Fatalf("timing run r3=%d, reference %d", res.Regs[3], ref.Regs[3])
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestPublicAPIKernels(t *testing.T) {
	if len(Kernels()) != 26 {
		t.Fatalf("suite has %d kernels", len(Kernels()))
	}
	if len(KernelNames()) != 26 {
		t.Fatal("names mismatch")
	}
	if _, err := BuildKernel("nope", 1); err == nil {
		t.Fatal("unknown kernel should error")
	}
	res, err := RunKernel("tblook", 1, RunConfig{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BlocksCommitted == 0 {
		t.Fatal("no blocks committed")
	}
}

func TestPublicAPITRIPS(t *testing.T) {
	res, err := RunKernel("dither", 1, RunConfig{TRIPS: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
	if TRIPSProcessor().N() != 16 {
		t.Fatal("TRIPS is 16 tiles")
	}
}

func TestPublicAPIComposition(t *testing.T) {
	if NumCores != 32 {
		t.Fatal("chip has 32 cores")
	}
	p, err := ComposeRect(0, 0, 8)
	if err != nil || p.N() != 8 {
		t.Fatalf("rect: %v %d", err, p.N())
	}
	parts, err := Partition(4, 8)
	if err != nil || len(parts) != 8 {
		t.Fatalf("partition: %v %d", err, len(parts))
	}
	asym, err := PartitionAsymmetric([]int{16, 8, 4, 4})
	if err != nil || len(asym) != 4 {
		t.Fatalf("asymmetric: %v %d", err, len(asym))
	}
	if _, err := ComposeRect(0, 0, 5); err == nil {
		t.Fatal("size 5 unsupported")
	}
}

func TestPublicAPIRunConfigDefaults(t *testing.T) {
	b := NewBuilder()
	bb := b.Block("m")
	bb.Write(1, bb.Const(7))
	bb.Halt()
	res, err := Run(b.MustProgram("m"), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[1] != 7 {
		t.Fatalf("r1 = %d", res.Regs[1])
	}
}

func TestPublicAPIStripComposition(t *testing.T) {
	p, err := ComposeStrip(4, 5)
	if err != nil || p.N() != 5 {
		t.Fatalf("strip: %v %d", err, p.N())
	}
	// Run a kernel on a 5-core (non-power-of-two) composition.
	res, err := RunKernel("rspeed", 1, RunConfig{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	chip := NewChip(DefaultOptions())
	inst, err := BuildKernel("rspeed", 1)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := chip.AddProc(p, inst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	inst.Init(&proc.Regs, proc.Mem)
	if err := chip.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(&proc.Regs, proc.Mem); err != nil {
		t.Fatal(err)
	}
	_ = res
}

// TestPublicAPIRejectsWhatItCannotBuild: bank indices outside the
// composition and a missing program are sim: errors from the public
// entry points, on both engines, where they used to panic mid-run.
func TestPublicAPIRejectsWhatItCannotBuild(t *testing.T) {
	tripsOn8 := TRIPSOptions()
	negative := DefaultOptions()
	negative.DBanks = []int{-1}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"TRIPS banks on an 8-core rectangle", tripsOn8},
		{"a negative D-bank", negative},
	} {
		for _, reference := range []bool{false, true} {
			opts := tc.opts
			opts.Reference = reference
			_, err := RunKernel("conv", 1, RunConfig{Cores: 8, Options: &opts})
			if err == nil || !strings.Contains(err.Error(), "sim: ") {
				t.Errorf("%s (reference %t): RunKernel returned %v, want a sim: error", tc.name, reference, err)
			}
		}
	}
	if _, err := Run(nil, RunConfig{}); err == nil || !strings.Contains(err.Error(), "sim: ") {
		t.Errorf("Run(nil) returned %v, want a sim: error", err)
	}
	cores, err := ComposeRect(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMulti([]ProgramSpec{{Cores: cores}}, RunConfig{}); err == nil || !strings.Contains(err.Error(), "sim: ") {
		t.Errorf("RunMulti with a nil Prog returned %v, want a sim: error", err)
	}
}
