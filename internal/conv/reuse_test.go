package conv_test

import (
	"testing"

	"github.com/clp-sim/tflex/internal/conv"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/kernels"
)

// TestRunOnReusedStateMatchesFresh runs kernel and generated-program
// traces back to back on one model state, the way Run reuses its pooled
// states, and holds each result to the one a fresh state gives.  The
// traces differ in length both ways, so a reused state sees a shorter
// trace after a longer one and the reverse, and each runs twice in a
// row: warm caches, predictor tables, rings and store lists would each
// move some result if a reset missed them.
func TestRunOnReusedStateMatchesFresh(t *testing.T) {
	var traces [][]exec.TraceEntry
	for _, name := range []string{"conv", "mcf", "8b10b", "art", "gzip"} {
		k, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		inst, err := k.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		m := exec.NewMachine(inst.Prog)
		inst.Init(&m.Regs, m.Mem.(*exec.PageMem))
		traces = append(traces, trace(t, m))
	}
	for seed := int64(1); seed <= 8; seed++ {
		spec := edgegen.GenSpec(seed)
		p, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		in := spec.Input()
		m := exec.NewMachine(p)
		m.Regs = in.Regs
		if len(in.Mem) > 0 {
			m.Mem.(*exec.PageMem).WriteBytes(in.MemBase, in.Mem)
		}
		traces = append(traces, trace(t, m))
	}
	// A branch taken 20 times fills the global history with ones and
	// trains the gshare counter it then indexes; a second branch whose PC
	// differs from the first only above the history bits indexes the same
	// counter, so its first instance is predicted taken and only a BTB
	// entry a reset kept could make that prediction correct.
	var btbProbe []exec.TraceEntry
	for range 20 {
		btbProbe = append(btbProbe, exec.TraceEntry{Src1: -1, Src2: -1, LSID: -1, IsBranch: true, Taken: true})
	}
	btbProbe = append(btbProbe, exec.TraceEntry{PC: 1 << 13, Src1: -1, Src2: -1, LSID: -1, IsBranch: true, Taken: true, Target: 64})
	traces = append(traces, btbProbe)

	cfg := conv.DefaultConfig()
	reused := conv.NewState(cfg)
	for i, tr := range traces {
		want := conv.NewState(cfg).Run(tr)
		for rep := range 2 { // the same trace again finds its own branch targets and stores if a reset kept them
			if got := reused.Run(tr); got != want {
				t.Errorf("trace %d (%d entries), run %d: reused state %+v, fresh state %+v", i, len(tr), rep, got, want)
			}
			if got := conv.Run(tr, cfg); got != want {
				t.Errorf("trace %d (%d entries), run %d: Run %+v, fresh state %+v", i, len(tr), rep, got, want)
			}
		}
	}
}

// trace runs m to its halt and returns its linearized trace.
func trace(t *testing.T, m *exec.Machine) []exec.TraceEntry {
	t.Helper()
	m.Trace = &exec.Trace{}
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return m.Trace.Entries
}
