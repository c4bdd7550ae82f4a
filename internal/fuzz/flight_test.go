package fuzz

import (
	"os"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/arch"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/prog"
)

// buggySim embeds the real timing executor and corrupts its result, so
// a forced divergence is attributed to a sim composition (Cores > 0)
// and DumpTFA must attach a flight sidecar.
type buggySim struct{ arch.Sim }

func (b buggySim) Run(p *prog.Program, in arch.Input) (arch.State, error) {
	st, err := b.Sim.Run(p, in)
	if err != nil {
		return st, err
	}
	st.Regs[7] ^= 1 // the injected bug
	return st, nil
}

// TestForcedDivergenceCarriesFlightDump is the acceptance check for the
// flight/fuzz integration: a forced sim divergence, once shrunk and
// dumped, leaves a parseable flight-recorder sidecar next to the .tfa
// reproducer with at least one commit record in it.
func TestForcedDivergenceCarriesFlightDump(t *testing.T) {
	h := &Harness{Execs: []arch.Executor{arch.Functional{}, buggySim{arch.Sim{Cores: 2}}}}
	d, err := h.Check(edgegen.GenSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("injected sim bug not detected")
	}
	if d.Cores != 2 {
		t.Fatalf("Divergence.Cores = %d, want 2 (embedded arch.Sim lost its composition)", d.Cores)
	}
	d = h.Shrink(d)
	path, err := DumpTFA(d)
	if err != nil {
		t.Fatalf("DumpTFA: %v", err)
	}
	defer os.Remove(path)
	side := path + ".flight.json"
	defer os.Remove(side)
	f, err := os.Open(side)
	if err != nil {
		t.Fatalf("flight sidecar missing: %v", err)
	}
	defer f.Close()
	dump, err := flight.ParseDump(f)
	if err != nil {
		t.Fatalf("sidecar does not parse: %v", err)
	}
	if len(dump.Records(flight.KCommit)) == 0 {
		t.Error("sidecar has no commit records; replay recorded nothing")
	}
	if !strings.HasSuffix(side, ".tfa.flight.json") {
		t.Errorf("sidecar path %q does not sit next to the reproducer", side)
	}
}

// TestFlightReplaySurvivesFailingRun pins that FlightReplay returns a
// dump even for a program whose timing run errors out (here: a cycle
// budget too small to finish) — the dump is the post-mortem, and its
// in-flight half names the blocks the run stopped on.
func TestFlightReplaySurvivesFailingRun(t *testing.T) {
	spec := edgegen.GenSpec(3)
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := spec.Input()
	in.MaxCycles = 10 // guaranteed mid-run stop
	dump, err := FlightReplay(p, in, 1, 128)
	if err != nil {
		t.Fatalf("FlightReplay: %v", err)
	}
	if dump == nil {
		t.Fatal("no dump from a failing run; the post-mortem path is broken")
	}
	if len(dump.InFlight) == 0 {
		t.Fatal("a run stopped at cycle 10 left no blocks in flight in its dump")
	}
	for _, b := range dump.InFlight {
		if b.RetiredAt != 0 || b.FetchStart > 10 {
			t.Errorf("in-flight block %+v: retired, or fetched after the run stopped", b)
		}
	}
}
