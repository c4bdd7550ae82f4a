package experiments

import (
	"fmt"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/conv"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/power"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/trips"
)

// Machine-configuration names: the values of Spec.Config, each a
// row of machines.
const (
	cfgTFlex  = "tflex"
	cfgTRIPS  = "trips"
	cfgCore2  = "core2"
	cfgZeroHS = "zero-handshake"
	cfgAblate = "ablate:" // prefix; an ablation's row is cfgAblate + its name
)

// machine is one row of the configuration table: everything that
// distinguishes one evaluated machine from another.  The engine, the
// kernels and the validation are the same for every row.
type machine struct {
	// options builds the chip's simulator options; nil marks the one row
	// that has no chip and runs conv over the functional trace instead.
	options func() sim.Options
	// shape maps the spec's Cores to the processor composed on the chip
	// and to the core and FPU counts the power model is told.
	shape func(cores int) (p compose.Processor, powerCores, fpus int)
	// critpath arms cycle-exact critical-path attribution.
	critpath bool
}

// composed is the TFlex shape: the n-core rectangle at the array origin,
// n cores of latches and one FPU per core.
func composed(n int) (compose.Processor, int, int) { return compose.MustRect(0, 0, n), n, n }

// tripsTiles is the TRIPS shape whatever the spec's Cores.  Clock-tree
// power scales with latch counts (paper §6.3): the TRIPS processor's
// tiles carry roughly the latch count of 8 TFlex cores, plus one FPU per
// execution tile (twice the FPUs of an equal-width TFlex composition —
// the paper's idle-FPU asymmetry).
func tripsTiles(int) (compose.Processor, int, int) { return trips.Processor(), 8, trips.NumTiles }

// tflexWith is the default TFlex options with one parameter flipped.
func tflexWith(mod func(*sim.Options)) func() sim.Options {
	return func() sim.Options {
		o := sim.DefaultOptions()
		mod(&o)
		return o
	}
}

// machines lists every machine configuration the evaluation runs, by
// its Spec.Config name.
var machines = func() map[string]machine {
	m := map[string]machine{
		cfgTFlex:  {options: sim.DefaultOptions, shape: composed, critpath: true},
		cfgTRIPS:  {options: trips.Options, shape: tripsTiles},
		cfgCore2:  {},
		cfgZeroHS: {options: tflexWith(func(o *sim.Options) { o.ZeroHandshake = true }), shape: composed},
	}
	for _, a := range ablations {
		m[a.config()] = machine{options: tflexWith(a.mod), shape: composed}
	}
	return m
}()

// simulate runs one job: it takes the spec's kernel at the spec's scale
// from the suite's build memo, executes it on the machine the spec's
// config names and validates the outputs against the reference.  A chip
// job runs on an idle chip of its machine row (takeChip), which goes back
// reset once collect has copied the results out, on the error paths too
// (putChip).  A reset chip parks one processor of each size it has run
// for AddProc to take, so one chip per row per running job serves every
// composition size.  When an observer is set (SetObserver), a chip run
// additionally enables critical-path attribution into the server's
// rolling aggregate and publishes registry snapshots mid-run; both are
// passive, so the architectural results are identical with or without
// observation.
func (s *Suite) simulate(sp Spec) (RunResult, error) {
	m, ok := machines[sp.Config]
	if !ok {
		return RunResult{}, fmt.Errorf("unknown job config %q", sp.Config)
	}
	inst, err := s.instance(sp.Kernel, sp.Scale)
	if err != nil {
		return RunResult{}, err
	}
	if m.options == nil {
		return s.conventional(inst)
	}
	chip := s.takeChip(sp.Config, m.options)
	defer s.putChip(sp.Config, chip)
	if m.critpath {
		chip.EnableCritPath()
	}
	chip.Telemetry() // arm metrics pre-run so histograms observe the blocks
	if s.obs != nil {
		s.obs.Attach(chip, chip.SampleEvery(16384))
	}
	shape, powerCores, fpus := m.shape(sp.Cores)
	proc, err := chip.AddProc(shape, inst.Prog)
	if err != nil {
		return RunResult{}, err
	}
	inst.Init(&proc.Regs, proc.Mem)
	if err := chip.Run(MaxCycles); err != nil {
		return RunResult{}, err
	}
	if s.obs != nil {
		s.obs.PublishChip(chip)
	}
	if err := inst.Check(&proc.Regs, proc.Mem); err != nil {
		return RunResult{}, fmt.Errorf("output validation: %w", err)
	}
	return collect(chip, proc, powerCores, fpus), nil
}

// takeChip returns an idle chip of the machine row, or builds one from
// the row's options when none is idle.  The caller holds it alone until
// putChip.
func (s *Suite) takeChip(row string, options func() sim.Options) *sim.Chip {
	s.mu.Lock()
	var chip *sim.Chip
	if idle := s.chips[row]; len(idle) > 0 {
		chip, s.chips[row] = idle[len(idle)-1], idle[:len(idle)-1]
	}
	s.mu.Unlock()
	if chip == nil {
		chip = sim.New(options())
	}
	return chip
}

// putChip resets a chip whose job is done with it and files it as idle
// for the row's next job.
func (s *Suite) putChip(row string, chip *sim.Chip) {
	chip.Reset()
	s.mu.Lock()
	s.chips[row] = append(s.chips[row], chip)
	s.mu.Unlock()
}

// conventional runs the kernel on the conventional superscalar model,
// via the linearized functional trace.  The trace is recorded into an
// idle buffer of the suite's, emptied, so a Core2 job regrows no trace
// an earlier one already grew.
func (s *Suite) conventional(inst *kernels.Instance) (RunResult, error) {
	s.mu.Lock()
	t := &exec.Trace{}
	if n := len(s.traces); n > 0 {
		t, s.traces = s.traces[n-1], s.traces[:n-1]
		t.Entries, t.Blocks, t.Truncated = t.Entries[:0], t.Blocks[:0], false
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.traces = append(s.traces, t)
		s.mu.Unlock()
	}()
	m := exec.NewMachine(inst.Prog)
	m.Trace = t
	inst.Init(&m.Regs, m.Mem.(*exec.PageMem))
	if _, err := m.Run(50_000_000); err != nil {
		return RunResult{}, err
	}
	if err := inst.Check(&m.Regs, m.Mem.(*exec.PageMem)); err != nil {
		return RunResult{}, err
	}
	if t.Truncated {
		return RunResult{}, fmt.Errorf("conventional: trace truncated at %d entries", len(t.Entries))
	}
	return RunResult{Cycles: conv.Run(t.Entries, conv.DefaultConfig()).Cycles}, nil
}

// collect gathers a finished chip run: the processor's statistics, the
// power model's activity counts read off the processor, meshes, caches
// and DRAM, the attribution summary and the registry snapshot -metrics
// exports.
func collect(chip *sim.Chip, proc *sim.Proc, cores, fpus int) RunResult {
	st := proc.Stats
	pc := power.Counters{
		Cycles: st.Cycles,
		Cores:  cores,
		FPUs:   fpus,

		BlockFetches: st.BlocksFetched,
		Predictions:  proc.Pred.Stats.Predictions,
		IntOps:       st.InstsFired - st.FPFired,
		FPOps:        st.FPFired,
		RegReads:     st.RegReads,
		RegWrites:    st.RegWrites,
		L1DAccesses:  chip.L1DStats().Accesses,
		LSQOps:       st.Loads + st.Stores,
		RouterFlits:  chip.Opn.Stats().Hops + chip.Ctl.Stats().Hops,
		L2Accesses:   chip.L2.Stats.Accesses,
		DRAMAccesses: chip.DRAM.Stats.Requests,
	}
	return RunResult{
		Cycles:   st.Cycles,
		Stats:    st,
		Counters: pc,
		Crit:     chip.CritPath(),
		Metrics:  chip.Telemetry().Snapshot(),
	}
}
