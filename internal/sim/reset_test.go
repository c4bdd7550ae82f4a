package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/mem"
	"github.com/clp-sim/tflex/internal/noc"
	"github.com/clp-sim/tflex/internal/predictor"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// resetJob is one program with its input, run alone on a chip.
type resetJob struct {
	name string
	prog *prog.Program
	init func(*[isa.NumRegs]uint64, *exec.PageMem)
}

// jobTrace is everything a job leaves on the chip it ran on that a reset
// must keep from reaching the next job: its timing, its architectural
// result, and the statistics of every structure the chip keeps.
type jobTrace struct {
	Now, Events uint64
	Stats       sim.Stats
	Regs        [isa.NumRegs]uint64
	Mem         uint64
	Pred        predictor.Stats
	L1D         mem.CacheStats
	L2          mem.L2Stats
	DRAM        struct{ Requests, StallCycles uint64 }
	Opn, Ctl    noc.Stats
}

func runJob(t *testing.T, chip *sim.Chip, cores compose.Processor, j resetJob) jobTrace {
	t.Helper()
	proc := startJob(t, chip, cores, j)
	if err := chip.Run(1 << 24); err != nil { // about 240x the longest job
		t.Fatalf("%s on %d cores: %v", j.name, cores.N(), err)
	}
	return jobTrace{
		Now: chip.Now(), Events: chip.DomainStats()[0].Events,
		Stats: proc.Stats, Regs: proc.Regs, Mem: proc.Mem.Digest(), Pred: proc.Pred.Stats,
		L1D: chip.L1DStats(), L2: chip.L2.Stats, DRAM: chip.DRAM.Stats,
		Opn: chip.Opn.Stats(), Ctl: chip.Ctl.Stats(),
	}
}

func startJob(t *testing.T, chip *sim.Chip, cores compose.Processor, j resetJob) *sim.Proc {
	t.Helper()
	proc, err := chip.AddProc(cores, j.prog)
	if err != nil {
		t.Fatal(err)
	}
	j.init(&proc.Regs, proc.Mem)
	return proc
}

// checkReuse runs jobs in order on one chip, Reset between them, and
// holds each to the same job on a fresh chip: run A, reset, run B must
// leave exactly what B alone leaves.  Before every other job the chip
// also runs the job before it again, stopped by the cycle limit halfway,
// so that job follows a reset that finds events queued, blocks in flight
// and LSQ entries resident; the first pair (mcf then conv in the kernel
// walk) follows a finished run.
func checkReuse(t *testing.T, opts sim.Options, cores compose.Processor, jobs []resetJob) {
	t.Helper()
	fresh := map[string]jobTrace{}
	for _, j := range jobs {
		if _, ok := fresh[j.name]; !ok {
			fresh[j.name] = runJob(t, sim.New(opts), cores, j)
		}
	}
	chip := sim.New(opts)
	for i, j := range jobs {
		if i > 0 {
			chip.Reset()
		}
		if i > 0 && i%2 == 0 {
			prev := jobs[i-1]
			startJob(t, chip, cores, prev)
			if err := chip.Run(fresh[prev.name].Now / 2); err == nil {
				t.Fatalf("%s stopped at cycle %d finished", prev.name, fresh[prev.name].Now/2)
			}
			chip.Reset()
		}
		if got, want := runJob(t, chip, cores, j), fresh[j.name]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after %s on a reset chip:\n got %+v\nwant %+v", j.name, jobs[max(i-1, 0)].name, got, want)
		}
	}
}

// attribution is what a job reports with critical-path attribution and
// the metric registry armed: its cycles, the chip's and the processor's
// summaries, every committed block's breakdown in order, and the
// registry's snapshot.  An unarmed job reports its cycles alone.
type attribution struct {
	Cycles     uint64
	Chip, Proc critpath.Summary
	Blocks     []critpath.Breakdown
	Metrics    telemetry.Snapshot
}

func arm(chip *sim.Chip) *telemetry.Registry {
	reg := chip.Telemetry()
	chip.EnableCritPath()
	return reg
}

func runAttributed(t *testing.T, chip *sim.Chip, cores compose.Processor, j resetJob, armed bool) attribution {
	t.Helper()
	var reg *telemetry.Registry
	if armed {
		reg = arm(chip)
	}
	proc := startJob(t, chip, cores, j)
	var a attribution
	proc.TraceBlocks(func(ev sim.BlockEvent) {
		if ev.HasCritPath {
			a.Blocks = append(a.Blocks, ev.CritPath)
		}
	})
	if err := chip.Run(1 << 24); err != nil {
		t.Fatalf("%s on %d cores: %v", j.name, cores.N(), err)
	}
	a.Cycles, a.Chip, a.Proc = chip.Now(), chip.CritPath(), proc.CritPath()
	if reg != nil {
		a.Metrics = reg.Snapshot()
	}
	return a
}

// checkAttribution runs jobs in order on one chip, Reset between them,
// armed, armed, unarmed and so on, so that every order of an armed and an
// unarmed job occurs.  An armed job must attribute exactly as on a fresh
// armed chip; an unarmed one must carry no breakdown.  Before every other
// job the chip runs the job before it armed and stopped halfway, so the
// reset finds attribution records on blocks still in flight.
func checkAttribution(t *testing.T, opts sim.Options, cores compose.Processor, jobs []resetJob) {
	t.Helper()
	fresh := map[string]attribution{}
	for _, j := range jobs {
		if _, ok := fresh[j.name]; !ok {
			fresh[j.name] = runAttributed(t, sim.New(opts), cores, j, true)
		}
	}
	chip := sim.New(opts)
	armedBefore := false
	for i, j := range jobs {
		if i > 0 {
			chip.Reset()
		}
		if i > 0 && i%2 == 0 {
			prev := jobs[i-1]
			arm(chip)
			startJob(t, chip, cores, prev)
			if err := chip.Run(fresh[prev.name].Cycles / 2); err == nil {
				t.Fatalf("%s stopped at cycle %d finished", prev.name, fresh[prev.name].Cycles/2)
			}
			chip.Reset()
		}
		armed := i%3 != 2
		want := fresh[j.name]
		if !armed {
			want = attribution{Cycles: want.Cycles}
		}
		if got := runAttributed(t, chip, cores, j, armed); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (armed %v) after %s (armed %v) on a reset chip:\n got %+v\nwant %+v",
				j.name, armed, jobs[max(i-1, 0)].name, armedBefore, got, want)
		}
		armedBefore = armed
	}
}

// pairWalk returns a walk over 0..n-1 that steps along every ordered pair
// of distinct indices exactly once (an Euler circuit of the complete
// directed graph, by Hierholzer's algorithm): n(n-1)+1 visits.
func pairWalk(n int) []int {
	next := make([]int, n) // next[v]: offset of v's first unused out-edge
	for i := range next {
		next[i] = 1
	}
	var walk []int
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if next[v] < n {
			stack = append(stack, (v+next[v])%n)
			next[v]++
			continue
		}
		walk = append(walk, v)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(walk)
	return walk
}

// TestChipResetIsolation: a reset chip is a fresh chip.  Every job run
// after Reset must leave the cycle count, event count, processor and
// predictor statistics, registers, memory image, and L1, L2, DRAM and
// both meshes' statistics that the same job leaves on a chip from New,
// on both engines.  The jobs are 25 edgegen programs on 1 to 32 cores
// and under the TRIPS options, and the steady kernels at scale 1 in an
// order that follows every ordered pair, mcf before conv among them, so
// a heavy job's L2, predictor and ring state precedes every light one.
// The attribution leg runs the edgegen programs on 2 cores and the
// kernel walk on 8 with critical-path attribution and the metric
// registry armed on some jobs and not others (checkAttribution).
func TestChipResetIsolation(t *testing.T) {
	var fuzzJobs []resetJob
	for seed := int64(1); seed <= 25; seed++ {
		spec := edgegen.GenSpec(seed)
		p, err := spec.Build()
		if err != nil {
			t.Fatalf("seed %d does not build: %v", seed, err)
		}
		in := spec.Input()
		fuzzJobs = append(fuzzJobs, resetJob{fmt.Sprint("seed ", seed), p, func(r *[isa.NumRegs]uint64, m *exec.PageMem) {
			*r = in.Regs
			m.WriteBytes(in.MemBase, in.Mem)
		}})
	}
	var kernelJobs []resetJob
	for _, name := range []string{"mcf", "conv", "ct", "gcc", "ammp", "8b10b", "art", "bzip2"} {
		k, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		inst, err := k.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		kernelJobs = append(kernelJobs, resetJob{name, inst.Prog, inst.Init})
	}
	var kernelWalk []resetJob
	for _, i := range pairWalk(len(kernelJobs)) {
		kernelWalk = append(kernelWalk, kernelJobs[i])
	}

	for _, reference := range []bool{false, true} {
		opts, trips := sim.DefaultOptions(), tripsFuzzOptions()
		opts.Reference, trips.Reference = reference, reference
		engine := map[bool]string{false: "opt", true: "ref"}[reference]
		t.Run(engine, func(t *testing.T) {
			for _, n := range []int{1, 2, 4, 8, 16, 32} {
				checkReuse(t, opts, compose.MustRect(0, 0, n), fuzzJobs)
			}
			checkReuse(t, trips, compose.MustRect(0, 0, 16), fuzzJobs)
			for _, n := range []int{1, 8, 32} {
				checkReuse(t, opts, compose.MustRect(0, 0, n), kernelWalk)
			}
			t.Run("attribution", func(t *testing.T) {
				checkAttribution(t, opts, compose.MustRect(0, 0, 2), fuzzJobs)
				checkAttribution(t, opts, compose.MustRect(0, 0, 8), kernelWalk)
			})
		})
	}
}

// TestPairWalk: the kernel order of TestChipResetIsolation steps along
// every ordered pair once.
func TestPairWalk(t *testing.T) {
	const n = 8
	walk := pairWalk(n)
	seen := map[[2]int]bool{}
	for i := 1; i < len(walk); i++ {
		pair := [2]int{walk[i-1], walk[i]}
		if pair[0] == pair[1] || seen[pair] {
			t.Fatalf("walk %v steps along %v twice or in place", walk, pair)
		}
		seen[pair] = true
	}
	if len(seen) != n*(n-1) {
		t.Fatalf("walk %v steps along %d ordered pairs, want %d", walk, len(seen), n*(n-1))
	}
}

// registryRun runs j on chip and reads its metric registry: armed, the
// registry and attribution are armed before the processor is added;
// unarmed, the registry is built only after the run.  It returns the
// snapshot and the WriteJSON bytes.
func registryRun(t *testing.T, chip *sim.Chip, cores compose.Processor, j resetJob, armed bool) (telemetry.Snapshot, []byte) {
	t.Helper()
	if armed {
		arm(chip)
	}
	startJob(t, chip, cores, j)
	if err := chip.Run(1 << 24); err != nil {
		t.Fatalf("%s on %d cores: %v", j.name, cores.N(), err)
	}
	reg := chip.Telemetry()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot(), buf.Bytes()
}

// TestRegistryReuseIsInvisible: a reset chip keeps its metric registry,
// cleared, and the next Telemetry registers the new job's components in
// it.  That must not show.  After every reset, a job's snapshot and
// WriteJSON bytes equal the same job's on a fresh chip, armed or built
// after an unarmed run, so no name a larger composition registered
// (proc0.core17.issued) and no histogram count survives.  The default
// chip runs an armed 32-core job, an armed 1-core job, an unarmed one and
// an armed 8-core one; the TRIPS chip armed, unarmed and armed on its 16
// cores.  A registry frozen before a reset is not the chip's afterwards:
// the next job neither registers in it nor changes what it reads.  Both
// engines.
func TestRegistryReuseIsInvisible(t *testing.T) {
	var jobs []resetJob
	for seed := int64(1); seed <= 4; seed++ {
		spec := edgegen.GenSpec(seed)
		p, err := spec.Build()
		if err != nil {
			t.Fatalf("seed %d does not build: %v", seed, err)
		}
		in := spec.Input()
		jobs = append(jobs, resetJob{fmt.Sprint("seed ", seed), p, func(r *[isa.NumRegs]uint64, m *exec.PageMem) {
			*r = in.Regs
			m.WriteBytes(in.MemBase, in.Mem)
		}})
	}
	type step struct {
		cores int
		armed bool
	}
	for _, reference := range []bool{false, true} {
		opts, trips := sim.DefaultOptions(), tripsFuzzOptions()
		opts.Reference, trips.Reference = reference, reference
		engine := map[bool]string{false: "opt", true: "ref"}[reference]
		t.Run(engine, func(t *testing.T) {
			for _, chip := range []struct {
				name  string
				opts  sim.Options
				steps []step
			}{
				{"default", opts, []step{{32, true}, {1, true}, {1, false}, {8, true}}},
				{"trips", trips, []step{{16, true}, {16, false}, {16, true}}},
			} {
				c := sim.New(chip.opts)
				for i, s := range chip.steps {
					if i > 0 {
						c.Reset()
					}
					j, cores := jobs[i], compose.MustRect(0, 0, s.cores)
					snap, js := registryRun(t, c, cores, j, s.armed)
					wantSnap, wantJS := registryRun(t, sim.New(chip.opts), cores, j, s.armed)
					what := fmt.Sprintf("%s chip, step %d: %s on %d cores (armed %v)", chip.name, i, j.name, s.cores, s.armed)
					if _, ok := snap["proc0.core17.issued"]; ok && s.cores == 1 {
						t.Errorf("%s: snapshot holds proc0.core17.issued", what)
					}
					if !reflect.DeepEqual(snap, wantSnap) {
						t.Errorf("%s: snapshot differs from a fresh chip's:\n got %v\nwant %v", what, snap, wantSnap)
					}
					if !bytes.Equal(js, wantJS) {
						t.Errorf("%s: WriteJSON differs from a fresh chip's", what)
					}
				}
				frozen := c.Telemetry()
				frozen.Freeze()
				want := frozen.Snapshot()
				c.Reset()
				registryRun(t, c, compose.MustRect(0, 0, chip.steps[0].cores), jobs[len(jobs)-1], true)
				if c.Telemetry() == frozen {
					t.Errorf("%s chip: the registry frozen before a reset serves the next job", chip.name)
				}
				if got := frozen.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s chip: a frozen registry changed over a reset and a job:\n got %v\nwant %v", chip.name, got, want)
				}
			}
		})
	}
}
