package tflex

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/experiments"
	"github.com/clp-sim/tflex/internal/mem"
	"github.com/clp-sim/tflex/internal/noc"
	"github.com/clp-sim/tflex/internal/obs"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// The invariant harness: one definition of "the same job gives the same
// result" (DESIGN.md, "One invariant harness").  A case is a program with
// its input, the chip Options and a composition; a cell runs it at one
// point of the axes.  Its digest must equal its baseline's, the same case
// and observers on a fresh chip, the optimized engine and GOMAXPROCS 1,
// and its core the unobserved baseline's.  Each test below owns rows.

// obsSet is the set of observers a cell arms.
type obsSet uint8

const (
	obsCrit   obsSet = 1 << iota // critical-path attribution
	obsReg                       // the metric registry and a 64-cycle sampler
	obsFlight                    // a 256-record flight ring
	obsTrace                     // OnBlock and a Chrome trace
	obsAll    = obsCrit | obsReg | obsFlight | obsTrace
)

// chipWay is where a cell's chip comes from.  The previous case is the
// nearest one before it in its list with equal options, cyclically; it
// runs with every observer but the trace before every other case, and
// with none before the rest.
type chipWay uint8

const (
	fresh  chipWay = iota // sim.New
	pooled                // sim.Acquire after the previous case released it
	reset                 // Reset after the previous case stopped halfway
)

// cell is one point of the axes; its zero value is the baseline.
type cell struct {
	ref   bool // Options.Reference
	obs   obsSet
	chip  chipWay
	procs bool // GOMAXPROCS N, four goroutines running the cell at once
}

// invCase is one row: programs on processors of one chip.
type invCase struct {
	name  string
	opts  Options
	specs []ProgramSpec
	insts []*KernelInstance // validate the outputs; nil for generated programs
	cells []cell
}

// digest is what a run reports.  Core may depend on no axis; Obs is what
// the armed observers saw.
type digest struct {
	Core struct {
		Now, Events uint64
		L1D         mem.CacheStats
		L2          mem.L2Stats
		DRAM        struct{ Requests, StallCycles uint64 }
		Opn, Ctl    noc.Stats
		Progs       []progDigest
	}
	Obs struct {
		Crit          []CritPathSummary
		CritBlocks    []byte // every committed block's (Seq, CritPath)
		Metrics, Snap MetricsSnapshot
		JSON          []byte // Telemetry.WriteJSON, histogram buckets included
		Series        []telemetry.Series
		Flight, Mid   *FlightDump // at the end, and at the 16th retirement
		Blocks        []BlockEvent
		Trace         []byte
	}
}

type progDigest struct {
	Stats Stats
	Regs  [128]uint64
	Arch  ArchState // the memory and committed-store digests
}

// run is what a run captured, and its Results, which only digest reads.
type run struct {
	d       digest
	results []*Result
	trace   *Trace
}

// start runs c on chip with the observers obs, stopping at maxCycles (0:
// 1<<24, 40 times the longest case, so a livelock fails), and reads the chip.
func start(chip *Chip, c *invCase, obs obsSet, maxCycles uint64) (*run, error) {
	r := &run{}
	cfg := RunConfig{MaxCycles: cmp.Or(maxCycles, 1<<24), ArchDigest: true, CritPath: obs&obsCrit != 0}
	if obs&obsReg != 0 {
		cfg.CollectMetrics, cfg.SampleEvery = true, 64
	}
	if obs&obsFlight != 0 {
		cfg.FlightEvents = 256
	}
	if obs&obsTrace != 0 {
		r.trace = NewTrace()
		cfg.ChromeTrace = r.trace
	}
	var rec [8 * (1 + NumCritPathCategories)]byte
	if obs&(obsTrace|obsCrit) != 0 {
		cfg.OnBlock = func(ev BlockEvent) {
			if obs&obsTrace != 0 {
				if r.d.Obs.Blocks = append(r.d.Obs.Blocks, ev); len(r.d.Obs.Blocks) == 16 {
					r.d.Obs.Mid = chip.FlightDump()
				}
			}
			if ev.HasCritPath {
				binary.LittleEndian.PutUint64(rec[:], ev.Seq)
				for i, v := range ev.CritPath {
					binary.LittleEndian.PutUint64(rec[8*(i+1):], v)
				}
				r.d.Obs.CritBlocks = append(r.d.Obs.CritBlocks, rec[:]...)
			}
		}
	}
	var err error
	r.results, err = runOn(chip, c.specs, cfg)
	if blocks := chip.CritPath().Blocks; obs&obsCrit == 0 && (blocks != 0 || len(r.d.Obs.CritBlocks) != 0) && err == nil {
		err = fmt.Errorf("attribution unarmed, yet the chip attributed %d blocks and %d block events carry a breakdown",
			blocks, len(r.d.Obs.CritBlocks)/len(rec))
	}
	co := &r.d.Core
	co.Now, co.Events, co.L1D, co.L2, co.DRAM = chip.Now(), chip.Events(), chip.L1DStats(), chip.L2.Stats, chip.DRAM.Stats
	co.Opn, co.Ctl = chip.Opn.Stats(), chip.Ctl.Stats()
	return r, err
}

// digest reads the run's Results, for a pooled cell after the next run
// on its chip, so a Result that aliased the chip shows that run's values.
func (r *run) digest(t *testing.T) digest {
	jsonOf := func(v interface{ WriteJSON(io.Writer) error }) []byte {
		var b bytes.Buffer
		if err := v.WriteJSON(&b); err != nil {
			t.Error(err)
		}
		return b.Bytes()
	}
	d := r.d
	for _, res := range r.results {
		d.Core.Progs = append(d.Core.Progs, progDigest{res.Stats, res.Regs, *res.Arch})
		if res.CritPath != nil {
			d.Obs.Crit = append(d.Obs.Crit, *res.CritPath)
		}
	}
	if res := r.results[0]; res.Telemetry != nil {
		d.Obs.Metrics, d.Obs.Snap, d.Obs.JSON, d.Obs.Series = res.Metrics, res.Telemetry.Snapshot(), jsonOf(res.Telemetry), res.Samples.Series()
	}
	if d.Obs.Flight = r.results[0].Flight; r.trace != nil {
		d.Obs.Trace = jsonOf(r.trace)
	}
	return d
}

// harness keeps each case's baselines by case name and observer set.
type harness map[baseKey]digest

type baseKey struct {
	name string
	obs  obsSet
}

// baseline runs c on a fresh chip with the optimized engine and checks
// that the outputs validate and attribution covers every committed block.
func (h harness) baseline(t *testing.T, c *invCase, obs obsSet) digest {
	t.Helper()
	if d, ok := h[baseKey{c.name, obs}]; ok {
		return d
	}
	r, err := start(sim.New(c.opts), c, obs, 0)
	if err != nil {
		t.Fatalf("baseline with observers %04b: %v", obs, err)
	}
	for i, inst := range c.insts {
		if err := inst.Check(&r.results[i].Regs, r.results[i].Mem); err != nil {
			t.Fatalf("program %d: output validation: %v", i, err)
		}
	}
	d := r.digest(t)
	if want := len(c.specs) * int(obs&obsCrit); len(d.Obs.Crit) != want {
		t.Fatalf("%d attribution summaries with observers %04b, want %d", len(d.Obs.Crit), obs, want)
	}
	for i, cp := range d.Obs.Crit {
		if p := d.Core.Progs[i]; cp.Blocks != p.Stats.BlocksCommitted {
			t.Fatalf("program %d: attribution covers %d blocks of %d", i, cp.Blocks, p.Stats.BlocksCommitted)
		}
	}
	h[baseKey{c.name, obs}] = d
	return d
}

// run runs every case's cells, each case a subtest, at GOMAXPROCS 1 but
// for the cells that ask for N.  The first failing case ends the list: a
// broken reset fails every case after it, and may livelock each.
func (h harness) run(t *testing.T, cases []invCase) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range cases {
		if !t.Run(cases[i].name, func(t *testing.T) {
			none := h.baseline(t, &cases[i], 0)
			for _, cl := range cases[i].cells {
				want := h.baseline(t, &cases[i], cl.obs)
				if !reflect.DeepEqual(want.Core, none.Core) {
					t.Errorf("observers %04b move the run: %s", cl.obs, diff(want.Core, none.Core))
				}
				if cl != (cell{obs: cl.obs}) { // else the baseline itself
					h.cell(t, cases, i, cl, want)
				}
			}
		}) {
			return
		}
	}
}

// cell runs cases[i] at cl and holds every goroutine's digest to want.
func (h harness) cell(t *testing.T, cases []invCase, i int, cl cell, want digest) {
	c, prev := &cases[i], &cases[i]
	for j := range cases {
		if p := &cases[(i+len(cases)-1-j)%len(cases)]; reflect.DeepEqual(p.opts, c.opts) {
			prev = p
			break
		}
	}
	half, pre := h.baseline(t, prev, 0).Core.Now/2, [2]obsSet{0, obsAll &^ obsTrace}[i%2]
	opts := c.opts
	opts.Reference = cl.ref
	pooledRun := func(c *invCase, obs obsSet) (*run, error) {
		chip := sim.Acquire(opts)
		defer sim.Release(chip)
		return start(chip, c, obs, 0)
	}
	n := 1
	if cl.procs {
		n = 4
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.NumCPU(), 2)))
	}
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r *run
			var err error
			switch cl.chip {
			case fresh:
				r, err = start(sim.New(opts), c, cl.obs, 0)
			case pooled: // r's Results are read after c runs unobserved on the chip
				if _, err = pooledRun(prev, pre); err == nil {
					r, err = pooledRun(c, cl.obs)
				}
				if err == nil {
					_, err = pooledRun(c, 0)
				}
			case reset:
				chip := sim.Acquire(opts)
				defer sim.Release(chip)
				if _, err = start(chip, prev, pre, half); err == nil {
					t.Errorf("%s stopped at cycle %d finished", prev.name, half)
				}
				chip.Reset()
				r, err = start(chip, c, cl.obs, 0)
			}
			if err != nil {
				t.Errorf("cell %+v: %v", cl, err)
			} else if got := r.digest(t); !reflect.DeepEqual(got, want) {
				t.Errorf("cell %+v differs from the baseline: %s", cl, diff(got, want))
			}
		}()
	}
	wg.Wait()
}

// diff names the fields of two digests, or of parts of them, that differ.
func diff(got, want any) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	var out []string
	for i := range gv.NumField() {
		g, w := gv.Field(i).Interface(), wv.Field(i).Interface()
		if gs, ws := fmt.Sprintf("%+v", g), fmt.Sprintf("%+v", w); gs != ws && gv.Field(i).Kind() == reflect.Struct {
			out = append(out, diff(g, w))
		} else if gs != ws {
			out = append(out, fmt.Sprintf("%s:\n got %s\nwant %s", gv.Type().Field(i).Name, gs[:min(len(gs), 1000)], ws[:min(len(ws), 1000)]))
		}
	}
	return strings.Join(out, "\n")
}

// machine is n cores of the default chip, or TRIPS for n 0.
func machine(n int) (string, Options, Processor) {
	if n == 0 {
		return "trips", TRIPSOptions(), TRIPSProcessor()
	}
	return fmt.Sprint(n, "c"), DefaultOptions(), compose.MustRect(0, 0, n)
}

// mixCase is one kernel at scale per processor.
func mixCase(t *testing.T, name string, opts Options, scale int, kernels []string, procs []Processor, cells ...cell) invCase {
	t.Helper()
	c := invCase{name: name, opts: opts, cells: cells}
	for i, k := range kernels {
		inst, err := BuildKernel(k, scale)
		if err != nil {
			t.Fatal(err)
		}
		c.insts = append(c.insts, inst)
		c.specs = append(c.specs, ProgramSpec{Prog: inst.Prog, Cores: procs[i], Init: inst.Init})
	}
	return c
}

// procsOf packs processors of the given sizes onto the chip.
func procsOf(t *testing.T, sizes ...int) []Processor {
	procs, err := PartitionAsymmetric(sizes)
	if err != nil {
		t.Fatal(err)
	}
	return procs
}

// kernelCase is kernel alone at scale 1 on machine(n).
func kernelCase(t *testing.T, kernel string, n int, cells ...cell) invCase {
	m, opts, p := machine(n)
	return mixCase(t, kernel+"/"+m, opts, 1, []string{kernel}, []Processor{p}, cells...)
}

// seedCase is edgegen's program of seed on machine(n).
func seedCase(t *testing.T, seed int64, n int, cells ...cell) invCase {
	t.Helper()
	spec := edgegen.GenSpec(seed)
	p, err := spec.Build()
	if err != nil {
		t.Fatalf("seed %d does not build: %v", seed, err)
	}
	in := spec.Input()
	m, opts, cores := machine(n)
	init := func(r *[128]uint64, mem *Memory) { *r = in.Regs; mem.WriteBytes(in.MemBase, in.Mem) }
	return invCase{name: fmt.Sprintf("seed %d/%s", seed, m), opts: opts, cells: cells, specs: []ProgramSpec{{Prog: p, Cores: cores, Init: init}}}
}

// TestOptimizedVsReferenceDifferential: the Reference engine gives every
// kernel at 1 to 32 cores and on TRIPS the optimized engine's result.
func TestOptimizedVsReferenceDifferential(t *testing.T) {
	var cases []invCase
	for _, k := range []string{"conv", "autcor", "dither", "tblook", "mcf"} {
		for _, n := range []int{1, 2, 4, 8, 32, 0} {
			cases = append(cases, kernelCase(t, k, n, cell{ref: true}))
		}
	}
	harness{}.run(t, cases)
}

// TestMultiprogramOptimizedVsReference: the Reference engine gives five
// mixes, the first on four 8-core processors and the rest on 16/8/4/4
// cores, at scales 1 and 8, the optimized engine's results.
func TestMultiprogramOptimizedVsReference(t *testing.T) {
	var cases []invCase
	for i, m := range [][]string{{"conv", "autcor", "tblook", "mcf"}, {"ct", "autcor", "mcf", "8b10b"},
		{"ammp", "conv", "gcc", "dither"}, {"swim", "802.11b", "bzip2", "tblook"}, {"art", "bezier", "parser", "genalg"}} {
		for _, scale := range []int{1, 8} {
			procs := procsOf(t, [][]int{{8, 8, 8, 8}, {16, 8, 4, 4}}[min(i, 1)]...)
			cases = append(cases, mixCase(t, fmt.Sprintf("%s@%d", strings.Join(m, "+"), scale), DefaultOptions(), scale, m, procs, cell{ref: true}))
		}
	}
	harness{}.run(t, cases)
}

// critPathDigest is the FNV-64a digest of every committed block's
// (Seq, CritPath) over TestCritPathDifferential's cases, in order: a walker
// or recording change that moves one cycle between categories changes it.
const critPathDigest = 0x1677caa262e680bf

// TestCritPathDifferential: attribution is passive on every hand-optimized
// kernel at every size the Figure 6 sweep runs, whose tflex row records
// it, and its block-by-block breakdown is pinned.
func TestCritPathDifferential(t *testing.T) {
	var cases []invCase
	for _, k := range []string{"conv", "ct", "autcor", "a2time", "dither", "tblook", "802.11b", "mcf"} {
		for _, n := range []int{1, 2, 4, 8, 16, 32} {
			cases = append(cases, kernelCase(t, k, n, cell{obs: obsCrit}))
		}
	}
	h := harness{}
	h.run(t, cases)
	digest := fnv.New64a()
	for _, c := range cases {
		d, ok := h[baseKey{c.name, obsCrit}]
		if !ok || t.Failed() {
			return // a -run pattern left it out, or it failed
		}
		digest.Write(d.Obs.CritBlocks)
	}
	if got := digest.Sum64(); got != critPathDigest {
		t.Errorf("attribution digest = %#x, want %#x", got, critPathDigest)
	}
}

// TestMultiprogramIsolationAndDeterminism: four kernels on four 8-core
// processors of one chip validate, compute what each computes alone, and
// give the same result again on a released chip.
func TestMultiprogramIsolationAndDeterminism(t *testing.T) {
	c := mixCase(t, "conv+autcor+tblook+mcf", DefaultOptions(), 1, []string{"conv", "autcor", "tblook", "mcf"}, procsOf(t, 8, 8, 8, 8), cell{chip: pooled})
	h := harness{}
	h.run(t, []invCase{c})
	mix := h[baseKey{c.name, 0}].Core.Progs // none if the mix's baseline failed
	for i, sp := range c.specs[:len(mix)] {
		alone, err := start(sim.New(c.opts), &invCase{specs: []ProgramSpec{sp}}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, m := alone.digest(t).Core.Progs[0], mix[i]
		if a.Arch != m.Arch || a.Stats.InstsCommitted != m.Stats.InstsCommitted {
			t.Errorf("program %d computes other than alone:\n mix  %+v\nalone %+v", i, m.Arch, a.Arch)
		}
	}
}

// TestRunMultiReuseMatchesFresh: RunMulti on a pooled chip, with every
// observer and with four goroutines sharing the pool, gives the steady
// kernels on TRIPS and 1, 8 and 32 cores, and a 16/8/4/4 mix, what a new
// chip gives, and its Results read the same after the chip's next run.
// TRIPS chips also keep their registry across jobs, on both engines.
func TestRunMultiReuseMatchesFresh(t *testing.T) {
	observers := []cell{{chip: pooled, obs: obsCrit}, {chip: pooled, obs: obsReg},
		{chip: pooled, obs: obsFlight}, {chip: pooled, obs: obsTrace}, {chip: pooled, obs: obsAll}}
	more := map[string][]cell{"gcc/8c": observers, "mcf/8c": observers,
		"conv/8c": {{chip: pooled, procs: true}, {chip: pooled, obs: obsAll, procs: true}}}
	var cases []invCase
	for _, n := range []int{0, 1, 8, 32} {
		for _, k := range []string{"conv", "ct", "mcf", "gcc", "ammp", "8b10b", "art", "bzip2"} {
			c := kernelCase(t, k, n, cell{chip: pooled})
			if n == 0 {
				c.cells = append(c.cells, cell{chip: pooled, obs: obsReg}, cell{ref: true, chip: pooled, obs: obsReg})
			}
			c.cells = append(c.cells, more[c.name]...)
			cases = append(cases, c)
		}
	}
	cases = append(cases, mixCase(t, "ct+autcor+mcf+8b10b", DefaultOptions(), 1, []string{"ct", "autcor", "mcf", "8b10b"}, procsOf(t, 16, 8, 4, 4),
		cell{chip: pooled}, cell{chip: pooled, obs: obsAll}))
	harness{}.run(t, cases)
}

// TestChipResetIsolation: a chip Reset after a job stopped halfway (events
// queued, blocks in flight, LSQ entries resident) is a new chip, on both
// engines, for 25 edgegen programs on 1-32 cores and TRIPS and the steady
// kernels along every ordered pair (pairWalk); with every observer, or
// OnBlock alone after a job that armed attribution, in the attribution leg.
func TestChipResetIsolation(t *testing.T) {
	walked := []string{"mcf", "conv", "ct", "gcc", "ammp", "8b10b", "art", "bzip2"}
	h := harness{}
	for _, ref := range []bool{false, true} {
		t.Run(map[bool]string{false: "opt", true: "ref"}[ref], func(t *testing.T) {
			var cases []invCase
			for _, n := range []int{32, 16, 8, 4, 2, 1, 0} {
				for seed := int64(1); seed <= 25; seed++ {
					cases = append(cases, seedCase(t, seed, n, cell{ref: ref, chip: reset, procs: n == 4}))
				}
			}
			for _, n := range []int{1, 8, 32} {
				for _, i := range pairWalk(len(walked)) {
					cases = append(cases, kernelCase(t, walked[i], n, cell{ref: ref, chip: reset}))
				}
			}
			h.run(t, cases)
			t.Run("attribution", func(t *testing.T) {
				cells := []cell{{ref: ref, chip: reset, obs: obsAll}, {ref: ref, chip: reset, obs: obsAll}, {ref: ref, chip: reset, obs: obsTrace}}
				var cases []invCase
				for seed := int64(1); seed <= 25; seed++ {
					cases = append(cases, seedCase(t, seed, []int{32, 1, 8, 2, 16, 4}[seed%6], cells[seed%3]))
				}
				for j, i := range pairWalk(len(walked)) {
					cases = append(cases, kernelCase(t, walked[i], 8, cells[j%3]))
				}
				h.run(t, cases)
			})
		})
	}
}

// pairWalk returns a walk over 0..n-1 that steps along every ordered pair
// of distinct indices exactly once (an Euler circuit of the complete
// directed graph, by Hierholzer's algorithm): n(n-1)+1 visits.
func pairWalk(n int) []int {
	used := make([]int, n) // v's out-edges to v+1..v+used[v] are used
	var walk []int
	for stack := []int{0}; len(stack) > 0; {
		if v := stack[len(stack)-1]; used[v] < n-1 {
			used[v]++
			stack = append(stack, (v+used[v])%n)
		} else {
			walk, stack = append([]int{v}, walk...), stack[:len(stack)-1]
		}
	}
	return walk
}

// TestPairWalk: the kernel order of TestChipResetIsolation steps along
// every ordered pair once.
func TestPairWalk(t *testing.T) {
	walk, seen := pairWalk(8), map[[2]int]bool{}
	for i := 1; i < len(walk); i++ {
		if walk[i-1] != walk[i] {
			seen[[2]int{walk[i-1], walk[i]}] = true
		}
	}
	if len(walk) != 8*7+1 || len(seen) != 8*7 {
		t.Fatalf("walk %v steps along %d distinct ordered pairs in %d steps, want %d", walk, len(seen), len(walk)-1, 8*7)
	}
}

// suiteCase is work on a suite, read through its exported API.  A cell's
// procs runs it at SetJobs 8 on GOMAXPROCS N, obs with an observer (which
// arms attribution on every row, so only its text must match), pooled on
// the suite that ran the previous case; the baseline is a new suite at
// SetJobs 1 on GOMAXPROCS 1.  Text and job metrics must equal the baseline's.
type suiteCase struct {
	name  string
	work  func(t *testing.T, s *experiments.Suite) string
	cells []cell
}

func runSuiteCases(t *testing.T, cases []suiteCase) {
	if testing.Short() {
		t.Skip("runs every case's experiments once per cell")
	}
	type digest struct {
		Text    string
		Metrics map[string]MetricsSnapshot
	}
	run := func(c, prev *suiteCase, cl cell, keys map[string]MetricsSnapshot) (d digest) {
		s := experiments.NewSuite(1)
		if s.SetJobs(1); cl.procs {
			s.SetJobs(8)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.NumCPU(), 2)))
		}
		if cl.obs != 0 {
			s.SetObserver(obs.New())
		}
		if cl.chip == pooled {
			prev.work(t, s)
		}
		if d.Text = c.work(t, s); cl.obs == 0 {
			d.Metrics = s.MetricsByJob()
			maps.DeleteFunc(d.Metrics, func(k string, _ MetricsSnapshot) bool { _, ok := keys[k]; return keys != nil && !ok })
		}
		return d
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range cases {
		c, prev := &cases[i], &cases[(i+len(cases)-1)%len(cases)]
		t.Run(c.name, func(t *testing.T) {
			base := run(c, prev, cell{}, nil)
			for _, cl := range c.cells {
				got, want := run(c, prev, cl, base.Metrics), base
				if cl.obs != 0 {
					want.Metrics = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("cell %+v differs from the baseline: %s", cl, diff(got, want))
				}
			}
		})
	}
}

// TestSuiteReuseMatchesFresh: the suite's jobs on its pooled chips and
// reused Core2 trace give what a new chip or suite gives.  The sweeps run
// conv and mcf at 32, 1, 8, 2, 16 and 4 cores, each checked against runOn
// on a chip from sim.New; Figure 5 runs every kernel on Core2 and TRIPS.
// conv and mcf on the other rows' 8-core chips, each of which flips one
// option, are harness rows, pooled and reset.
func TestSuiteReuseMatchesFresh(t *testing.T) {
	cells := []cell{{chip: pooled}, {obs: obsAll}, {procs: true}}
	runSuiteCases(t, []suiteCase{{"sweeps", func(t *testing.T, s *experiments.Suite) string {
		// mcf's Core2 job warms the trace a reused suite's Figure 5 starts on.
		specs := []experiments.Spec{{Kernel: "mcf", Config: "core2", Scale: 1}}
		for _, k := range []string{"conv", "mcf"} {
			for _, n := range []int{32, 1, 8, 2, 16, 4} {
				specs = append(specs, experiments.Spec{Kernel: k, Config: "tflex", Cores: n, Scale: 1})
			}
		}
		if err := s.Prefetch(specs); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, sp := range specs[1:] {
			got, err := s.TFlexRun(sp.Kernel, sp.Cores)
			c := kernelCase(t, sp.Kernel, sp.Cores)
			r, ferr := start(sim.New(c.opts), &c, obsCrit|obsReg, 0)
			if err != nil || ferr != nil {
				t.Fatal(err, ferr)
			}
			want := r.results[0]
			if !reflect.DeepEqual([]any{got.Cycles, got.Stats, got.Crit, got.Metrics}, []any{want.Cycles, want.Stats, *want.CritPath, want.Metrics}) {
				t.Errorf("%s: the suite's run differs from runOn's on a new chip", sp.Key())
			}
			fmt.Fprintf(&b, "%s: %d %+v %+v %+v\n", sp.Key(), got.Cycles, got.Stats, got.Counters, got.Crit)
		}
		return b.String()
	}, cells}, {"fig5", render("fig5"), cells}})
	flips := []func(*Options){func(o *Options) { o.ZeroHandshake = true }, func(o *Options) { o.Params.OperandBW = 1 },
		func(o *Options) { o.Params.IssueTotal = 1 }, func(o *Options) { o.CentralPredictor = true }, func(o *Options) { o.Params.LSQEntries = 1024 }}
	var rows []invCase
	for i, row := range strings.Fields("zero-handshake operand-bw-1x single-issue central-predictor worst-case-lsq") {
		for _, k := range []string{"conv", "mcf"} {
			c := kernelCase(t, k, 8, cell{chip: pooled}, cell{chip: reset, obs: obsCrit | obsReg})
			c.name += "/" + row
			flips[i](&c.opts)
			rows = append(rows, c)
		}
	}
	harness{}.run(t, rows)
}

// TestExperimentsDeterministicAcrossWorkerCounts: every experiment renders
// the same text, and every job the same metrics, at SetJobs 8 on
// GOMAXPROCS N, whose jobs read the kernels' shared images at once, as at
// SetJobs 1 on GOMAXPROCS 1.  Under -race this is the suite's race gate.
func TestExperimentsDeterministicAcrossWorkerCounts(t *testing.T) {
	runSuiteCases(t, []suiteCase{{"evaluation", render(), []cell{{procs: true}}}})
}

// render is the work of rendering the named experiments, or all of them,
// in tflexexp's order, with Figure 10 at four workloads per size.
func render(names ...string) func(*testing.T, *experiments.Suite) string {
	return func(t *testing.T, s *experiments.Suite) string {
		var b strings.Builder
		for _, e := range experiments.Evaluation() {
			if len(names) > 0 && !slices.Contains(names, e.Name) {
				continue
			}
			out, err := e.Render(s, 4)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(out)
		}
		return b.String()
	}
}
