package tflex

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/clp-sim/tflex/internal/sim"
)

// steadyKernels are clpbench's steady workload kernels: hand-optimized,
// pointer-chasing, branchy, floating-point and serial code.
var steadyKernels = []string{"conv", "ct", "mcf", "gcc", "ammp", "8b10b", "art", "bzip2"}

// reuseLeg is one RunMulti call of TestRunMultiReuseMatchesFresh.
type reuseLeg struct {
	name  string
	specs []ProgramSpec
	cfg   RunConfig
	// observe arms the leg's own OnBlock log and Chrome trace, which a
	// fresh rerun of the leg must reproduce.
	observe bool
	blocks  []BlockEvent
	trace   *Trace
}

// arm returns the leg's RunConfig with a fresh OnBlock log and Chrome
// trace when the leg observes blocks.
func (l *reuseLeg) arm() RunConfig {
	cfg := l.cfg
	if l.observe {
		l.blocks, l.trace = nil, NewTrace()
		cfg.OnBlock = func(ev BlockEvent) { l.blocks = append(l.blocks, ev) }
		cfg.ChromeTrace = l.trace
	}
	return cfg
}

// kernelSpecs builds one spec per kernel, on the given processors.
func kernelSpecs(t *testing.T, names []string, procs []Processor) []ProgramSpec {
	t.Helper()
	specs := make([]ProgramSpec, len(names))
	for i, name := range names {
		inst, err := BuildKernel(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = ProgramSpec{Prog: inst.Prog, Cores: procs[i], Init: inst.Init}
	}
	return specs
}

// resultView is what a Result reports of its run, read at comparison
// time: a Result that aliased storage a later run on the same chip
// reused would read that run's values.
type resultView struct {
	Cycles    uint64
	Stats     Stats
	Regs      [128]uint64
	MemDigest uint64
	Flight    *FlightDump
	CritPath  *CritPathSummary
	Arch      *ArchState
}

func viewOf(r *Result) resultView {
	return resultView{r.Cycles, r.Stats, r.Regs, r.Mem.Digest(), r.Flight, r.CritPath, r.Arch}
}

// TestRunMultiReuseMatchesFresh runs one sequence of RunMulti calls — the
// steady kernels at scale 1 on TRIPS and on 1, 8 and 32 cores, a
// 16/8/4/4 multiprogrammed mix, and legs with the flight recorder,
// critical-path attribution, the architectural digest, OnBlock and a
// Chrome trace armed — on chips the pool hands from run to run, keeps
// every Result, and only then holds each to the same leg run on a chip
// from sim.New.  A run that arms the registry and the sampler keeps its
// chip: its live views must read the same after every later run.  Last,
// four goroutines share the pool.
func TestRunMultiReuseMatchesFresh(t *testing.T) {
	tripsOpts := TRIPSOptions()
	var legs []*reuseLeg
	for _, k := range steadyKernels {
		legs = append(legs, &reuseLeg{name: k + "/trips", specs: kernelSpecs(t, []string{k}, []Processor{TRIPSProcessor()}),
			cfg: RunConfig{Options: &tripsOpts}})
		for _, n := range []int{1, 8, 32} {
			p, err := ComposeRect(0, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			legs = append(legs, &reuseLeg{name: fmt.Sprintf("%s/%dc", k, n), specs: kernelSpecs(t, []string{k}, []Processor{p})})
		}
	}
	mix, err := PartitionAsymmetric([]int{16, 8, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	mixSpecs := kernelSpecs(t, []string{"ct", "autcor", "mcf", "8b10b"}, mix)
	legs = append(legs, &reuseLeg{name: "mix", specs: mixSpecs})
	p8, _ := ComposeRect(0, 0, 8)
	for _, o := range []struct {
		name string
		cfg  RunConfig
	}{
		{"flight", RunConfig{Flight: true}},
		{"critpath", RunConfig{CritPath: true}},
		{"arch", RunConfig{ArchDigest: true}},
		{"every tap but the live views", RunConfig{Flight: true, CritPath: true, ArchDigest: true}},
	} {
		for _, k := range []string{"gcc", "mcf"} {
			legs = append(legs, &reuseLeg{name: k + "/8c " + o.name, specs: kernelSpecs(t, []string{k}, []Processor{p8}), cfg: o.cfg, observe: true})
		}
	}
	legs = append(legs, &reuseLeg{name: "mix observed", specs: mixSpecs, cfg: RunConfig{CritPath: true, ArchDigest: true}, observe: true})

	// The legs with live views run first, so every other leg runs after
	// them: one arms the registry and the sampler, one the registry alone.
	live, err := RunMulti(kernelSpecs(t, []string{"conv"}, []Processor{p8}), RunConfig{CollectMetrics: true, SampleEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	series := live[0].Samples.Series()
	metricsOnly, err := RunMulti(kernelSpecs(t, []string{"gcc"}, []Processor{p8}), RunConfig{CollectMetrics: true})
	if err != nil {
		t.Fatal(err)
	}

	results := make([][]*Result, len(legs))
	var blocks [][]BlockEvent
	var traces [][]byte
	for i, l := range legs {
		if results[i], err = RunMulti(l.specs, l.arm()); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		blocks = append(blocks, l.blocks)
		traces = append(traces, chromeJSON(t, l.trace))
	}
	// Result.Metrics is the registry's end-of-run capture.
	if !reflect.DeepEqual(live[0].Telemetry.Snapshot(), live[0].Metrics) {
		t.Error("a run's live registry changed under the runs after it: its chip was reused")
	}
	if !reflect.DeepEqual(live[0].Samples.Series(), series) {
		t.Error("a run's live sampler changed under the runs after it: its chip was reused")
	}
	if !reflect.DeepEqual(metricsOnly[0].Telemetry.Snapshot(), metricsOnly[0].Metrics) {
		t.Error("the live registry of a run without a sampler changed under the runs after it: its chip was reused")
	}

	for i, l := range legs {
		fresh, err := runOn(sim.New(optionsOf(l.cfg)), l.specs, l.arm())
		if err != nil {
			t.Fatalf("%s, fresh chip: %v", l.name, err)
		}
		for n, r := range results[i] {
			if got, want := viewOf(r), viewOf(fresh[n]); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, program %d: reused chip\n%+v\nfresh chip\n%+v", l.name, n, got, want)
			}
		}
		if !reflect.DeepEqual(blocks[i], l.blocks) {
			t.Errorf("%s: OnBlock saw %d retirements on a reused chip and %d on a fresh one, or saw them differ", l.name, len(blocks[i]), len(l.blocks))
		}
		if !bytes.Equal(traces[i], chromeJSON(t, l.trace)) {
			t.Errorf("%s: the Chrome trace of a reused chip differs from a fresh chip's", l.name)
		}
	}

	// Four goroutines run one kernel on equal options, three runs each, so
	// chips pass between goroutines through the pool; every result must
	// equal a fresh chip's.  Under -race this is the leg that shows no
	// pooled chip serves two runs at once.
	specs := kernelSpecs(t, []string{"conv"}, []Processor{p8})
	fresh, err := runOn(sim.New(DefaultOptions()), specs, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := viewOf(fresh[0])
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				res, err := RunMulti(specs, RunConfig{})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := viewOf(res[0]); !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: %+v, fresh chip %+v", g, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// optionsOf returns the chip options RunMulti builds for cfg.
func optionsOf(cfg RunConfig) Options {
	if cfg.Options != nil {
		return *cfg.Options
	}
	return DefaultOptions()
}

func chromeJSON(t *testing.T, tr *Trace) []byte {
	t.Helper()
	if tr == nil {
		return nil
	}
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
