package sched

import (
	"testing"

	"github.com/clp-sim/tflex/internal/alloc"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/sim"
)

func sumJob(t testing.TB, name string, n int64) *Job {
	t.Helper()
	b := prog.NewBuilder()
	bb := b.Block("loop")
	i := bb.Read(2)
	bb.Write(3, bb.Add(bb.Read(3), i))
	i2 := bb.AddI(i, 1)
	bb.Write(2, i2)
	bb.BranchIf(bb.OpI(isa.OpLt, i2, n), "loop", "done")
	b.Block("done").Halt()
	return &Job{
		Name:  name,
		Prog:  b.MustProgram("loop"),
		Curve: alloc.Curve{1: 1, 2: 1.2, 4: 1.3, 8: 1.3, 16: 1.25, 32: 1.2},
	}
}

func TestSchedulerRunsAllJobs(t *testing.T) {
	s := New(sim.DefaultOptions(), GreedyBest)
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j := sumJob(t, "sum", int64(50+10*i))
		jobs = append(jobs, j)
		s.Submit(j)
	}
	res, err := s.Run(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !j.Done {
			t.Fatalf("job %s never finished", j.Name)
		}
		if j.Cores < 1 {
			t.Fatalf("job got %d cores", j.Cores)
		}
		if j.Stats.BlocksCommitted == 0 {
			t.Fatal("no work recorded")
		}
	}
	if res.Makespan == 0 {
		t.Fatal("no makespan")
	}
}

func TestSchedulerQueuesWhenFull(t *testing.T) {
	// 12 jobs wanting 4 cores each exceed 32 cores: some must wait for
	// earlier jobs to halt, exercising the on-halt replacement path.
	s := New(sim.DefaultOptions(), EqualShare)
	var jobs []*Job
	for i := 0; i < 12; i++ {
		j := sumJob(t, "q", 80)
		j.MaxCores = 4
		jobs = append(jobs, j)
		s.Submit(j)
	}
	res, err := s.Run(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// At least some jobs must have started strictly after cycle 0 (they
	// waited in the queue).
	delayed := 0
	for _, j := range jobs {
		if !j.Done {
			t.Fatal("job unfinished")
		}
		if j.StartedAt > 0 {
			delayed++
		}
	}
	if delayed == 0 {
		t.Fatal("expected queued jobs to start later")
	}
	_ = res
}

func TestSchedulerRealKernels(t *testing.T) {
	s := New(sim.DefaultOptions(), GreedyBest)
	names := []string{"conv", "dither", "bezier", "tblook"}
	type pair struct {
		job  *Job
		inst *kernels.Instance
	}
	var pairs []pair
	for _, name := range names {
		k, ok := kernels.ByName(name)
		if !ok {
			t.Fatal(name)
		}
		inst, err := k.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		j := &Job{
			Name: name,
			Prog: inst.Prog,
			Init: inst.Init,
			Curve: alloc.Curve{
				1: 1, 2: 1.5, 4: 2.2, 8: 2.8, 16: 3.0, 32: 2.8,
			},
			MaxCores: 8,
		}
		pairs = append(pairs, pair{j, inst})
		s.Submit(j)
	}
	if _, err := s.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if !p.job.Done || p.job.Stats.InstsCommitted == 0 {
			t.Fatalf("job %s incomplete", p.job.Name)
		}
	}
}

func TestPolicies(t *testing.T) {
	j := sumJob(t, "p", 10)
	if k := GreedyBest(j, 32); k < 2 || k > 8 {
		t.Fatalf("greedy picked %d for a flat-ish curve", k)
	}
	if k := GreedyBest(j, 1); k != 1 {
		t.Fatalf("greedy with 1 free core picked %d", k)
	}
	j2 := &Job{} // no profile
	if k := GreedyBest(j2, 32); k != 2 {
		t.Fatalf("unknown profile should get 2 cores, got %d", k)
	}
	if k := EqualShare(&Job{}, 32); k != 4 {
		t.Fatalf("equal share picked %d", k)
	}
	if k := EqualShare(&Job{MaxCores: 2}, 32); k != 2 {
		t.Fatalf("capped equal share picked %d", k)
	}
}

func TestSchedulerIsolation(t *testing.T) {
	// Two sum jobs with different bounds must not corrupt each other.
	s := New(sim.DefaultOptions(), EqualShare)
	a := sumJob(t, "a", 100)
	b := sumJob(t, "b", 50)
	s.Submit(a)
	s.Submit(b)
	if _, err := s.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	// Find each proc's final r3 via the chip.
	sums := map[uint64]bool{}
	for _, pr := range s.Chip().Procs {
		sums[pr.Regs[3]] = true
	}
	if !sums[100*99/2] || !sums[50*49/2] {
		t.Fatalf("expected both job results, got %v", sums)
	}
}

// TestSchedulerOptimizedVsReference runs a queue the chip cannot hold at
// once — 12 kernels wanting 4 cores each — on both engines.  Jobs that
// wait are composed mid-run by the on-halt hook, beside processors still
// running, so equal start, halt and cycle counts per job hold the
// Reference oracle over scheduler-driven recomposition.
func TestSchedulerOptimizedVsReference(t *testing.T) {
	run := func(reference bool) []*Job {
		opts := sim.DefaultOptions()
		opts.Reference = reference
		s := New(opts, EqualShare)
		var jobs []*Job
		for _, k := range kernels.All()[:12] {
			inst, err := k.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			j := &Job{Name: k.Name, Prog: inst.Prog, Init: inst.Init, MaxCores: 4}
			jobs = append(jobs, j)
			s.Submit(j)
		}
		if _, err := s.Run(500_000_000); err != nil {
			t.Fatalf("reference %t: %v", reference, err)
		}
		return jobs
	}
	fast, ref := run(false), run(true)
	queued := 0
	for i, f := range fast {
		r := ref[i]
		if f.StartedAt != r.StartedAt || f.HaltedAt != r.HaltedAt || f.Stats.Cycles != r.Stats.Cycles {
			t.Errorf("%s: optimized started %d, halted %d, ran %d cycles; reference %d, %d, %d",
				f.Name, f.StartedAt, f.HaltedAt, f.Stats.Cycles, r.StartedAt, r.HaltedAt, r.Stats.Cycles)
		}
		if f.StartedAt > 0 {
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("no job waited for cores; the queue never exercised on-halt recomposition")
	}
}
