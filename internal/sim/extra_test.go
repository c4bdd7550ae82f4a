package sim

import (
	"strings"
	"testing"
	"time"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/prog"
)

func TestBlockTraceObservesLifecycle(t *testing.T) {
	p := sumProgram(t)
	chip := New(DefaultOptions())
	proc, err := chip.AddProc(compose.MustRect(0, 0, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 30
	var events []BlockEvent
	proc.TraceBlocks(func(ev BlockEvent) { events = append(events, ev) })
	if err := chip.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	committed, flushed := 0, 0
	var lastSeq uint64
	for _, ev := range events {
		if ev.Flushed {
			flushed++
		} else {
			committed++
			if ev.RetiredAt < ev.FetchStart {
				t.Fatalf("block %d retired before fetch", ev.Seq)
			}
			if ev.DispatchDone < ev.FetchStart || ev.CommitStart < ev.CompleteAt ||
				ev.RetiredAt < ev.CommitStart {
				t.Fatalf("block %d phases out of order: fetch %d dispatch %d complete %d commit %d retire %d",
					ev.Seq, ev.FetchStart, ev.DispatchDone, ev.CompleteAt, ev.CommitStart, ev.RetiredAt)
			}
			if ev.Seq < lastSeq {
				t.Fatal("commits out of order in trace")
			}
			lastSeq = ev.Seq
		}
	}
	if uint64(committed) != proc.Stats.BlocksCommitted {
		t.Fatalf("trace saw %d commits, stats say %d", committed, proc.Stats.BlocksCommitted)
	}
	if uint64(flushed) != proc.Stats.BlocksFlushed {
		t.Fatalf("trace saw %d flushes, stats say %d", flushed, proc.Stats.BlocksFlushed)
	}
}

// lsqThrasher builds a program whose in-flight blocks aim many memory
// operations at one cache line, overflowing a 44-entry LSQ bank.
func lsqThrasher(t testing.TB) *prog.Program {
	b := prog.NewBuilder()
	bb := b.Block("loop")
	base := bb.Read(1)
	// 24 loads + 4 stores, all within one 64-byte line -> one bank.
	var acc prog.Ref
	for k := int64(0); k < 24; k++ {
		v := bb.Load(base, (k%8)*8, 8, false)
		if k == 0 {
			acc = v
		} else {
			acc = bb.Add(acc, v)
		}
	}
	for k := int64(0); k < 4; k++ {
		bb.Store(base, acc, k*8, 8)
	}
	bb.Write(3, acc)
	i2 := bb.AddI(bb.Read(2), 1)
	bb.Write(2, i2)
	bb.BranchIf(bb.OpI(isa.OpLt, i2, 60), "loop", "done")
	b.Block("done").Halt()
	return b.MustProgram("loop")
}

func TestLSQOverflowNACKsAndRecovers(t *testing.T) {
	p := lsqThrasher(t)
	chip := New(DefaultOptions())
	proc, err := chip.AddProc(compose.MustRect(0, 0, 16), p)
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 0x700000
	if err := chip.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	// With 16 blocks in flight x 28 same-line ops, the single bank (44
	// entries) must have NACKed, and the run must still complete.
	if proc.Stats.LSQNACKs == 0 {
		t.Fatal("expected LSQ NACKs under same-bank pressure")
	}
	if proc.Stats.BlocksCommitted != 61 {
		t.Fatalf("blocks committed = %d", proc.Stats.BlocksCommitted)
	}
}

func TestWorstCaseLSQAvoidsNACKs(t *testing.T) {
	p := lsqThrasher(t)
	opts := DefaultOptions()
	opts.Params.LSQEntries = 2048
	chip := New(opts)
	proc, err := chip.AddProc(compose.MustRect(0, 0, 16), p)
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 0x700000
	if err := chip.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if proc.Stats.LSQNACKs != 0 {
		t.Fatalf("worst-case-sized LSQ should never NACK, got %d", proc.Stats.LSQNACKs)
	}
}

func TestArbitraryCompositionSizes(t *testing.T) {
	// Compositions that are not powers of two still run correctly (the
	// paper: "any point in between").
	p := sumProgram(t)
	for _, cores := range [][]int{{0, 1, 2}, {4, 5, 6, 7, 8}, {0, 3, 12, 15, 16, 19, 28}} {
		chip := New(DefaultOptions())
		proc, err := chip.AddProc(compose.Processor{Cores: cores}, p)
		if err != nil {
			t.Fatal(err)
		}
		proc.Regs[1] = 40
		if err := chip.Run(10_000_000); err != nil {
			t.Fatalf("n=%d: %v", len(cores), err)
		}
		if proc.Regs[3] != 40*39/2 {
			t.Fatalf("n=%d: sum=%d", len(cores), proc.Regs[3])
		}
	}
}

func TestViolationMemoDefersReplays(t *testing.T) {
	// The violation program triggers one flush; the memoized load then
	// waits, so a second violation on the same (block, load) is rare.
	p := violationProgram(t)
	chip := New(DefaultOptions())
	proc, err := chip.AddProc(compose.MustRect(0, 0, 8), p)
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 0x200000
	proc.Regs[2] = 9
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if proc.Stats.ViolationFlushes > 2 {
		t.Fatalf("violation replays not damped: %d flushes", proc.Stats.ViolationFlushes)
	}
	if proc.violCount == 0 && proc.Stats.ViolationFlushes > 0 {
		t.Fatal("violating load was not memoized")
	}
}

func TestStatsIPC(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Fatal("zero-cycle IPC should be 0")
	}
	s.Cycles = 100
	s.InstsCommitted = 250
	if s.IPC() != 2.5 {
		t.Fatalf("IPC = %v", s.IPC())
	}
}

func TestDeadlockDetectionReportsBadBranch(t *testing.T) {
	// A program whose only branch returns to a non-block address must be
	// reported as a stall, not loop forever.
	b := prog.NewBuilder()
	bb := b.Block("m")
	bogus := bb.Const(0x99999999)
	bb.Ret(bogus)
	p, err := b.Program("m")
	if err != nil {
		t.Fatal(err)
	}
	chip := New(DefaultOptions())
	if _, err := chip.AddProc(compose.MustRect(0, 0, 2), p); err != nil {
		t.Fatal(err)
	}
	err = chip.Run(1_000_000)
	if err == nil || !strings.HasPrefix(err.Error(), "sim: deadlock") || !strings.Contains(err.Error(), "addr=0x99999999") {
		t.Fatalf("Run returned %v, want a sim: deadlock error naming the address outside the layout", err)
	}
}

func TestUtilizationProfile(t *testing.T) {
	p := sumProgram(t)
	chip := New(DefaultOptions())
	proc, err := chip.AddProc(compose.MustRect(0, 0, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 50
	if err := chip.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	util := proc.Stats.Utilization()
	if len(util) != 4 {
		t.Fatalf("utilization for %d cores", len(util))
	}
	var total uint64
	for _, n := range proc.Stats.IssuedByCore {
		total += n
	}
	if total != proc.Stats.InstsFired {
		t.Fatalf("per-core issue counts (%d) != fired (%d)", total, proc.Stats.InstsFired)
	}
	for c, u := range util {
		if u < 0 || u > 2.0 {
			t.Fatalf("core %d utilization %.2f outside dual-issue bound", c, u)
		}
	}
}

// TestOutOfRangeCapacitiesFailTheRun: an issue width or link bandwidth a
// reservation slot cannot count — zero, which could never be booked and
// used to spin forever inside one event where the stall watchdog cannot
// fire, or one past noc.MaxSlotCount, which used to wrap to zero — or a
// dispatch width below one, which used to divide by zero, or a cache
// geometry with no set in it (a zero line size, associativity or
// capacity, which used to divide by zero building or indexing the tag
// arrays), or an LSQ of no entries (every memory operation NACKed and
// retried forever, the clock advancing under the watchdog) or of fewer
// entries than a block's memory operations, is rejected by New and reported by Run before any event, on both engines,
// with neither a panic nor a hang.
func TestOutOfRangeCapacitiesFailTheRun(t *testing.T) {
	p := sumProgram(t)
	for _, c := range []struct {
		name string
		set  func(*compose.CoreParams)
	}{
		{"IssueTotal 0", func(p *compose.CoreParams) { p.IssueTotal = 0 }},
		{"IssueTotal 256", func(p *compose.CoreParams) { p.IssueTotal = 256 }},
		{"IssueFP 0", func(p *compose.CoreParams) { p.IssueFP = 0 }},
		{"IssueFP > IssueTotal", func(p *compose.CoreParams) { p.IssueFP = p.IssueTotal + 1 }},
		{"OperandBW 0", func(p *compose.CoreParams) { p.OperandBW = 0 }},
		{"OperandBW 256", func(p *compose.CoreParams) { p.OperandBW = 256 }},
		{"OperandBW 70000", func(p *compose.CoreParams) { p.OperandBW = 70000 }},
		{"ControlBW 0", func(p *compose.CoreParams) { p.ControlBW = 0 }},
		{"ControlBW 256", func(p *compose.CoreParams) { p.ControlBW = 256 }},
		{"ControlBW 70000", func(p *compose.CoreParams) { p.ControlBW = 70000 }},
		{"DispatchBW 0", func(p *compose.CoreParams) { p.DispatchBW = 0 }}, // divided by in fetch
		{"DispatchBW -1", func(p *compose.CoreParams) { p.DispatchBW = -1 }},
		{"LineBytes 0", func(p *compose.CoreParams) { p.LineBytes = 0 }},
		{"L1DAssoc 0", func(p *compose.CoreParams) { p.L1DAssoc = 0 }},
		{"L2Assoc 0", func(p *compose.CoreParams) { p.L2Assoc = 0 }},
		{"L2Assoc -8", func(p *compose.CoreParams) { p.L2Assoc = -8 }},
		{"L2Bytes 0", func(p *compose.CoreParams) { p.L2Bytes = 0 }},
		{"L2Bytes below one set", func(p *compose.CoreParams) { p.L2Bytes = p.L2Assoc*p.LineBytes - 1 }},
		{"L1DBytes 0", func(p *compose.CoreParams) { p.L1DBytes = 0 }},
		{"LSQEntries 0", func(p *compose.CoreParams) { p.LSQEntries = 0 }},
		{"LSQEntries below MaxMemOps", func(p *compose.CoreParams) { p.LSQEntries = isa.MaxMemOps - 1 }},
	} {
		for _, reference := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Reference = reference
			c.set(&opts.Params)
			chip := New(opts)
			proc, err := chip.AddProc(compose.MustRect(0, 0, 4), p)
			if err != nil {
				t.Fatalf("%s: AddProc: %v", c.name, err)
			}
			proc.Regs[1] = 5
			err = chip.Run(1_000_000)
			if err == nil || !strings.HasPrefix(err.Error(), "sim: ") {
				t.Errorf("%s (reference %t): Run returned %v, want a sim: error", c.name, reference, err)
			}
			if proc.Stats.BlocksFetched != 0 {
				t.Errorf("%s (reference %t): %d blocks fetched before the run failed", c.name, reference, proc.Stats.BlocksFetched)
			}
		}
	}
}

// TestShallowLSQFailsFast holds the reproducers of the LSQ livelock: a
// bank shallower than isa.MaxMemOps can be filled by younger blocks'
// accesses while the oldest block's are NACKed, and with 22 entries conv
// on 8 or 32 cores used to spin for 20 to 40 minutes of host time before
// reporting exceeded cycles.  conv on 1, 8 and 32 cores and ct on 1 core,
// each with 22 entries, must now fail within a second of host time with
// a sim: error that names the parameter.
func TestShallowLSQFailsFast(t *testing.T) {
	for _, c := range []struct {
		kernel string
		cores  int
	}{{"conv", 1}, {"conv", 8}, {"conv", 32}, {"ct", 1}} {
		k, ok := kernels.ByName(c.kernel)
		if !ok {
			t.Fatalf("no kernel %q", c.kernel)
		}
		inst, err := k.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Params.LSQEntries = 22
		start := time.Now()
		chip := New(opts)
		proc, err := chip.AddProc(compose.MustRect(0, 0, c.cores), inst.Prog)
		if err != nil {
			t.Fatal(err)
		}
		inst.Init(&proc.Regs, proc.Mem)
		err = chip.Run(2_000_000_000)
		if host := time.Since(start); host > time.Second {
			t.Errorf("%s on %d cores: failed after %v of host time, want under 1s", c.kernel, c.cores, host)
		}
		if want := "sim: LSQEntries = 22, want 32.."; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s on %d cores: Run returned %v, want an error beginning %q", c.kernel, c.cores, err, want)
		}
	}
}

// TestFaultBeforePlacementIsATypedError: a program with no entry block
// faults in AddProc, before any event exists; the fault lands on the
// chip and Run returns it, on both engines.
func TestFaultBeforePlacementIsATypedError(t *testing.T) {
	for _, reference := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Reference = reference
		chip := New(opts)
		if _, err := chip.AddProc(compose.MustRect(0, 0, 4), &prog.Program{}); err != nil {
			t.Fatalf("reference %t: AddProc: %v", reference, err)
		}
		err := chip.Run(1_000_000)
		if err == nil || err.Error() != "sim: proc 0: no entry block" {
			t.Errorf("reference %t: Run returned %v, want sim: proc 0: no entry block", reference, err)
		}
	}
}

// TestAddProcRejectsWhatItCannotBuild: a nil program and a D- or
// register-bank index outside the composition are sim: errors from
// AddProc and AddProcShared on both engines, and nothing is composed;
// they used to panic in prepareStart or at the first bank access.
func TestAddProcRejectsWhatItCannotBuild(t *testing.T) {
	halted := run(t, sumProgram(t), 2, nil) // a predecessor to resume from
	for _, tc := range []struct {
		name           string
		dbanks, rbanks []int
		cores          int
		nilProg        bool
	}{
		{"TRIPS banks on 8 cores", []int{0, 4, 8, 12}, []int{0, 1, 2, 3}, 8, false},
		{"a negative D-bank", []int{-1}, nil, 4, false},
		{"a register bank past the composition", nil, []int{0, 4}, 4, false},
		{"no program", nil, nil, 4, true},
	} {
		p := sumProgram(t)
		if tc.nilProg {
			p = nil
		}
		for _, reference := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Reference = reference
			opts.DBanks, opts.RegBanks = tc.dbanks, tc.rbanks
			chip := New(opts)
			cores := compose.MustRect(0, 0, tc.cores)
			if _, err := chip.AddProc(cores, p); err == nil || !strings.HasPrefix(err.Error(), "sim: ") {
				t.Errorf("%s (reference %t): AddProc returned %v, want a sim: error", tc.name, reference, err)
			}
			if _, err := chip.AddProcShared(cores, p, halted); err == nil || !strings.HasPrefix(err.Error(), "sim: ") {
				t.Errorf("%s (reference %t): AddProcShared returned %v, want a sim: error", tc.name, reference, err)
			}
			if len(chip.Procs) != 0 {
				t.Errorf("%s (reference %t): %d processors composed", tc.name, reference, len(chip.Procs))
			}
		}
	}
}
