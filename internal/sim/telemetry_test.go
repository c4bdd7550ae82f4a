package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// Satellite: Stats derived-metric edge cases.  A zero-cycle Stats (the
// processor never halted) and a zero-block Stats must report inert
// values rather than dividing by zero.
func TestStatsZeroCycleAndZeroBlockEdgeCases(t *testing.T) {
	var s Stats
	s.IssuedByCore = []uint64{5, 7}
	if got := s.Utilization(); got != nil {
		t.Fatalf("Utilization with 0 cycles = %v, want nil", got)
	}
	if got := s.IPC(); got != 0 {
		t.Fatalf("IPC with 0 cycles = %v, want 0", got)
	}
	c, h, b, d, i := s.FetchLatency()
	if c != 0 || h != 0 || b != 0 || d != 0 || i != 0 {
		t.Fatalf("FetchLatency with 0 blocks = %v %v %v %v %v, want zeros", c, h, b, d, i)
	}
	arch, hs := s.CommitLatency()
	if arch != 0 || hs != 0 {
		t.Fatalf("CommitLatency with 0 blocks = %v %v, want zeros", arch, hs)
	}

	// Sums without blocks (pathological) still must not divide by zero;
	// with blocks, the averages are the exact float64 quotients.
	s = Stats{FetchBlocks: 4, FetchConstSum: 10, FetchHandOffSum: 2,
		FetchBcastSum: 6, FetchDispatchSum: 8, FetchIStallSum: 0,
		CommitBlocks: 2, CommitArchSum: 5, CommitHandshakeSum: 9}
	c, h, b, d, i = s.FetchLatency()
	if c != 2.5 || h != 0.5 || b != 1.5 || d != 2 || i != 0 {
		t.Fatalf("FetchLatency = %v %v %v %v %v", c, h, b, d, i)
	}
	arch, hs = s.CommitLatency()
	if arch != 2.5 || hs != 4.5 {
		t.Fatalf("CommitLatency = %v %v", arch, hs)
	}
	s.Cycles = 10
	s.IssuedByCore = []uint64{20, 5}
	u := s.Utilization()
	if len(u) != 2 || u[0] != 2 || u[1] != 0.5 {
		t.Fatalf("Utilization = %v", u)
	}
}

// End-to-end: run a kernel with the full telemetry stack armed and check
// that the registry views match the flat stats, the histograms saw every
// committed block, the sampler rowed the run, and the Chrome trace holds
// per-core spans.
func TestChipTelemetryEndToEnd(t *testing.T) {
	p := sumProgram(t)
	chip := New(DefaultOptions())
	reg := chip.Telemetry() // armed before AddProc: components self-register
	trace := &telemetry.Trace{}
	chip.SetChromeTrace(trace)
	samp := chip.SampleEvery(16)
	proc, err := chip.AddProc(compose.MustRect(0, 0, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 30
	if err := chip.Run(1_000_000); err != nil {
		t.Fatal(err)
	}

	// Counter views read the live component fields.
	checks := map[string]uint64{
		"proc0.blocks.committed": proc.Stats.BlocksCommitted,
		"proc0.blocks.fetched":   proc.Stats.BlocksFetched,
		"proc0.insts.committed":  proc.Stats.InstsCommitted,
		"proc0.fetch.const_sum":  proc.Stats.FetchConstSum,
		"proc0.commit.arch_sum":  proc.Stats.CommitArchSum,
		"proc0.cycles":           proc.Stats.Cycles,
		"proc0.pred.predictions": proc.Pred.Stats.Predictions,
		"proc0.pred.hits":        proc.Pred.Stats.Hits,
		"noc.ctl.messages":       chip.Ctl.Stats().Messages,
		"l2.accesses":            chip.L2.Stats.Accesses,
	}
	snap := reg.Snapshot()
	for name, want := range checks {
		if got := snap.Get(name); got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	// sum adds the entries named prefix…suffix; counts are integers, so
	// the order of addition cannot matter.
	sum := func(prefix, suffix string) (total float64) {
		for name, v := range snap {
			if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				total += v
			}
		}
		return total
	}
	if got := sum("", ".l1d.accesses"); got != float64(chip.L1DStats().Accesses) {
		t.Errorf("sum l1d.accesses = %v, want %d", got, chip.L1DStats().Accesses)
	}
	// Per-link flits sum to the mesh hop count.
	if got := sum("noc.ctl.link.", ".flits"); got != float64(chip.Ctl.Stats().Hops) {
		t.Errorf("sum ctl link flits = %v, want %d hops", got, chip.Ctl.Stats().Hops)
	}
	// Events by kind sum to the chip's count, which sim.events reads, and
	// every kind is exported.
	if got := sum("sim.events.", ""); got != float64(chip.Events()) || snap.Get("sim.events") != got {
		t.Errorf("sum sim.events.<kind> = %v, sim.events %v, want %d", got, snap.Get("sim.events"), chip.Events())
	}
	for _, kind := range evKindNames {
		if _, ok := snap["sim.events."+kind]; !ok {
			t.Errorf("no sim.events.%s", kind)
		}
	}

	// Histograms observed one sample per committed block.
	fh := reg.Histogram("proc0.fetch.latency")
	ch := reg.Histogram("proc0.commit.latency")
	if fh.Count() != proc.Stats.FetchBlocks || ch.Count() != proc.Stats.BlocksCommitted {
		t.Errorf("histogram counts = %d/%d, want %d/%d",
			fh.Count(), ch.Count(), proc.Stats.FetchBlocks, proc.Stats.BlocksCommitted)
	}
	if fh.Sum() != proc.Stats.FetchConstSum+proc.Stats.FetchHandOffSum+
		proc.Stats.FetchBcastSum+proc.Stats.FetchDispatchSum+proc.Stats.FetchIStallSum {
		t.Errorf("fetch histogram sum = %d does not match the Stats sums", fh.Sum())
	}

	// The sampler rowed the run at its interval.
	wantRows := int(proc.Stats.Cycles / 16)
	if samp.Len() < wantRows-1 || samp.Len() > wantRows+1 {
		t.Errorf("sampler rows = %d over %d cycles at interval 16", samp.Len(), proc.Stats.Cycles)
	}
	series := samp.Series()
	if len(series) != 3 || series[0].Name != "proc0.window.occupancy" {
		t.Fatalf("series = %+v", series)
	}

	// Chrome trace: valid JSON, a track per participating core, three
	// spans per committed block.
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace JSON invalid: %v", err)
	}
	spans := map[string]int{}
	tracks := map[int]bool{}
	threadNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans[ev.Cat]++
			tracks[ev.TID] = true
			if ev.PID != 0 {
				t.Fatalf("span pid = %d, want proc id 0", ev.PID)
			}
		case "M":
			if ev.Name == "thread_name" {
				threadNames[fmt.Sprint(ev.Args["name"])] = true
			}
		}
	}
	retired := int(proc.Stats.BlocksCommitted + proc.Stats.BlocksFlushed)
	if spans["fetch"] != retired || spans["execute"] != retired {
		t.Errorf("fetch/execute spans = %d/%d, want %d each", spans["fetch"], spans["execute"], retired)
	}
	if spans["commit"] != int(proc.Stats.BlocksCommitted) {
		t.Errorf("commit spans = %d, want %d", spans["commit"], proc.Stats.BlocksCommitted)
	}
	for _, core := range proc.Cores() {
		if !threadNames[fmt.Sprintf("core%d", core)] {
			t.Errorf("missing thread_name for core%d", core)
		}
	}
	if len(tracks) == 0 {
		t.Error("no span tracks recorded")
	}
	for tid := range tracks {
		found := false
		for _, core := range proc.Cores() {
			if tid == core {
				found = true
			}
		}
		if !found {
			t.Errorf("span on track %d, not a participating core", tid)
		}
	}

	// Registry export is valid JSON with the hierarchical names.
	buf.Reset()
	if err := reg.WriteJSON(&buf); err != nil || !json.Valid(buf.Bytes()) {
		t.Fatalf("registry JSON invalid (err=%v)", err)
	}
}

// Telemetry armed only after the run (the experiments path): snapshot
// still reads every counter, and the disabled-during-run instrumentation
// stayed inert.
func TestTelemetryAttachAfterRun(t *testing.T) {
	p := sumProgram(t)
	chip := New(DefaultOptions())
	proc, err := chip.AddProc(compose.MustRect(0, 0, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 30
	if err := chip.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	snap := chip.Telemetry().Snapshot()
	if got := snap.Get("proc0.blocks.committed"); got != float64(proc.Stats.BlocksCommitted) {
		t.Fatalf("post-run snapshot blocks.committed = %v, want %d", got, proc.Stats.BlocksCommitted)
	}
	if got := snap.Get("proc0.fetch.latency.count"); got != 0 {
		t.Fatalf("histogram observed %v blocks while disabled, want 0", got)
	}
}

// A recomposed processor (AddProcShared) reuses its predecessor's ID and
// so its series names: the sampler keeps one series per name, whose rows
// up to the recomposition stand and whose later rows read the new
// processor, not the halted one.
func TestSamplerFollowsRecomposition(t *testing.T) {
	p := sumProgram(t)
	chip := New(DefaultOptions())
	samp := chip.SampleEvery(64)
	first, err := chip.AddProc(compose.MustRect(0, 0, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	first.Regs[1] = 200
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	before := samp.Series()
	frozen := float64(first.Stats.InstsCommitted)
	second, err := chip.AddProcShared(compose.MustRect(2, 0, 2), p, first)
	if err != nil {
		t.Fatal(err)
	}
	second.Regs[1] = 500 // 300 more iterations: more than the first leg committed
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}

	series := samp.Series()
	var names []string
	for _, s := range series {
		names = append(names, s.Name)
	}
	if len(series) != len(before) || len(series) != 3 {
		t.Fatalf("series %v after recomposition, want the 3 of proc0 once each", names)
	}
	for i, s := range series {
		if s.Name != before[i].Name || !slices.Equal(s.Values[:len(before[i].Values)], before[i].Values) {
			t.Errorf("%s: the rows before recomposition changed", s.Name)
		}
	}
	committed := series[slices.Index(names, "proc0.insts.committed")].Values
	after := committed[len(before[0].Values):]
	if len(after) < 2 {
		t.Fatalf("%d rows after recomposition, want a run long enough to sample", len(after))
	}
	if after[0] >= frozen || after[len(after)-1] <= frozen || after[len(after)-1] > float64(second.Stats.InstsCommitted) {
		t.Errorf("proc0.insts.committed after recomposition runs %v..%v; the halted processor stopped at %v, the new one at %d",
			after[0], after[len(after)-1], frozen, second.Stats.InstsCommitted)
	}
}

// A recomposed processor's histograms count its own blocks, as its counter
// views do: re-registration under the reused ID hands it fresh
// histograms, not its predecessor's.  The first leg commits 201 blocks,
// the second 301; every proc0 histogram must read the second leg alone.
func TestRecomposedHistogramsCountOneLeg(t *testing.T) {
	p := sumProgram(t)
	chip := New(DefaultOptions())
	chip.EnableCritPath()
	reg := chip.Telemetry()
	first, err := chip.AddProc(compose.MustRect(0, 0, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	first.Regs[1] = 200
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	second, err := chip.AddProcShared(compose.MustRect(2, 0, 2), p, first)
	if err != nil {
		t.Fatal(err)
	}
	second.Regs[1] = 500
	if err := chip.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if first.Stats.BlocksCommitted != 201 || second.Stats.BlocksCommitted != 301 {
		t.Fatalf("legs committed %d and %d blocks, want 201 and 301",
			first.Stats.BlocksCommitted, second.Stats.BlocksCommitted)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"proc0.blocks.committed":      second.Stats.BlocksCommitted,
		"proc0.fetch.latency.count":   second.Stats.FetchBlocks,
		"proc0.commit.latency.count":  second.Stats.BlocksCommitted,
		"proc0.critpath.commit.count": second.Stats.BlocksCommitted,
	} {
		if got := snap.Get(name); got != float64(want) {
			t.Errorf("%s = %v, want %d: the second leg alone", name, got, want)
		}
	}
}
