package tflex

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"

	"github.com/clp-sim/tflex/internal/experiments"
	"github.com/clp-sim/tflex/internal/flight"
)

// TestTelemetryUnderConcurrentJobs is the tier-1 race gate for the
// telemetry layer: several goroutines run fully instrumented simulations
// — each chip driving its own cycle sampler — that all append block spans
// to one shared Chrome trace, while the experiment suite's workers run
// jobs of their own and append their job spans to the same trace.  Run
// under -race (ci.sh does), this exercises every concurrent surface the
// telemetry subsystem has: the Trace mutex, per-chip registries built on
// worker goroutines, and samplers advancing inside concurrent jobs.
func TestTelemetryUnderConcurrentJobs(t *testing.T) {
	shared := NewTrace()
	type out struct {
		metrics MetricsSnapshot
		rows    int
	}
	results := make([]out, 8)

	// Eight distinct runs: two kernels across the composition sizes.
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunKernel([]string{"conv", "autcor"}[i%2], 1, RunConfig{
				Cores:          []int{4, 8, 16, 32}[i/2],
				CollectMetrics: true,
				ChromeTrace:    shared,
				SampleEvery:    64,
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = out{res.Metrics, res.Samples.Len()}
		}()
	}
	suite := experiments.NewSuite(1)
	suite.SetJobs(4)
	suite.SetTrace(shared)
	var specs []experiments.Spec
	for _, k := range []string{"conv", "autcor", "ct", "dither"} {
		specs = append(specs, experiments.Spec{Kernel: k, Config: "trips", Scale: 1})
	}
	if err := suite.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, r := range results {
		if r.metrics == nil || r.metrics.Get("proc0.blocks.committed") == 0 {
			t.Fatalf("job %d: empty metrics snapshot", i)
		}
		if r.rows == 0 {
			t.Fatalf("job %d: sampler recorded no rows", i)
		}
	}

	// The shared trace holds every run's block spans plus the suite's
	// job spans, and still serializes to valid Chrome trace JSON.
	var buf bytes.Buffer
	if err := shared.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("shared trace JSON invalid")
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			cats[ev.Cat]++
		}
	}
	if cats["job"] != len(specs) {
		t.Errorf("suite job spans = %d, want %d", cats["job"], len(specs))
	}
	for _, cat := range []string{"fetch", "execute", "commit"} {
		if cats[cat] == 0 {
			t.Errorf("no %s block spans in shared trace (%v)", cat, cats)
		}
	}
}

// TestRunMultiHonoursObservers arms every observer field of RunConfig on
// a two-program run: the chip-wide ones must come back on every Result
// and cover both processors, the per-processor ones must reconcile with
// each processor's own statistics.
func TestRunMultiHonoursObservers(t *testing.T) {
	rects, err := Partition(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]ProgramSpec, len(rects))
	for i, cores := range rects {
		inst, err := BuildKernel("conv", 1)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = ProgramSpec{Prog: inst.Prog, Cores: cores, Init: inst.Init}
	}
	trace := NewTrace()
	retired := map[int]uint64{}
	results, err := RunMulti(specs, RunConfig{
		CollectMetrics: true,
		ChromeTrace:    trace,
		SampleEvery:    64,
		CritPath:       true,
		Flight:         true,
		ArchDigest:     true,
		OnBlock:        func(ev BlockEvent) { retired[ev.Proc]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var spans uint64
	for i, r := range results {
		if r.Telemetry == nil || r.Metrics == nil || r.Samples == nil || r.CritPath == nil || r.Flight == nil || r.Arch == nil {
			t.Fatalf("program %d: Telemetry %v, Metrics %v, Samples %v, CritPath %v, Flight %v, Arch %v: every one was asked for",
				i, r.Telemetry != nil, r.Metrics != nil, r.Samples != nil, r.CritPath != nil, r.Flight != nil, r.Arch != nil)
		}
		st := r.Stats
		if got := r.Metrics.Get(fmt.Sprintf("proc%d.blocks.committed", i)); got == 0 || got != float64(st.BlocksCommitted) {
			t.Errorf("program %d: registry counts %v committed blocks, Stats %d", i, got, st.BlocksCommitted)
		}
		if r.CritPath.Blocks != st.BlocksCommitted {
			t.Errorf("program %d: critical path attributed %d blocks, %d committed", i, r.CritPath.Blocks, st.BlocksCommitted)
		}
		if want := st.BlocksCommitted + st.BlocksFlushed; retired[i] != want {
			t.Errorf("program %d: OnBlock saw %d retirements, want %d", i, retired[i], want)
		}
		if r.Arch.Blocks != st.BlocksCommitted {
			t.Errorf("program %d: ArchState has %d blocks, %d committed", i, r.Arch.Blocks, st.BlocksCommitted)
		}
		spans += 3 * retired[i]
	}
	if results[0].Samples.Len() == 0 {
		t.Error("the sampler recorded no rows")
	}
	// Two process names and sixteen core tracks beside the block spans.
	if got, want := uint64(trace.Len()), spans+18; got != want {
		t.Errorf("Chrome trace holds %d events, want %d", got, want)
	}
	commits := map[int16]uint64{}
	for _, rc := range results[0].Flight.Records(flight.KCommit) {
		commits[rc.Proc]++
	}
	if len(commits) != 2 {
		t.Errorf("flight ring holds commits of %d processors, want 2", len(commits))
	}
}

// TestBlockViewsAgree runs gcc once with every view of a block's
// lifetime armed — the OnBlock record, the timeline CSV and Chrome spans
// rendered from the trace, critical-path attribution and the registry's
// latency histogram — and checks, block by block, that they tell the
// same story.  The flight ring is not a view here: it records a
// retirement from the same call that builds the record.
func TestBlockViewsAgree(t *testing.T) {
	trace := NewTrace()
	var events []BlockEvent
	res, err := RunKernel("gcc", 4, RunConfig{
		Cores:          8,
		CollectMetrics: true,
		ChromeTrace:    trace,
		CritPath:       true,
		OnBlock:        func(ev BlockEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(events)) != res.Stats.BlocksCommitted+res.Stats.BlocksFlushed || res.Stats.BlocksFlushed == 0 {
		t.Fatalf("%d records for %d committed and %d flushed blocks (the run should flush some)",
			len(events), res.Stats.BlocksCommitted, res.Stats.BlocksFlushed)
	}

	// Timeline CSV: one row per record, in retirement order.
	var buf bytes.Buffer
	if err := trace.WriteTimeline(&buf, false); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(events)+1 {
		t.Fatalf("timeline has %d rows for %d records", len(rows)-1, len(events))
	}

	// Chrome spans, as a multiset of (phase, block, start, end).
	buf.Reset()
	if err := trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			TS   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Args struct {
				Seq uint64 `json:"seq"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type span struct {
		cat, name  string
		start, end uint64
	}
	spans := map[span]int{}
	fetchSeq := map[span]map[uint64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		s := span{ev.Cat, ev.Name, ev.TS, ev.TS + ev.Dur}
		spans[s]++
		if ev.Cat == "fetch" {
			if fetchSeq[s] == nil {
				fetchSeq[s] = map[uint64]bool{}
			}
			fetchSeq[s][ev.Args.Seq] = true
		}
	}
	take := func(ev BlockEvent, cat string, start, end uint64) {
		t.Helper()
		s := span{cat, ev.Name, start, max(end, start+1)} // spans last one tick at least
		if spans[s] == 0 {
			t.Errorf("block %d (%s): no %s span over [%d,%d)", ev.Seq, ev.Name, cat, s.start, s.end)
		}
		spans[s]--
	}

	var cats CritPathBreakdown
	var commitSum uint64
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for i, ev := range events {
		row := []string{u(ev.Seq), ev.Name, strconv.Itoa(ev.OwnerCore), u(ev.FetchStart), u(ev.DispatchDone),
			u(ev.CompleteAt), u(ev.CommitStart), u(ev.RetiredAt), strconv.FormatBool(ev.Flushed), strconv.Itoa(ev.Useful)}
		if !slices.Equal(rows[i+1], row) {
			t.Errorf("timeline row %d = %v, record says %v", i, rows[i+1], row)
		}

		take(ev, "fetch", ev.FetchStart, ev.DispatchDone)
		if !fetchSeq[span{"fetch", ev.Name, ev.FetchStart, ev.DispatchDone}][ev.Seq] {
			t.Errorf("block %d: its fetch span does not carry its sequence number", ev.Seq)
		}
		if ev.Flushed {
			if ev.HasCritPath || ev.Useful != 0 {
				t.Errorf("flushed block %d carries a breakdown or useful instructions", ev.Seq)
			}
			execEnd := ev.CompleteAt
			if execEnd == 0 {
				execEnd = ev.RetiredAt
			}
			take(ev, "execute", min(ev.DispatchDone, execEnd), execEnd)
			take(ev, "flushed", execEnd, ev.RetiredAt)
			continue
		}
		if !ev.HasCritPath || ev.CritPath.Total() != ev.RetiredAt-ev.FetchStart {
			t.Errorf("block %d: critical path attributes %d cycles (armed %t), record says %d", ev.Seq, ev.CritPath.Total(), ev.HasCritPath, ev.RetiredAt-ev.FetchStart)
		}
		take(ev, "execute", min(ev.DispatchDone, ev.CompleteAt), ev.CompleteAt)
		take(ev, "commit", ev.CommitStart, ev.RetiredAt)
		cats.Add(ev.CritPath)
		commitSum += ev.RetiredAt - ev.CommitStart
	}
	for s, n := range spans {
		if n != 0 {
			t.Errorf("%d Chrome span(s) %+v belong to no record", n, s)
		}
	}
	if cats != res.CritPath.Cats {
		t.Errorf("critical-path summary %v, records sum to %v", res.CritPath.Cats, cats)
	}
	h := res.Telemetry.Histogram("proc0.commit.latency")
	if h.Count() != res.Stats.BlocksCommitted || h.Sum() != commitSum {
		t.Errorf("commit.latency histogram: %d blocks, %d cycles; records: %d blocks, %d cycles",
			h.Count(), h.Sum(), res.Stats.BlocksCommitted, commitSum)
	}
}
