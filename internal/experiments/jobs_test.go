package experiments

import (
	"bytes"
	"fmt"
	"maps"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// enqueued lists every spec the suite has run successfully, read off its
// job map.
func enqueued(s *Suite) []Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	var specs []Spec
	for sp, j := range s.jobs {
		if j.finished() && j.err == nil {
			specs = append(specs, sp)
		}
	}
	return specs
}

// core2 is a cheap real job: the i-th kernel on the conventional-core
// model, which runs the functional trace and builds no chip.
func core2(i int) Spec {
	return Spec{Kernel: kernels.Names()[i], Config: cfgCore2, Scale: 1}
}

// unknown is a job that fails before simulating: its config names no
// machine.
func unknown(name string) Spec {
	return Spec{Kernel: "conv", Config: name, Scale: 1}
}

var progressLine = regexp.MustCompile(`^\[ *(\d+)/(\d+)\] (\S+) +\d+\.\d{3}s(  FAILED: .*)?$`)

// progressLines splits a progress stream into its lines, failing the test
// on any line not of the form "[i/n] key wall".
func progressLines(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	var lines [][]string
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		m := progressLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("progress line %q is not [i/n] key wall", line)
		}
		lines = append(lines, m[1:4])
	}
	return lines
}

func TestSpecKey(t *testing.T) {
	cases := []struct {
		sp   Spec
		want string
	}{
		{Spec{Kernel: "conv", Config: "tflex", Cores: 8, Scale: 2}, "conv/tflex-8c/scale2"},
		{Spec{Kernel: "mcf", Config: "trips", Scale: 1}, "mcf/trips/scale1"},
		{Spec{Kernel: "ct", Config: "core2", Scale: 3}, "ct/core2/scale3"},
	}
	for _, c := range cases {
		if got := c.sp.Key(); got != c.want {
			t.Errorf("Key(%+v) = %q, want %q", c.sp, got, c.want)
		}
	}
}

// checkProgress requires one progress line per simulated job, with the
// given [i/n] counts in order, naming exactly the given specs, and a
// JobsRun of one per line.
func checkProgress(t *testing.T, s *Suite, buf *bytes.Buffer, counts [][2]string, specs ...Spec) {
	t.Helper()
	lines := progressLines(t, buf)
	if len(lines) != len(counts) || s.Summary().JobsRun != len(counts) {
		t.Fatalf("%d progress lines, %d jobs run, want %d of each:\n%s", len(lines), s.Summary().JobsRun, len(counts), buf.String())
	}
	keys := map[string]bool{}
	for i, want := range counts {
		keys[lines[i][2]] = true
		if lines[i][0] != want[0] || lines[i][1] != want[1] {
			t.Errorf("line %d counts [%s/%s], want [%s/%s]", i, lines[i][0], lines[i][1], want[0], want[1])
		}
	}
	for _, sp := range specs {
		if !keys[sp.Key()] {
			t.Errorf("progress names %v, want %s among them", keys, sp.Key())
		}
	}
}

// Every simulated job prints one "[i/n] key wall" line, counted against
// the jobs its Prefetch filed.
func TestProgressLines(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(1)
	s.SetJobs(2)
	s.SetProgress(&buf)
	a, b := core2(0), core2(1)
	if err := s.Prefetch([]Spec{a, b}); err != nil {
		t.Fatal(err)
	}
	checkProgress(t, s, &buf, [][2]string{{"1", "2"}, {"2", "2"}}, a, b)
}

// A spec repeated within one Prefetch call is filed and simulated once:
// one progress line, counted once in n, and one job run.
func TestPrefetchDedupesByKey(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(1)
	s.SetJobs(4)
	s.SetProgress(&buf)
	a, b := core2(0), core2(1)
	if err := s.Prefetch([]Spec{a, a, b, a}); err != nil {
		t.Fatal(err)
	}
	checkProgress(t, s, &buf, [][2]string{{"1", "2"}, {"2", "2"}}, a, b)
	if s.have(a).Cycles == 0 || s.have(b).Cycles == 0 {
		t.Error("a deduplicated spec has no result")
	}
}

// A spec an earlier Prefetch ran is not simulated again: the later call
// files and runs only what is new.
func TestPrefetchMergesAcrossBatches(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(1)
	s.SetJobs(2)
	s.SetProgress(&buf)
	a, b, c := core2(0), core2(1), core2(2)
	if err := s.Prefetch([]Spec{a, b}); err != nil {
		t.Fatal(err)
	}
	if err := s.Prefetch([]Spec{a, b, c, c}); err != nil {
		t.Fatal(err)
	}
	checkProgress(t, s, &buf, [][2]string{{"1", "2"}, {"2", "2"}, {"1", "1"}}, a, b, c)
	if lines := progressLines(t, &buf); lines[2][2] != c.Key() {
		t.Errorf("the second call ran %s, want only %s", lines[2][2], c.Key())
	}
}

// The first error in submission order is returned, whatever order the
// workers finish in, and every other job still runs to a result.
func TestPrefetchFirstErrorInSubmissionOrder(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(1)
	s.SetJobs(8)
	s.SetProgress(&buf)
	var specs []Spec
	for i := range 10 {
		sp := core2(i)
		if i == 2 || i == 7 {
			sp = unknown(fmt.Sprintf("bad%d", i))
		}
		specs = append(specs, sp)
	}
	err := s.Prefetch(specs)
	if err == nil || !strings.HasPrefix(err.Error(), specs[2].Key()+": ") {
		t.Fatalf("err = %v, want the first submission-order failure (%s)", err, specs[2].Key())
	}
	if n := len(progressLines(t, &buf)); n != 10 {
		t.Fatalf("%d jobs ran, want all 10 despite failures", n)
	}
	for i, sp := range specs {
		if i != 2 && i != 7 && s.have(sp).Cycles == 0 {
			t.Errorf("%s: no result", sp.Key())
		}
	}
}

// A failed job keeps its error: prefetching the spec again returns the
// same failure without running it a second time.
func TestPrefetchMemoizesErrors(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(1)
	s.SetProgress(&buf)
	bogus := unknown("no-such-machine")
	for range 2 {
		if err := s.Prefetch([]Spec{bogus}); err == nil || !strings.Contains(err.Error(), `"no-such-machine"`) {
			t.Fatalf("Prefetch(%s) = %v, want the unknown-config error", bogus.Key(), err)
		}
	}
	if n := len(progressLines(t, &buf)); n != 1 {
		t.Fatalf("the failed spec ran %d times, want once", n)
	}
}

// The suite builds each (kernel, scale) once, however many jobs and
// workers run it: after Figures 5 and 6 — 26 kernels on core2, trips and
// six tflex sizes, 208 jobs on 8 workers — the build memo holds the 26
// kernels, each built without error and handed out as the one shared
// Instance.  An unknown kernel's failure is memoized the same way: two
// jobs naming it share one failed build and one error.
func TestSuiteBuildsEachKernelOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments")
	}
	s := NewSuite(1)
	s.SetJobs(8)
	if _, _, err := s.Fig5(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Fig6(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	builds := maps.Clone(s.builds)
	s.mu.Unlock()
	if len(builds) != len(kernels.All()) {
		t.Fatalf("%d kernel builds for %d jobs, want %d: one per kernel", len(builds), s.Summary().JobsRun, len(kernels.All()))
	}
	for _, k := range kernels.All() {
		b := builds[buildKey{k.Name, 1}]
		if b == nil || b.inst == nil || b.err != nil {
			t.Fatalf("%s: no successful build in the memo", k.Name)
		}
		if inst, err := s.instance(k.Name, 1); inst != b.inst || err != nil {
			t.Errorf("%s: a later job got a different Instance", k.Name)
		}
	}

	var buf bytes.Buffer
	s.SetProgress(&buf)
	bogus := []Spec{{Kernel: "no-such-kernel", Config: cfgCore2, Scale: 1}, {Kernel: "no-such-kernel", Config: cfgTRIPS, Scale: 1}}
	for range 2 {
		if err := s.Prefetch(bogus); err == nil || !strings.Contains(err.Error(), `unknown kernel "no-such-kernel"`) {
			t.Fatalf("Prefetch = %v, want the unknown-kernel error", err)
		}
	}
	if n := len(progressLines(t, &buf)); n != 2 {
		t.Fatalf("the two failing specs ran %d times, want once each", n)
	}
	s.mu.Lock()
	b, n := s.builds[buildKey{"no-such-kernel", 1}], len(s.builds)
	s.mu.Unlock()
	if n != len(kernels.All())+1 || b == nil || b.inst != nil || b.err == nil {
		t.Fatalf("%d builds, unknown kernel's entry %+v: want one more entry holding the error", n, b)
	}
}

// Goroutines prefetching overlapping spec sets share one job per spec:
// each distinct spec runs once, and every caller gets its result (or its
// error).  Run under -race, this is the suite's single-flight gate.
func TestPrefetchSingleflight(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(1)
	s.SetJobs(4)
	s.SetProgress(&buf)
	bogus := unknown("no-such-machine")
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			specs := []Spec{core2(g), core2(g + 1), core2(g + 2), bogus}
			if err := s.Prefetch(specs); err == nil || !strings.HasPrefix(err.Error(), bogus.Key()) {
				t.Errorf("goroutine %d: err = %v, want the shared failure of %s", g, err, bogus.Key())
				return
			}
			for _, sp := range specs[:3] {
				if s.have(sp).Cycles == 0 {
					t.Errorf("goroutine %d: %s has no result", g, sp.Key())
				}
			}
		}()
	}
	wg.Wait()
	// Windows of three kernels starting at 0..5 cover kernels 0..7.
	if n, jobs := len(progressLines(t, &buf)), s.Summary().JobsRun; n != 9 || jobs != 9 {
		t.Fatalf("%d progress lines, %d jobs for 9 distinct specs, want 9 of each", n, jobs)
	}
}

// A worker's trace track is named once, however many Prefetch calls
// follow, and every job leaves one span.
func TestTraceNamesEachWorkerOnce(t *testing.T) {
	tr := &telemetry.Trace{}
	s := NewSuite(1)
	s.SetJobs(2)
	s.SetTrace(tr)
	for batch := range 3 {
		if err := s.Prefetch([]Spec{core2(2 * batch), core2(2*batch + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"thread_name"`); got != 2 {
		t.Fatalf("%d thread_name records for 2 workers over 3 calls, want 2", got)
	}
	if got := strings.Count(buf.String(), `"cat":"job"`); got != 6 {
		t.Fatalf("%d job spans, want 6", got)
	}
}

// The -metrics export is exactly the job set: one snapshot per chip run,
// under the job's own key, none for the Core2 model, and the same bytes
// at any worker count.  Every tflex run records attribution: its eight
// critpath histograms each count every committed block.
func TestMetricsExportIsTheJobSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments twice")
	}
	export := func(jobs int) (*Suite, []byte) {
		s := NewSuite(1)
		s.SetJobs(jobs)
		if _, _, err := s.Fig5(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Fig9x(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Ablations(8); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return s, buf.Bytes()
	}
	s, serial := export(1)

	want := map[string]bool{}
	for _, sp := range enqueued(s) {
		if sp.Config != cfgCore2 {
			want[sp.Key()] = true
		}
	}
	// 26 trips, 12 hand-optimized x 6 sizes tflex, the 14 other kernels'
	// tflex-8c and 26 x 4 ablations; Figure 5's 26 core2 jobs carry no
	// registry.
	if len(want) != 26+72+14+104 || len(enqueued(s)) != len(want)+26 {
		t.Fatalf("%d chip jobs of %d enqueued, want 216 of 242", len(want), len(enqueued(s)))
	}
	got := s.MetricsByJob()
	for key, snap := range got {
		if !want[key] {
			t.Errorf("export has %q, which no figure enqueued", key)
		}
		committed := snap.Get("proc0.blocks.committed")
		if committed == 0 {
			t.Errorf("%s: snapshot committed no blocks", key)
		}
		if !strings.Contains(key, "/"+cfgTFlex+"-") {
			continue
		}
		for c := critpath.Category(0); c < critpath.NumCategories; c++ {
			if name := "proc0.critpath." + c.String() + ".count"; snap.Get(name) != committed {
				t.Errorf("%s: %s = %v, want the %v committed blocks", key, name, snap.Get(name), committed)
			}
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("export lacks the enqueued job %q", key)
		}
	}
	for _, key := range []string{"conv/trips/scale1", "conv/tflex-32c/scale1", "mcf/ablate:single-issue-8c/scale1"} {
		if _, ok := got[key]; !ok {
			t.Errorf("export lacks %q", key)
		}
	}

	if _, parallel := export(8); !bytes.Equal(serial, parallel) {
		t.Error("WriteMetrics differs between SetJobs(1) and SetJobs(8)")
	}
}

// Every config a figure enqueues is a row of the machine table, every
// row is enqueued by some figure, and an unknown config is an error that
// names it.
func TestEveryEnqueuedConfigHasAMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	s := NewSuite(1)
	for _, fig := range []func() error{
		func() error { _, _, err := s.Fig5(); return err },
		func() error { _, _, err := s.Fig6(); return err },
		func() error { _, err := s.Table2(); return err },
		func() error { _, _, err := s.Fig7(); return err },
		func() error { _, _, err := s.Fig8(); return err },
		func() error { _, _, err := s.Fig9(); return err },
		func() error { _, _, err := s.Fig9x(); return err },
		func() error { _, _, err := s.Handshake(); return err },
		func() error { _, _, err := s.Fig10(2); return err },
		func() error { _, _, err := s.Ablations(8); return err },
	} {
		if err := fig(); err != nil {
			t.Fatal(err)
		}
	}
	used := map[string]int{}
	for _, sp := range enqueued(s) {
		if _, ok := machines[sp.Config]; !ok {
			t.Errorf("%s: config %q is not a machine", sp.Key(), sp.Config)
		}
		used[sp.Config]++
	}
	for config := range machines {
		if used[config] == 0 {
			t.Errorf("machine %q: no figure enqueues it", config)
		}
	}
	if got, want := s.Summary().JobsRun, 338; got != want || len(enqueued(s)) != want {
		t.Errorf("%d jobs run, %d results stored, want %d of each", got, len(enqueued(s)), want)
	}

	bogus := Spec{Kernel: "conv", Config: "tflex-turbo", Cores: 8, Scale: 1}
	err := s.Prefetch([]Spec{bogus})
	if err == nil || !strings.Contains(err.Error(), `"tflex-turbo"`) || !strings.Contains(err.Error(), bogus.Key()) {
		t.Errorf("Prefetch(%s) = %v, want an error naming the config and the job", bogus.Key(), err)
	}
}

// The one job map is shared across experiments: a second run of an
// experiment, and any experiment drawing on jobs an earlier one ran, does
// zero new simulations.  Figures 7 to 10 and Table 2 read only Figure 6's
// sweep and trips rows; Figure 9x reads its attribution off them.
func TestSuiteCachesAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full sweep")
	}
	s := NewSuite(1)
	s.SetJobs(4)
	if _, _, err := s.Fig6(); err != nil {
		t.Fatal(err)
	}
	first := s.Summary()
	if first.SimCycles == 0 {
		t.Fatal("no simulated cycles recorded")
	}
	for _, e := range Evaluation() {
		if !slices.Contains([]string{"fig6", "table2", "fig7", "fig8", "fig9", "fig9x", "fig10"}, e.Name) {
			continue
		}
		if _, err := e.Render(s, 2); err != nil {
			t.Fatal(err)
		}
		if got := s.Summary().JobsRun; got != first.JobsRun {
			t.Fatalf("%s after fig6 ran %d new jobs, want 0", e.Name, got-first.JobsRun)
		}
	}
	if s.Summary().CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
}
