package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/runner"
)

// enqueued lists every spec the suite has run, read off its one store.
func enqueued(s *Suite) []runner.Spec {
	var specs []runner.Spec
	s.results.Each(func(sp runner.Spec, _ RunResult) { specs = append(specs, sp) })
	return specs
}

// The -metrics export is exactly the job set: one snapshot per chip run,
// under the job's own key, none for the Core2 model, and the same bytes
// at any worker count.
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
	// 26 trips, 12 hand-optimized x 6 sizes critpath, 26 tflex-8c and
	// 26 x 4 ablations; Figure 5's 26 core2 jobs carry no registry.
	if len(want) != 26+72+26+104 || len(enqueued(s)) != len(want)+26 {
		t.Fatalf("%d chip jobs of %d enqueued, want 228 of 254", len(want), len(enqueued(s)))
	}
	got := s.MetricsByJob()
	for key, snap := range got {
		if !want[key] {
			t.Errorf("export has %q, which no figure enqueued", key)
		}
		if snap.Get("proc0.blocks.committed") == 0 {
			t.Errorf("%s: snapshot committed no blocks", key)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("export lacks the enqueued job %q", key)
		}
	}
	for _, key := range []string{"conv/trips/scale1", "conv/critpath-32c/scale1", "mcf/ablate:single-issue-8c/scale1"} {
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
	if got, want := s.Summary().JobsRun, 410; got != want || len(enqueued(s)) != want {
		t.Errorf("%d jobs run, %d results stored, want %d of each", got, len(enqueued(s)), want)
	}

	bogus := runner.Spec{Kernel: "conv", Config: "tflex-turbo", Cores: 8, Scale: 1}
	err := s.Prefetch([]runner.Spec{bogus})
	if err == nil || !strings.Contains(err.Error(), `"tflex-turbo"`) || !strings.Contains(err.Error(), bogus.Key()) {
		t.Errorf("Prefetch(%s) = %v, want an error naming the config and the job", bogus.Key(), err)
	}
}
