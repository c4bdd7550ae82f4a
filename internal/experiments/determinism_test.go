package experiments

import (
	"testing"
)

// Determinism regression: every experiment must render byte-identical
// table output regardless of the suite's worker count.  The simulator
// is deterministic and the render phase reads the job map in a
// fixed order, so 1 worker and 8 workers must agree exactly — cycle
// counts, stats, formatting, everything.  Run under `go test -race`
// (ci.sh does) this also exercises the suite's concurrent jobs and the
// audited packages for data races.
func TestExperimentsDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	outputs := func(jobs int) map[string]string {
		s := NewSuite(1)
		s.SetJobs(jobs)
		out := map[string]string{}
		record := func(name string, fn func() (string, error)) {
			text, err := fn()
			if err != nil {
				t.Fatalf("jobs=%d: %s: %v", jobs, name, err)
			}
			out[name] = text
		}
		record("fig5", func() (string, error) { _, o, err := s.Fig5(); return o, err })
		record("fig6", func() (string, error) { _, o, err := s.Fig6(); return o, err })
		record("table2", s.Table2)
		record("fig7", func() (string, error) { _, o, err := s.Fig7(); return o, err })
		record("fig8", func() (string, error) { _, o, err := s.Fig8(); return o, err })
		record("fig9", func() (string, error) { _, o, err := s.Fig9(); return o, err })
		record("fig9x", func() (string, error) { _, o, err := s.Fig9x(); return o, err })
		record("handshake", func() (string, error) { _, o, err := s.Handshake(); return o, err })
		record("fig10", func() (string, error) { _, o, err := s.Fig10(4); return o, err })
		record("ablations", func() (string, error) { _, o, err := s.Ablations(8); return o, err })
		return out
	}

	serial := outputs(1)
	parallel := outputs(8)
	for name, want := range serial {
		if got := parallel[name]; got != want {
			t.Errorf("%s: output differs between -jobs 1 and -jobs 8\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", name, want, got)
		}
	}
}

// The one job map is shared across experiments: a second run of an
// experiment, and any experiment drawing on jobs an earlier one ran, does
// zero new simulations.
func TestSuiteCachesAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full sweep")
	}
	s := NewSuite(1)
	s.SetJobs(4)
	if _, _, err := s.Fig6(); err != nil {
		t.Fatal(err)
	}
	jobsAfterFirst := s.Summary().JobsRun
	if _, _, err := s.Fig6(); err != nil {
		t.Fatal(err)
	}
	sum := s.Summary()
	if sum.JobsRun != jobsAfterFirst {
		t.Fatalf("second Fig6 ran %d new jobs, want 0", sum.JobsRun-jobsAfterFirst)
	}
	if sum.CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
	if sum.SimCycles == 0 {
		t.Fatal("no simulated cycles recorded")
	}
	// Fig9 reuses Fig6's TFlex sweep entirely: no new jobs either.
	if _, _, err := s.Fig9(); err != nil {
		t.Fatal(err)
	}
	if got := s.Summary().JobsRun; got != jobsAfterFirst {
		t.Fatalf("Fig9 after Fig6 ran %d new jobs, want 0", got-jobsAfterFirst)
	}
	// So do Fig7 (the sweep and the trips rows) and Table2 (the 8-core and
	// trips rows).
	if _, _, err := s.Fig7(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table2(); err != nil {
		t.Fatal(err)
	}
	if got := s.Summary().JobsRun; got != jobsAfterFirst {
		t.Fatalf("Fig7 and Table2 after Fig6 ran %d new jobs, want 0", got-jobsAfterFirst)
	}
	// Fig9x reads its attribution off the sweep's hand-optimized rows, and
	// Fig8 and Fig10 read the same rows: no new jobs either.
	if _, _, err := s.Fig9x(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Fig8(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Fig10(2); err != nil {
		t.Fatal(err)
	}
	if got := s.Summary().JobsRun; got != jobsAfterFirst {
		t.Fatalf("Fig9x, Fig8 and Fig10 after Fig6 ran %d new jobs, want 0", got-jobsAfterFirst)
	}
}
