package runner

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/clp-sim/tflex/internal/telemetry"
)

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

// Results must come back in submission order for every worker count.
func TestRunMergesInSubmissionOrder(t *testing.T) {
	var specs []Spec
	for i := 0; i < 40; i++ {
		specs = append(specs, Spec{Kernel: fmt.Sprintf("k%02d", i), Config: "tflex", Cores: 1 + i%32, Scale: 1})
	}
	for _, workers := range []int{1, 2, 8} {
		e := &Engine{Workers: workers, Exec: func(Spec) error { return nil }}
		res, err := e.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(specs) {
			t.Fatalf("workers=%d: %d results", workers, len(res))
		}
		for i, r := range res {
			if r.Spec.Key() != specs[i].Key() {
				t.Fatalf("workers=%d: result %d is %s, want %s", workers, i, r.Spec.Key(), specs[i].Key())
			}
		}
	}
}

func TestRunDedupesByKey(t *testing.T) {
	var calls atomic.Int64
	e := &Engine{Workers: 4, Exec: func(Spec) error { calls.Add(1); return nil }}
	sp := Spec{Kernel: "conv", Config: "tflex", Cores: 8, Scale: 2}
	res, err := e.Run([]Spec{sp, sp, sp, {Kernel: "ct", Config: "tflex", Cores: 8, Scale: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results, want 2 after dedup", len(res))
	}
	if calls.Load() != 2 {
		t.Fatalf("%d exec calls, want 2", calls.Load())
	}
	if s := e.Summary(); s.Deduped != 2 || s.JobsRun != 2 {
		t.Fatalf("summary %+v", s)
	}
}

// A spec whose key completed in an earlier batch is merged, not re-run.
func TestRunMergesAcrossBatches(t *testing.T) {
	var calls atomic.Int64
	e := &Engine{Workers: 4, Exec: func(Spec) error { calls.Add(1); return nil }}
	a := Spec{Kernel: "a", Config: "tflex", Cores: 1, Scale: 1}
	b := Spec{Kernel: "b", Config: "tflex", Cores: 2, Scale: 1}
	c := Spec{Kernel: "c", Config: "trips", Scale: 1}
	if _, err := e.Run([]Spec{a, b}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run([]Spec{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d exec calls, want 3 (a and b merged from batch 1)", calls.Load())
	}
	if len(res) != 3 || res[0].Spec.Key() != a.Key() || res[2].Spec.Key() != c.Key() {
		t.Fatalf("merged results out of order: %+v", res)
	}
	if s := e.Summary(); s.JobsRun != 3 || s.Deduped != 2 {
		t.Fatalf("summary %+v, want 3 run / 2 merged", s)
	}
}

// The first error in submission order is returned, deterministically,
// and all jobs still run.
func TestRunErrorIsDeterministic(t *testing.T) {
	var ran atomic.Int64
	e := &Engine{Workers: 8, Exec: func(sp Spec) error {
		ran.Add(1)
		if sp.Kernel == "bad2" || sp.Kernel == "bad7" {
			return fmt.Errorf("boom %s", sp.Kernel)
		}
		return nil
	}}
	var specs []Spec
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("k%d", i)
		if i == 2 || i == 7 {
			name = fmt.Sprintf("bad%d", i)
		}
		specs = append(specs, Spec{Kernel: name, Config: "tflex", Cores: 1, Scale: 1})
	}
	_, err := e.Run(specs)
	if err == nil || !strings.Contains(err.Error(), "bad2") {
		t.Fatalf("err = %v, want first submission-order failure (bad2)", err)
	}
	if ran.Load() != 10 {
		t.Fatalf("%d jobs ran, want all 10 despite failures", ran.Load())
	}
}

func TestRunNilExec(t *testing.T) {
	e := &Engine{}
	if _, err := e.Run([]Spec{{Kernel: "k", Config: "tflex", Cores: 1, Scale: 1}}); err == nil {
		t.Fatal("want error for nil Exec")
	}
}

func TestProgressLines(t *testing.T) {
	var sb strings.Builder
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	e := &Engine{Workers: 2, Progress: w, Exec: func(Spec) error { return nil }}
	specs := []Spec{
		{Kernel: "a", Config: "tflex", Cores: 1, Scale: 1},
		{Kernel: "b", Config: "tflex", Cores: 2, Scale: 1},
	}
	if _, err := e.Run(specs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "a/tflex-1c/scale1") || !strings.Contains(out, "/2]") {
		t.Fatalf("progress output %q missing job keys or counters", out)
	}
}

// A worker's trace track is named once, the first time that worker runs
// a job, however many batches follow.  Each batch's two jobs rendezvous,
// so both workers must hold one.
func TestTraceNamesEachWorkerOnce(t *testing.T) {
	var meet sync.WaitGroup
	tr := &telemetry.Trace{}
	e := &Engine{Workers: 2, Trace: tr, Exec: func(Spec) error {
		meet.Done()
		meet.Wait()
		return nil
	}}
	for batch := 0; batch < 3; batch++ {
		meet.Add(2)
		specs := []Spec{
			{Kernel: "a", Config: "tflex", Cores: 1, Scale: batch + 1},
			{Kernel: "b", Config: "tflex", Cores: 1, Scale: batch + 1},
		}
		if _, err := e.Run(specs); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"thread_name"`); got != 2 {
		t.Fatalf("%d thread_name records for 2 workers over 3 batches, want 2", got)
	}
	if got := strings.Count(buf.String(), `"job"`); got != 6 {
		t.Fatalf("%d job spans, want 6", got)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestStoreSingleflight(t *testing.T) {
	var st Store[int, string]
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := st.Get(7, func() (string, error) {
				computes.Add(1)
				return "seven", nil
			})
			if err != nil || v != "seven" {
				t.Errorf("Get = %q, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("%d computations, want 1 (duplicate suppression)", computes.Load())
	}
	hits, misses := st.Stats()
	if misses != 1 || hits != 15 {
		t.Fatalf("hits=%d misses=%d, want 15/1", hits, misses)
	}
}

func TestStoreMemoizesErrors(t *testing.T) {
	var st Store[string, int]
	var computes int
	fail := func() (int, error) { computes++; return 0, fmt.Errorf("nope") }
	if _, err := st.Get("k", fail); err == nil {
		t.Fatal("want error")
	}
	if _, err := st.Get("k", fail); err == nil {
		t.Fatal("want memoized error")
	}
	if computes != 1 {
		t.Fatalf("%d computes, want 1", computes)
	}
	st.Each(func(string, int) { t.Fatal("Each should not expose failed entries") })
}

func TestStoreEach(t *testing.T) {
	var st Store[int, int]
	for i := 0; i < 5; i++ {
		i := i
		if _, err := st.Get(i, func() (int, error) { return i * i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	sum := 0
	st.Each(func(_, v int) { sum += v })
	if sum != 0+1+4+9+16 {
		t.Fatalf("Each sum = %d", sum)
	}
}
