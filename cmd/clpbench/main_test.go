package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json and the tables in this package
// together: same workloads and reasons, same metrics, units, directions
// and bounds, all inside the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if got, want := strings.Join(b.Command, " "), "go run ./cmd/clpbench"; got != want {
		t.Errorf("command %q, want %q", got, want)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/clpbench" {
		t.Errorf("paths %v, want [cmd/clpbench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the package", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the package %s [%s, %s]", kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != w.bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound %v, want %v within (0, 0.25]", m.Name, m.Bound, w.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 128", len(b.PerLayer))
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestSmoke runs every workload in -smoke mode, untraced and traced, and
// checks the driver's contract on the result line: exactly the metrics
// BENCHMARK.json names for that mode, each once, finite, with its unit.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, mode := range []struct {
			trace string
			want  []jsonMetric
		}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
			t.Run(w.Name+"/trace"+mode.trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run(time.Now(), []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", mode.trace, "-smoke"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a JSON object: %v", err)
				}
				if len(res) != 4 {
					t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", res)
				}
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(mode.want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(r.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
						t.Errorf("%s = %v", m.Name, got.Value)
					case mode.trace == "0" && got.Value == 0:
						t.Errorf("%s is 0; end-to-end metrics are never 0", m.Name)
					}
				}
			})
		}
	}
}

func TestValidateFlags(t *testing.T) {
	tests := []struct {
		name     string
		workload string
		seed     int64
		seconds  float64
		repeat   int
		args     []string
		wantErr  string // substring of the error; "" means valid
	}{
		{"defaults", "all", 1, 20, 1, nil, ""},
		{"one workload", "steady", 7, 12, 1, nil, ""},
		{"every workload name", "fuzz_corpus", 0, 0.5, 1, nil, ""},
		{"self-check", "all", 2, 20, 2, nil, ""},
		{"unknown workload", "fastest", 1, 20, 1, nil, "-workload"},
		{"empty workload", "", 1, 20, 1, nil, "-workload"},
		{"negative seed", "all", -1, 20, 1, nil, "-seed"},
		{"zero seconds", "all", 1, 0, 1, nil, "-seconds"},
		{"NaN seconds", "all", 1, math.NaN(), 1, nil, "-seconds"},
		{"a day of seconds", "all", 1, 86400, 1, nil, "-seconds"},
		{"zero repeat", "all", 1, 20, 0, nil, "-repeat"},
		{"negative repeat", "all", 1, 20, -2, nil, "-repeat"},
		{"stray argument", "all", 1, 20, 1, []string{"1"}, "unexpected argument"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := validateFlags(tt.workload, tt.seed, tt.seconds, tt.repeat, tt.args)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("validateFlags = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

// TestBadFlagsExitBeforeSimulating: a bad flag prints usage and exits 2
// without running anything (the whole table takes milliseconds).
func TestBadFlagsExitBeforeSimulating(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-repeat", "0"},
		{"-seed", "-4"},
		{"-trace"}, // needs 0 or 1
		{"-trace", "maybe"},
		{"-workload", "steady", "-repeat", "2"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		start := time.Now()
		if code := run(start, args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result: %s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "-workload") {
			t.Errorf("%v: no usage on stderr: %s", args, stderr.String())
		}
		if time.Since(start) > time.Second {
			t.Errorf("%v: took %v, so something ran", args, time.Since(start))
		}
	}
}

// TestSpanArithmetic pins the tracer's definition of self time: a span's
// duration minus its children's, so that self times add up to the root.
func TestSpanArithmetic(t *testing.T) {
	tr := &tracer{cur: -1, job: -1}
	ms := time.Millisecond
	tr.spans = []span{
		{name: "pass", start: 0, end: 100 * ms, parent: -1, job: -1},
		{name: "job", start: 10 * ms, end: 60 * ms, parent: 0, job: 0},
		{name: "sim.run", start: 20 * ms, end: 50 * ms, parent: 1, job: 0},
		{name: "job", start: 60 * ms, end: 90 * ms, parent: 0, job: 1},
	}
	tr.add("runner.job", "late", 85*ms, 120*ms, 3) // clamped into its parent
	tot := tr.totals()
	for _, want := range []struct {
		name string
		self float64
	}{{"pass", 0.020}, {"job", 0.045}, {"sim.run", 0.030}, {"runner.job", 0.005}} {
		if got := tot[want.name].self; math.Abs(got-want.self) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", want.name, got, want.self)
		}
	}
	if got := selfSum(tot); math.Abs(got-0.100) > 1e-9 {
		t.Errorf("self times sum to %v, want the root's 0.1", got)
	}
}

// TestHostProbe pins the probe's bookkeeping: one slice per probePeriod
// of work, none on a nil probe, a fresh stretch after begin, and the same
// work from every probe.
func TestHostProbe(t *testing.T) {
	var none *hostProbe
	none.tick() // traced runs have a nil probe
	none.begin()
	if busy, s := none.end(); busy != 0 || s != 1 {
		t.Errorf("no probe: busy %v, slowdown %v", busy, s)
	}

	p := newHostProbe()
	p.tick()
	if p.n != 0 {
		t.Errorf("%d slices before any work was due one", p.n)
	}
	p.mark = time.Now().Add(-3*probePeriod - probePeriod/2)
	p.tick()
	if p.n != 3 {
		t.Errorf("%d slices for three and a half periods of work, want 3", p.n)
	}
	if busy, s := p.end(); busy <= 0 || busy != p.busy || !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("busy %v, slowdown %v", busy, s)
	}
	p.begin()
	if p.n != 0 || p.busy != 0 {
		t.Errorf("after begin: %d slices, busy %v", p.n, p.busy)
	}
	if busy, s := p.end(); p.n != 1 || busy <= 0 || !(s > 0) {
		t.Errorf("a stretch too short for a slice: %d slices, busy %v, slowdown %v", p.n, busy, s)
	}

	a, b := newHostProbe(), newHostProbe()
	a.slice()
	b.slice()
	if digestOf(a.table...) != digestOf(b.table...) || len(a.heap) != len(b.heap) {
		t.Error("two probes did different work")
	}
}
