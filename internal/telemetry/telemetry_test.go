package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterViewTracksSource(t *testing.T) {
	r := NewRegistry()
	var src uint64
	r.CounterView("core3.lsq.nacks", &src)
	if got := r.Snapshot()["core3.lsq.nacks"]; got != 0 {
		t.Fatalf("fresh view = %v, want 0", got)
	}
	src = 41
	src++
	if got := r.Snapshot()["core3.lsq.nacks"]; got != 42 {
		t.Fatalf("snapshot = %v, want 42", got)
	}
}

// Disabled-path contract: nil receivers are no-ops.
func TestNilSafety(t *testing.T) {
	var nh *Histogram
	nh.Observe(9)
	if nh.Count() != 0 || nh.Sum() != 0 || nh.Mean() != 0 || nh.Buckets() != nil {
		t.Fatal("nil histogram must be inert")
	}
	var ns *Sampler
	ns.Sample(10)
	if ns.Len() != 0 || ns.Interval() != 0 || ns.Series() != nil {
		t.Fatal("nil sampler must be inert")
	}
	var nt *Trace
	nt.Span(0, 0, "a", "b", 0, 1)
	nt.Block(BlockRecord{Name: "a"})
	nt.NameProcess(0, "p")
	nt.NameThread(0, 0, "t")
	if nt.Len() != 0 {
		t.Fatal("nil trace must be inert")
	}
}

func TestGaugeSnapshot(t *testing.T) {
	r := NewRegistry()
	occ := 3
	r.Gauge("proc0.window.occupancy", func() float64 { return float64(occ) })
	s := r.Snapshot()
	if s.Get("proc0.window.occupancy") != 3 {
		t.Fatalf("gauge snapshot = %v, want 3", s.Get("proc0.window.occupancy"))
	}
	occ = 7
	if s.Get("proc0.window.occupancy") != 3 {
		t.Fatal("snapshot must be a point-in-time copy")
	}
}

// Satellite: histogram bucket boundaries.  Bucket 0 is exactly {0};
// bucket i>=1 is [2^(i-1), 2^i-1].
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{16, 5},
		{1<<20 - 1, 20}, {1 << 20, 21},
		{1<<63 - 1, 63}, {1 << 63, 64}, {math.MaxUint64, 64},
	}
	for _, c := range cases {
		h := &Histogram{}
		h.Observe(c.v)
		bs := h.Buckets()
		if len(bs) != 1 {
			t.Fatalf("Observe(%d): %d buckets, want 1", c.v, len(bs))
		}
		lo, hi := BucketBounds(c.bucket)
		if bs[0].Lo != lo || bs[0].Hi != hi || bs[0].Count != 1 {
			t.Fatalf("Observe(%d): bucket [%d,%d]x%d, want [%d,%d]x1",
				c.v, bs[0].Lo, bs[0].Hi, bs[0].Count, lo, hi)
		}
		if c.v < lo || c.v > hi {
			t.Fatalf("Observe(%d): landed outside its bucket [%d,%d]", c.v, lo, hi)
		}
	}
	// Adjacent bucket edges must not overlap or leave gaps.
	for i := 1; i < 64; i++ {
		_, prevHi := BucketBounds(i - 1)
		lo, _ := BucketBounds(i)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, prevHi+1)
		}
	}
	h := &Histogram{}
	for v := uint64(0); v <= 16; v++ {
		h.Observe(v)
	}
	if h.Count() != 17 || h.Sum() != 136 {
		t.Fatalf("count/sum = %d/%d, want 17/136", h.Count(), h.Sum())
	}
	if got := h.Mean(); got != 8 {
		t.Fatalf("mean = %v, want 8", got)
	}
}

func TestRegistryWriteJSONDeterministicAndValid(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		var a uint64 = 7
		r.CounterView("noc.opnd.hops", &a)
		r.Gauge("g", func() float64 { return 1.5 })
		h := r.Histogram("proc0.fetch.latency")
		h.Observe(3)
		h.Observe(900)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("WriteJSON must be deterministic across identical registries")
	}
	var doc struct {
		Counters   map[string]uint64  `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count   uint64   `json:"count"`
			Sum     uint64   `json:"sum"`
			Mean    float64  `json:"mean"`
			Buckets []Bucket `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Counters["noc.opnd.hops"] != 7 {
		t.Fatalf("counters = %v", doc.Counters)
	}
	fh := doc.Histograms["proc0.fetch.latency"]
	if fh.Count != 2 || fh.Sum != 903 || len(fh.Buckets) != 2 {
		t.Fatalf("histogram export = %+v", fh)
	}
}

func TestSamplerSeries(t *testing.T) {
	s := NewSampler(0) // clamps to 1
	if s.Interval() != 1 {
		t.Fatalf("interval = %d, want clamp to 1", s.Interval())
	}
	v := 0.0
	s.Track("a", func() float64 { v++; return v })
	s.Track("b", func() float64 { return -v })
	s.Sample(10)
	s.Sample(20)
	ser := s.Series()
	if len(ser) != 2 || s.Len() != 2 {
		t.Fatalf("series = %d rows = %d", len(ser), s.Len())
	}
	if ser[0].Name != "a" || ser[0].Values[0] != 1 || ser[0].Values[1] != 2 {
		t.Fatalf("series a = %+v", ser[0])
	}
	if ser[1].Cycles[1] != 20 || ser[1].Values[1] != -2 {
		t.Fatalf("series b = %+v", ser[1])
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("sampler JSON invalid")
	}
}

func TestChromeTraceFormat(t *testing.T) {
	tr := &Trace{}
	tr.NameProcess(1, "proc0")
	tr.NameThread(1, 3, "core3")
	tr.Span(1, 3, "blk", "fetch", 100, 140)
	tr.Span(1, 3, "bad", "x", 50, 40) // end < start clamps
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(doc.TraceEvents))
	}
	// WriteJSON sorts by (ts, pid, tid, name): metadata first, then the
	// clamped span at ts 50, then the real span at ts 100.
	span := doc.TraceEvents[3]
	if span["ph"] != "X" || span["ts"] != 100.0 || span["dur"] != 40.0 ||
		span["pid"] != 1.0 || span["tid"] != 3.0 {
		t.Fatalf("span = %v", span)
	}
	meta := doc.TraceEvents[0]
	if meta["ph"] != "M" || meta["name"] != "process_name" {
		t.Fatalf("metadata = %v", meta)
	}
	// Empty traces still produce a loadable document.
	var empty bytes.Buffer
	if err := (&Trace{}).WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	var emptyDoc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(empty.Bytes(), &emptyDoc); err != nil || emptyDoc.TraceEvents == nil {
		t.Fatalf("empty trace must still emit traceEvents: [] (err=%v)", err)
	}
}

// Race gate: concurrent registration, snapshotting, JSON export and
// trace appends from many goroutines (run under -race by ci.sh).  View
// sources are pre-filled and never written during the test — mutating a
// view's field while another goroutine snapshots is outside the
// library's single-writer contract for views.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	tr := &Trace{}
	fixed := [10]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	shared := r.Histogram("shared.hist")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.CounterView(fmt.Sprintf("g%d.c%d", g, i%10), &fixed[i%10])
				r.CounterView("shared", &fixed[9])
				r.Gauge(fmt.Sprintf("g%d.gauge", g), func() float64 { return float64(g) })
				if r.Histogram("shared.hist") != shared {
					t.Error("Histogram must return the one registered histogram")
				}
				if got := r.Snapshot().Get("shared"); got != 10 {
					t.Errorf("shared view = %v mid-registration, want 10", got)
				}
				if i%50 == 0 {
					if err := r.WriteJSON(io.Discard); err != nil {
						t.Error(err)
					}
				}
				tr.Span(g, i, "job", "job", uint64(i), uint64(i+1))
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Snapshot()); got != 8*10+1+8+3 {
		t.Fatalf("%d snapshot entries, want 8x10 views, the shared view, 8 gauges and one histogram's three", got)
	}
	if tr.Len() != 8*200 {
		t.Fatalf("trace events = %d, want 1600", tr.Len())
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil || !json.Valid(buf.Bytes()) {
		t.Fatalf("concurrent registry JSON invalid (err=%v)", err)
	}
}

// Name and Indexed build the hierarchical names every component registers
// under, and hand out one string per name: after the first request a
// lookup allocates nothing, from any number of goroutines.
func TestNamesAreMemoized(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{Name("proc0", "blocks.committed"), "proc0.blocks.committed"},
		{Indexed("proc", 0, ""), "proc0"},
		{Indexed("core", 3, "lsq"), "core3.lsq"},
		{Indexed(Name("proc1", "core"), 12, "issued"), "proc1.core12.issued"},
		{Indexed(Name("noc.opnd", "link."), 3, Indexed("", 4, "flits")), "noc.opnd.link.3.4.flits"},
	} {
		if c.got != c.want {
			t.Errorf("name %q, want %q", c.got, c.want)
		}
	}
	if a, b := Indexed("core", 7, "l1d"), Indexed("core", 7, "l1d"); unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("a second request formatted the name again")
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = Name("proc0", "fetch.latency")
		_ = Indexed("core", 31, "lsq")
	}); n != 0 {
		t.Errorf("memoized lookups allocate %v times, want 0", n)
	}
	var wg sync.WaitGroup
	got := make([]string, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				got[g] = Indexed("race", i, "leaf")
			}
		}()
	}
	wg.Wait()
	for _, s := range got {
		if unsafe.StringData(s) != unsafe.StringData(got[0]) {
			t.Fatal("concurrent first requests handed out different strings")
		}
	}
}

// Clear empties a registry for the next job and keeps its storage: the
// same components registering again allocate nothing, a histogram comes
// back zero, and nothing registered before the Clear is read after it.
func TestRegistryClearKeepsStorage(t *testing.T) {
	r := NewRegistry()
	var a, b uint64 = 3, 4
	gauge := func() float64 { return 5 }
	register := func() *Histogram {
		r.CounterView("a", &a)
		r.Gauge("g", gauge)
		h := r.NewHistogram("h")
		h.Observe(7)
		return h
	}
	h := register()
	r.CounterView("b", &b)
	r.Histogram("stale.hist").Observe(1)
	r.Clear()
	if got := len(r.Snapshot()); got != 0 {
		t.Fatalf("a cleared registry snapshots %d entries, want 0", got)
	}
	if again := register(); again != h || again.Count() != 1 || again.Sum() != 7 {
		t.Fatalf("after Clear NewHistogram returned %p with count %d sum %d, want the registry's own %p counting only the new sample",
			again, again.Count(), again.Sum(), h)
	}
	if got, want := r.Snapshot(), (Snapshot{"a": 3, "g": 5, "h.count": 1, "h.sum": 7, "h.mean": 7}); !maps.Equal(got, want) {
		t.Fatalf("snapshot after Clear = %v, want %v", got, want)
	}
	r.Histogram("stale.hist").Observe(1) // the second histogram the registry owns
	if allocs := testing.AllocsPerRun(20, func() {
		r.Clear()
		register()
		r.Histogram("stale.hist")
	}); allocs != 0 {
		t.Fatalf("Clear and the same registrations again: %v allocations, want 0", allocs)
	}
	r.Freeze()
	if !r.Frozen() {
		t.Fatal("Freeze left the registry unfrozen")
	}
	r.Clear()
	if r.Frozen() {
		t.Fatal("Clear left the registry frozen")
	}
}
