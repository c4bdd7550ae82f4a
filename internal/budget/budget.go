// Package budget is the one measuring primitive of the module's budget
// tests.  A budget test owns a table of rows, each a piece of work, the
// quantity of it that is held and the bound; Check measures every row
// the same way and fails the rows over their bound.
//
// A row's work runs once to warm up and then in three windows.  Each
// window runs the work alone at GOMAXPROCS 1 with the collector off
// (debug.SetGCPercent(-1), which waits out a collection in progress),
// between two runtime.ReadMemStats, so no collection runs inside a
// window and none is forced before one.  The reading is the smallest
// window's, because every disturbance seen here only adds: the
// allocations of the testing package's own goroutines, and 5 KB that a
// window with the collector off and no other goroutine alive still
// showed now and then.
//
// A -race build holds every row to the same Bound with one rule, keyed
// on the quantity: allocation and event rows hold it as it is, and byte
// rows hold it plus 16 B for each allocation read in the same window.
// The race runtime turns tiny allocation off, so each object a plain
// build packs into a shared 16 B block takes a 16 B slot of its own.
package budget

import (
	"runtime"
	"runtime/debug"
	"testing"
)

const (
	windows  = 3  // measured runs of a row's work, after its warm-up
	tinySlot = 16 // bytes a -race build gives each allocation at most beyond a plain build's
)

// raceBuild reports whether the binary was built with -race, as its
// build settings record.
var raceBuild = func() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}()

// Quantity is what a row holds of its work.
type Quantity string

const (
	Allocs         Quantity = "allocs"       // heap allocations of one run
	Bytes          Quantity = "bytes"        // heap bytes of one run
	AllocsPerBlock Quantity = "allocs/block" // allocations of one marginal committed block
	BytesPerBlock  Quantity = "bytes/block"  // heap bytes of one marginal committed block
	EventsPerBlock Quantity = "events/block" // host events executed per committed block
)

// Layer is what a row guards, named as the host-time profile names its
// layers.
type Layer string

const (
	NoC                Layer = "NoC"
	EventQueue         Layer = "event queue"
	OperandDelivery    Layer = "operand delivery"
	MemoryPath         Layer = "memory path"
	BlockLifecycle     Layer = "block lifecycle"
	ObserverTaps       Layer = "observer taps"
	FunctionalExecutor Layer = "functional executor"
	EngineOther        Layer = "engine, other"
)

// Work is what a run reports of itself: the blocks it committed, which
// the per-block quantities divide by, and the host events it executed.
type Work struct{ Blocks, Events uint64 }

// reading is one window: the heap allocations and bytes of the run in
// it, and the work the run reported.
type reading struct {
	Allocs, Bytes uint64
	Work
}

// Row is one budget.
type Row struct {
	Name     string
	Quantity Quantity
	Layer    Layer
	// Setup, if set, runs before every run of Base and Run, outside the
	// window, so a row whose work is memoized gets fresh state.
	Setup func(testing.TB)
	// Run is the measured work.
	Run func(testing.TB) Work
	// Base is the same job as Run at a smaller scale, for the per-block
	// quantities: the row reads Run's quantity less Base's over Run's
	// blocks less Base's, so set-up cancels out.
	Base func(testing.TB) Work
	// Value is the measured value and Bound the most a reading may be
	// (in a -race build, see bound).
	Value, Bound float64
}

// measure runs setup (if set) and then run once to warm up, then
// windows times more, each run in a window, and returns the windows'
// readings.
func measure(tb testing.TB, setup func(testing.TB), run func(testing.TB) Work) []reading {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	readings := make([]reading, windows+1)
	for i := range readings {
		if setup != nil {
			setup(tb)
		}
		readings[i] = window(tb, run)
	}
	return readings[1:]
}

func window(tb testing.TB, run func(testing.TB) Work) reading {
	var before, after runtime.MemStats
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	w := run(tb)
	runtime.ReadMemStats(&after)
	return reading{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, w}
}

// Check measures each row in a subtest of its name, logs one line per
// row, "budget: owner | row | layer | quantity | measured | bound |
// factor", where the factor is the bound over the row's Value, and fails
// the rows over their bound.  It returns the readings in row order.
func Check(t *testing.T, rows []Row) []float64 {
	got := make([]float64, len(rows))
	for i, r := range rows {
		t.Run(r.Name, func(st *testing.T) { got[i] = r.check(st, t.Name()) })
	}
	return got
}

// check measures r and fails tb if r is over its bound.
func (r Row) check(tb testing.TB, owner string) float64 {
	tb.Helper()
	got, allocs := r.read(tb)
	bound := r.bound(allocs, raceBuild)
	tb.Logf("budget: %s | %s | %s | %s | %.6g | %.6g | %.3g x %.6g", owner, r.Name, r.Layer, r.Quantity, got, bound, bound/r.Value, r.Value)
	if got > bound {
		tb.Errorf("%s, %s: %s %.6g, bound %.6g", owner, r.Name, r.Quantity, got, bound)
	}
	return got
}

// bound is the most r may read in windows that made allocs allocations:
// its Bound, plus, in a race build and for a byte quantity, tinySlot
// bytes for each of those allocations.
func (r Row) bound(allocs float64, race bool) float64 {
	if race && (r.Quantity == Bytes || r.Quantity == BytesPerBlock) {
		return r.Bound + tinySlot*allocs
	}
	return r.Bound
}

// read is r's quantity in its smallest window and the allocations read
// in that window; for a per-block quantity, Run's smallest less Base's
// over the difference in blocks, for both.
func (r Row) read(tb testing.TB) (got, allocs float64) {
	tb.Helper()
	run := r.smallest(tb, r.Run)
	switch r.Quantity {
	case Allocs, Bytes:
		return r.of(run), float64(run.Allocs)
	case EventsPerBlock:
		return float64(run.Events) / float64(run.Blocks), 0
	}
	base := r.smallest(tb, r.Base)
	if run.Blocks <= base.Blocks {
		tb.Fatalf("%s: Run commits %d blocks, Base %d: no marginal block to measure", r.Name, run.Blocks, base.Blocks)
	}
	blocks := float64(run.Blocks - base.Blocks)
	return (r.of(run) - r.of(base)) / blocks, (float64(run.Allocs) - float64(base.Allocs)) / blocks
}

// smallest measures run and returns its window with the least of r's
// quantity.
func (r Row) smallest(tb testing.TB, run func(testing.TB) Work) reading {
	readings := measure(tb, r.Setup, run)
	least := readings[0]
	for _, w := range readings[1:] {
		if r.of(w) < r.of(least) {
			least = w
		}
	}
	return least
}

// of is the part of w that r's quantity counts: its allocations or its
// bytes.
func (r Row) of(w reading) float64 {
	if r.Quantity == Bytes || r.Quantity == BytesPerBlock {
		return float64(w.Bytes)
	}
	return float64(w.Allocs)
}
