package sim

import (
	"bytes"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/flight"
)

// TestStallWatchdog pins the watchdog contract on both engines (they
// share the one event loop), alone and beside a second processor: a
// cycle that executes more events than the budget fails the whole run
// with a stall diagnostic instead of hanging, leaves a KStall record in
// the ring, and the failed run dumps a post-mortem to the flight sink.
// The budget is lowered to 4 so that a real run trips it: the busiest
// cycle of sumProgram executes 8 events on one processor, 9 on two.
func TestStallWatchdog(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rects [][3]int // x, y, cores
	}{
		{"one processor", [][3]int{{0, 0, 2}}},
		{"two processors", [][3]int{{0, 0, 2}, {2, 0, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("optimized", func(t *testing.T) { stallRun(t, tc.rects, false) })
			t.Run("reference", func(t *testing.T) { stallRun(t, tc.rects, true) })
		})
	}
}

func stallRun(t *testing.T, rects [][3]int, reference bool) {
	opts := DefaultOptions()
	opts.Reference = reference
	chip := New(opts)
	chip.stallEvents = 4
	chip.EnableFlight(256)
	var sink bytes.Buffer
	chip.SetFlightSink(&sink)
	p := sumProgram(t)
	for _, rect := range rects {
		pr, err := chip.AddProc(compose.MustRect(rect[0], rect[1], rect[2]), p)
		if err != nil {
			t.Fatal(err)
		}
		pr.Regs[1] = 50
	}
	err := chip.Run(1_000_000)
	if err == nil {
		t.Fatal("run over the stall budget succeeded; watchdog never fired")
	}
	if !strings.Contains(err.Error(), "stall watchdog") {
		t.Fatalf("run failed with %v, want a stall watchdog diagnostic", err)
	}
	dump := chip.FlightDump()
	if dump == nil || len(dump.Records(flight.KStall)) == 0 {
		t.Fatal("no KStall record in the flight ring after a watchdog trip")
	}
	if !strings.Contains(sink.String(), "flight recorder post-mortem") {
		t.Error("failed run did not dump a post-mortem to the flight sink")
	}
	if !strings.Contains(sink.String(), "stall") {
		t.Error("post-mortem text does not mention the stall")
	}
}

// TestFlightPanicPostMortem pins the Run recover path: a panic inside
// the event loop dumps the rings to the sink before re-panicking.
func TestFlightPanicPostMortem(t *testing.T) {
	chip := New(DefaultOptions())
	chip.EnableFlight(128)
	var sink bytes.Buffer
	chip.SetFlightSink(&sink)
	proc, err := chip.AddProc(compose.MustRect(0, 0, 2), sumProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	proc.Regs[1] = 50
	fired := false
	proc.TraceBlocks(func(BlockEvent) {
		if !fired {
			fired = true
			panic("injected panic")
		}
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("injected panic did not propagate through Chip.Run")
		}
		if !strings.Contains(sink.String(), "flight recorder post-mortem (panic: injected panic)") {
			t.Errorf("panic did not dump a post-mortem; sink: %q", sink.String())
		}
	}()
	chip.Run(1_000_000) //nolint:errcheck // panics before returning
}

// TestDomainStatsAndBarrierAccounting pins the frozen DomainStats
// surface on a two-processor chip: exactly one element, the event count
// live with or without the flight recorder, ring records live only with
// it, and every window, barrier, arbiter and inbox field zero.
func TestDomainStatsAndBarrierAccounting(t *testing.T) {
	for _, armed := range []bool{false, true} {
		chip := New(DefaultOptions())
		if armed {
			chip.EnableFlight(0)
		}
		p := sumProgram(t)
		for _, rect := range [][3]int{{0, 0, 2}, {2, 0, 2}} {
			pr, err := chip.AddProc(compose.MustRect(rect[0], rect[1], rect[2]), p)
			if err != nil {
				t.Fatal(err)
			}
			pr.Regs[1] = 50
		}
		if err := chip.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		if (chip.FlightDump() != nil) != armed {
			t.Fatalf("recorder armed = %t, but FlightDump() != nil is %t", armed, !armed)
		}
		ds := chip.DomainStats()
		if len(ds) != 1 {
			t.Fatalf("DomainStats reported %d elements, want 1", len(ds))
		}
		d := ds[0]
		if d.Events == 0 {
			t.Error("no events counted")
		}
		if (d.RingRecords != 0) != armed {
			t.Errorf("recorder armed = %t, but %d ring records reported", armed, d.RingRecords)
		}
		d.Events, d.RingRecords = 0, 0
		if d != (flight.DomainStats{}) {
			t.Errorf("inert DomainStats fields are not zero: %+v", d)
		}
	}
}
