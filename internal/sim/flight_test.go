package sim

import (
	"bytes"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/flight"
)

// armBomb installs a test-only stall: from the first retired block on,
// an evFunc reschedules itself at the current cycle forever, so
// simulated time stops advancing while events keep executing.  The
// watchdog must catch this as a stall, not a hang.
func armBomb(proc *Proc) {
	armed := false
	var bomb func()
	bomb = func() { proc.scheduleEv(0, event{kind: evFunc, fn: bomb}) }
	proc.TraceBlocks(func(BlockEvent) {
		if !armed {
			armed = true
			bomb()
		}
	})
}

// TestStallWatchdog pins the watchdog contract on one-domain and
// two-domain chips alike (both run the same window loop): an injected
// non-advancing event storm in one domain fails the whole run with a
// stall diagnostic instead of hanging, leaves a KStall record in the
// rings, and the failed run dumps a post-mortem to the flight sink.
func TestStallWatchdog(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rects [][3]int // x, y, cores; the first processor carries the bomb
	}{
		{"one domain", [][3]int{{0, 0, 2}}},
		{"two domains", [][3]int{{0, 0, 2}, {2, 0, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.StallEvents = 5000
			chip := New(opts)
			chip.EnableFlight(256)
			var sink bytes.Buffer
			chip.SetFlightSink(&sink)
			p := sumProgram(t)
			for i, rect := range tc.rects {
				pr, err := chip.AddProc(compose.MustRect(rect[0], rect[1], rect[2]), p)
				if err != nil {
					t.Fatal(err)
				}
				pr.Regs[1] = 50
				if i == 0 {
					armBomb(pr)
				}
			}
			err := chip.Run(1_000_000)
			if err == nil {
				t.Fatal("run with injected stall succeeded; watchdog never fired")
			}
			if !strings.Contains(err.Error(), "stall watchdog") {
				t.Fatalf("run failed with %v, want a stall watchdog diagnostic", err)
			}
			if got := len(chip.DomainStats()); got != len(tc.rects) {
				t.Fatalf("chip formed %d domains, want %d", got, len(tc.rects))
			}
			dump := chip.FlightDump()
			if dump == nil || len(dump.Records(flight.KStall)) == 0 {
				t.Fatal("no KStall record in the flight rings after a watchdog trip")
			}
			if !strings.Contains(sink.String(), "flight recorder post-mortem") {
				t.Error("failed run did not dump a post-mortem to the flight sink")
			}
			if !strings.Contains(sink.String(), "stall") {
				t.Error("post-mortem text does not mention the stall")
			}
		})
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

// TestDomainStatsAndBarrierAccounting runs a two-domain chip and
// checks the always-on per-domain counters:
// windows were crossed, events counted, barrier slack accumulated, and
// the stats survive with the flight recorder disabled.
func TestDomainStatsAndBarrierAccounting(t *testing.T) {
	opts := DefaultOptions()
	chip := New(opts) // no EnableFlight: counters must still work
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
	if chip.FlightDump() != nil {
		t.Fatal("FlightDump must be nil while the recorder is disabled")
	}
	ds := chip.DomainStats()
	if len(ds) != 2 {
		t.Fatalf("DomainStats reported %d domains, want 2", len(ds))
	}
	for _, d := range ds {
		if d.Windows == 0 {
			t.Errorf("domain %d crossed no windows", d.Dom)
		}
		if d.Events == 0 {
			t.Errorf("domain %d counted no events", d.Dom)
		}
		if d.RingRecords != 0 {
			t.Errorf("domain %d reports %d ring records with the recorder disabled", d.Dom, d.RingRecords)
		}
	}
	// The two domains run the same program but finish at different
	// cycles relative to the shared window boundaries, so at least one
	// must have seen barrier slack.
	if ds[0].BarrierWait == 0 && ds[1].BarrierWait == 0 {
		t.Error("no barrier slack recorded across either domain")
	}
}
