package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/flight"
)

// TestStallWatchdog pins the watchdog contract on both engines (they
// share the one event loop), alone and beside a second processor: a
// cycle that executes more events than the budget fails the whole run
// with a stall diagnostic instead of hanging, leaves a KStall record in
// the ring, and the failed run dumps a post-mortem to the flight sink
// that names every block in flight, its address and the cycle its fetch
// began.  Both engines stop on the same cycle with the same dump.
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
			var opt, ref *flight.Dump
			t.Run("optimized", func(t *testing.T) { opt = stallRun(t, tc.rects, false) })
			t.Run("reference", func(t *testing.T) { ref = stallRun(t, tc.rects, true) })
			if !reflect.DeepEqual(opt, ref) {
				t.Errorf("the engines' dumps at the trip differ:\noptimized %+v\nreference %+v", opt, ref)
			}
		})
	}
}

func stallRun(t *testing.T, rects [][3]int, reference bool) *flight.Dump {
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
	text := sink.String()
	if !strings.Contains(text, "flight recorder post-mortem") || !strings.Contains(text, "stall") {
		t.Errorf("failed run did not dump a post-mortem naming the stall to the flight sink:\n%s", text)
	}
	if len(dump.InFlight) == 0 {
		t.Fatal("the dump at the trip has no blocks in flight")
	}
	for _, b := range dump.InFlight {
		if want := fmt.Sprintf("seq=%d addr=%#x %q core=%d fetch@%d", b.Seq, b.Addr, b.Name, b.OwnerCore, b.FetchStart); !strings.Contains(text, want) {
			t.Errorf("post-mortem does not name in-flight block %q:\n%s", want, text)
		}
	}
	return dump
}

// TestFlightRecordsOnlyWhatRetires pins the ring's write sites: one
// record per committed or flushed block and one per composed processor,
// nothing while a block is in flight — on both engines, with one and
// with two processors.
func TestFlightRecordsOnlyWhatRetires(t *testing.T) {
	for _, rects := range [][][3]int{{{0, 0, 4}}, {{0, 0, 2}, {2, 0, 2}}} {
		for _, reference := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Reference = reference
			chip := New(opts)
			chip.EnableFlight(1 << 14)
			for _, rect := range rects {
				pr, err := chip.AddProc(compose.MustRect(rect[0], rect[1], rect[2]), memProgram(t))
				if err != nil {
					t.Fatal(err)
				}
				pr.Regs[1], pr.Regs[4] = 0x100000, 200
			}
			if err := chip.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			want := uint64(len(chip.Procs))
			var flushed uint64
			for _, p := range chip.Procs {
				want += p.Stats.BlocksCommitted + p.Stats.BlocksFlushed
				flushed += p.Stats.BlocksFlushed
			}
			d := chip.FlightDump()
			if d.Written != uint64(len(d.Recs)) {
				t.Fatalf("ring wrapped (%d written, %d kept)", d.Written, len(d.Recs))
			}
			if d.Written != want || flushed == 0 {
				t.Errorf("%d processors, reference %t: %d records written, want %d (committed + flushed + composed; %d flushed)",
					len(rects), reference, d.Written, want, flushed)
			}
			if len(d.InFlight) != 0 {
				t.Errorf("a finished run still has %d blocks in flight", len(d.InFlight))
			}
		}
	}
}

// TestFlightPanicPostMortem pins the Run recover path: a panic inside
// the event loop dumps the recorder to the sink before re-panicking.
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

// TestFlightRingReuseIsInvisible: Reset keeps the flight ring and the next
// EnableFlight of its size takes it back, allocating nothing (the root
// package's invariant harness holds its dumps to a new ring's); at another
// size the chip gets a ring of that size; unarmed, a reset chip has none.
func TestFlightRingReuseIsInvisible(t *testing.T) {
	const events = 256
	for _, reference := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Reference = reference
		chip := New(opts)
		chip.EnableFlight(events)
		setupJob(t, chip, sumProgram(t), 4)
		ring := chip.flight
		if chip.Reset(); chip.FlightDump() != nil {
			t.Fatalf("reference %t: a reset chip still has a recorder armed", reference)
		}
		if chip.EnableFlight(events); chip.flight != ring {
			t.Errorf("reference %t: EnableFlight(%d) after a reset built a new ring instead of taking the kept one", reference, events)
		}
		if n := testing.AllocsPerRun(10, func() { chip.Reset(); chip.EnableFlight(events) }); n != 0 {
			t.Errorf("reference %t: resetting and re-arming at the same size allocates %.0f times, want 0", reference, n)
		}
		for _, c := range []struct{ ask, want int }{{1000, 1024}, {0, flight.DefaultEvents}, {events, events}} {
			chip.Reset()
			chip.EnableFlight(c.ask)
			if got := chip.FlightDump().Events; got != c.want {
				t.Errorf("reference %t: EnableFlight(%d) after a reset armed a ring of %d records, want %d", reference, c.ask, got, c.want)
			}
		}
	}
}
