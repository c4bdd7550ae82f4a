package flight_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/sim"
)

// FuzzParseDump feeds hostile bytes to the reader behind tflexsim
// -flight-print, which accepts any file from disk: ParseDump must give a
// dump or an error, never a panic; a dump must render as text and JSON;
// and what WriteJSON writes must parse back to the same dump.  The corpus
// starts from a real dump with both halves and from the retired
// one-ring-per-domain shape.
func FuzzParseDump(f *testing.F) {
	var real bytes.Buffer
	if err := liveDump(f).WriteJSON(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	f.Add([]byte(`{"events":64,"rings":[{"written":2,"records":[{"cycle":0,"a":0,"b":2,"kind":5,"proc":0,"core":0}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := flight.ParseDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := d.WriteText(io.Discard); err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := d.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		again, err := flight.ParseDump(bytes.NewReader(js.Bytes()))
		if err != nil {
			t.Fatalf("a written dump does not parse back: %v\n%s", err, js.Bytes())
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("dump changed in a JSON round trip:\n%+v\n%+v", d, again)
		}
	})
}

// liveDump is the dump of a real run that the cycle budget stops with a
// loop in flight: compose, commit and flush records in the ring, and the
// window's blocks in the in-flight half.
func liveDump(tb testing.TB) *flight.Dump {
	b := prog.NewBuilder()
	bb := b.Block("loop")
	i := bb.Read(2)
	bb.Write(3, bb.Add(bb.Read(3), i))
	i2 := bb.AddI(i, 1)
	bb.Write(2, i2)
	bb.BranchIf(bb.Op(isa.OpLt, i2, bb.Read(1)), "loop", "done")
	b.Block("done").Halt()
	p, err := b.Program("loop")
	if err != nil {
		tb.Fatal(err)
	}
	chip := sim.New(sim.DefaultOptions())
	chip.EnableFlight(64)
	pr, err := chip.AddProc(compose.MustRect(0, 0, 4), p)
	if err != nil {
		tb.Fatal(err)
	}
	pr.Regs[1] = 1000
	if err := chip.Run(300); err == nil {
		tb.Fatal("a 1000-iteration loop finished within 300 cycles")
	}
	d := chip.FlightDump()
	if len(d.Records(flight.KCommit)) == 0 || len(d.Records(flight.KFlush)) == 0 || len(d.InFlight) == 0 {
		tb.Fatalf("the stopped run's dump lacks commits, flushes or blocks in flight: %+v", d)
	}
	return d
}
