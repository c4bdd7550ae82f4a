package sim

import (
	"reflect"
	"slices"
	"testing"
)

// TestChipPoolKeying holds the chip pool to its key: a released chip
// comes back from the next Acquire of equal options, and never from an
// Acquire of options that differ only in the engine, in ZeroHandshake or
// in one bank index; and a caller editing its DBanks after Acquire moves
// neither the chip's options nor the options it serves.  The pool is a
// plain list, so both halves hold under -race and whatever the collector
// does.  A new Options field fails the test until Options.equal compares
// it.
func TestChipPoolKeying(t *testing.T) {
	if n := reflect.TypeFor[Options]().NumField(); n != 7 {
		t.Fatalf("Options has %d fields and Options.equal compares 7: add the new one to the pool key", n)
	}
	tflex := DefaultOptions()
	trips := DefaultOptions() // the TRIPS baseline's shape (internal/trips)
	trips.Params.IssueTotal, trips.Params.OperandBW, trips.Params.DispatchBW = 1, 1, 1
	trips.Params.WindowEntries = 64
	trips.CentralPredictor = true
	trips.DBanks, trips.RegBanks = []int{0, 4, 8, 12}, []int{0, 1, 2, 3}
	ref, zero, bank := tflex, tflex, trips.clone()
	ref.Reference = true
	zero.ZeroHandshake = true
	bank.DBanks[3] = 13
	all := []Options{tflex, trips, ref, zero, bank}

	for i, o := range all {
		c := Acquire(o)
		if !reflect.DeepEqual(c.Opts, o) {
			t.Fatalf("options %d: Acquire built a chip with %+v", i, c.Opts)
		}
		Release(c)
		for j, other := range all {
			if j == i {
				continue
			}
			d := Acquire(other)
			if d == c {
				t.Errorf("options %d: a chip released under options %d came back for them", j, i)
			}
			Release(d)
		}
		if d := Acquire(o); d != c {
			t.Errorf("options %d: the released chip did not come back for equal options", i)
		}
	}

	// Options no other test builds, so the pool files them under a new key.
	caller := trips.clone()
	caller.Params.LSQEntries = 40
	want := caller.clone()
	c := Acquire(caller)
	Release(c)
	caller.DBanks[0] = 1
	if !slices.Equal(c.Opts.DBanks, want.DBanks) {
		t.Errorf("the chip's DBanks follow the caller's slice: %v, want %v", c.Opts.DBanks, want.DBanks)
	}
	if d := Acquire(caller); d == c {
		t.Error("a chip came back for the caller's edited DBanks: the pool key follows the caller's slice")
	}
	if d := Acquire(want); d != c {
		t.Error("the chip did not come back for the options it was acquired with")
	}
}
