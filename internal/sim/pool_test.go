package sim

import (
	"reflect"
	"slices"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/kernels"
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

// TestReferenceNeverPoolsIFBs pins the oracle's independence from the
// storage recycling it checks: on a Reference chip every fetch gets a
// fresh in-flight block, so a processor's IFB free list stays empty and
// no *IFB carries two fetches, across a run to halt, a run stopped with
// blocks in flight, the chip's Reset and a run on the reset chip.  The
// pooled engine on the same runs must reuse IFBs, or the observation
// below could not see reuse.  The window is watched at every block
// retirement, which on these runs sees every fetch: a Reference run
// shows as many distinct IFBs as it fetched blocks.
func TestReferenceNeverPoolsIFBs(t *testing.T) {
	for _, name := range []string{"mcf", "gcc", "conv"} {
		k, _ := kernels.ByName(name)
		inst, err := k.Build(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, reference := range []bool{true, false} {
			opts := DefaultOptions()
			opts.Reference = reference
			chip := New(opts)
			seqOf := map[*IFB]uint64{} // holds every IFB seen, so none is freed and its address reused
			reused := 0
			watch := func(p *Proc) {
				if reference && len(p.ifbFree) > 0 {
					t.Fatalf("%s: a Reference processor holds %d free IFBs", name, len(p.ifbFree))
				}
				for _, b := range p.window {
					if seq, ok := seqOf[b]; ok && seq != b.seq {
						if reference {
							t.Fatalf("%s: a Reference processor handed one IFB to fetches %d and %d", name, seq, b.seq)
						}
						reused++
					}
					seqOf[b] = b.seq
				}
			}
			const whole = 2_000_000_000
			for _, limit := range []uint64{whole, 1500, whole} {
				proc, err := chip.AddProc(compose.MustRect(0, 0, 4), inst.Prog)
				if err != nil {
					t.Fatal(err)
				}
				proc.TraceBlocks(func(BlockEvent) { watch(proc) })
				before := len(seqOf)
				inst.Init(&proc.Regs, proc.Mem)
				if err := chip.Run(limit); err != nil && limit == whole {
					t.Fatalf("%s: %v", name, err)
				}
				watch(proc)
				fetched := int(proc.Stats.BlocksCommitted+proc.Stats.BlocksFlushed) + len(proc.window)
				if reference && len(seqOf)-before != fetched {
					t.Fatalf("%s: %d fetches showed %d distinct IFBs", name, fetched, len(seqOf)-before)
				}
				chip.Reset()
				if reference && len(proc.ifbFree) > 0 {
					t.Fatalf("%s: Reset left %d free IFBs on a Reference processor", name, len(proc.ifbFree))
				}
			}
			if !reference && reused == 0 {
				t.Errorf("%s: the pooled engine reused no IFB, so the watch sees no reuse", name)
			}
		}
	}
}
