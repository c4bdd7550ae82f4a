package sim

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/prog"
)

// TestDomainWindowUnobservableOnSingleDomain is the metamorphic timing
// check for folding single-program runs into the window loop: without
// cross-domain traffic or mid-run composition a window boundary does
// nothing a processor can see, so cycles and every statistic must be
// identical at any window width.
func TestDomainWindowUnobservableOnSingleDomain(t *testing.T) {
	programs := []struct {
		name  string
		prog  *prog.Program
		setup func(*Proc)
	}{
		{"sum", sumProgram(t), func(p *Proc) { p.Regs[1] = 200 }},
		{"mem", memProgram(t), func(p *Proc) { p.Regs[1], p.Regs[4] = 0x100000, 40 }},
		{"lsq-thrasher", lsqThrasher(t), func(p *Proc) { p.Regs[1] = 0x700000 }},
	}
	for _, pg := range programs {
		for _, cores := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/%dc", pg.name, cores), func(t *testing.T) {
				var base *Proc
				for _, w := range []uint64{16, 1, 64} {
					opts := DefaultOptions()
					opts.DomainWindow = w
					chip := New(opts)
					proc, err := chip.AddProc(compose.MustRect(0, 0, cores), pg.prog)
					if err != nil {
						t.Fatal(err)
					}
					pg.setup(proc)
					if err := chip.Run(50_000_000); err != nil {
						t.Fatalf("W=%d: %v", w, err)
					}
					if base == nil {
						base = proc
						continue
					}
					if !reflect.DeepEqual(proc.Stats, base.Stats) { // Stats.Cycles included
						t.Errorf("W=%d: stats diverge from W=16:\n%+v\n%+v", w, proc.Stats, base.Stats)
					}
				}
			})
		}
	}
}

// TestMidRunCompositionStartsAtWindowBoundary pins the composition
// latency DESIGN.md documents: a processor composed by an OnProcHalt
// hook begins fetching at the boundary of the window its predecessor
// halted in — however many domains the chip happens to have.
func TestMidRunCompositionStartsAtWindowBoundary(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bystander bool // a second, longer-running processor on its own domain
	}{
		{"one-domain chip", false},
		{"two-domain chip", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			w := opts.domainWindow()
			chip := New(opts)
			p := sumProgram(t)
			first, err := chip.AddProc(compose.MustRect(0, 0, 2), p)
			if err != nil {
				t.Fatal(err)
			}
			first.Regs[1] = 50
			if tc.bystander {
				other, err := chip.AddProc(compose.MustRect(0, 2, 2), p)
				if err != nil {
					t.Fatal(err)
				}
				other.Regs[1] = 500
			}
			var second *Proc
			var haltedAt, firstFetch uint64
			chip.OnProcHalt(func(h *Proc) {
				if h != first {
					return
				}
				haltedAt = chip.Now()
				second, err = chip.AddProc(compose.MustRect(2, 0, 2), p)
				if err != nil {
					t.Fatal(err)
				}
				second.Regs[1] = 50
				second.TraceBlocks(func(ev BlockEvent) {
					if ev.Seq == 0 {
						firstFetch = ev.FetchStart
					}
				})
			})
			if err := chip.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			if second == nil || !second.Halted() {
				t.Fatal("the composed processor never ran to completion")
			}
			if haltedAt%w == 0 {
				t.Fatalf("predecessor halted exactly on a boundary (cycle %d); the test needs a mid-window halt", haltedAt)
			}
			if want := (haltedAt/w + 1) * w; firstFetch != want {
				t.Errorf("predecessor halted at cycle %d; composed processor first fetched at %d, want the window boundary %d",
					haltedAt, firstFetch, want)
			}
		})
	}
}

// TestPlacePendingReleasesProcessors pins the pending-list drain: once
// placed, a processor is no longer reachable through the list's backing
// array, and the array is reused by the next composition.
func TestPlacePendingReleasesProcessors(t *testing.T) {
	chip := New(DefaultOptions())
	p := sumProgram(t)
	for _, x := range []int{0, 2} {
		if _, err := chip.AddProc(compose.MustRect(x, 0, 2), p); err != nil {
			t.Fatal(err)
		}
	}
	backing := chip.pendingProcs[:2]
	chip.placePending(0)
	if len(chip.pendingProcs) != 0 {
		t.Fatalf("%d processors still pending after placement", len(chip.pendingProcs))
	}
	for i, q := range backing {
		if q != nil {
			t.Errorf("backing slot %d still pins processor %d after placement", i, q.id)
		}
	}
	if _, err := chip.AddProcShared(compose.MustRect(0, 1, 2), p, chip.Procs[0]); err != nil {
		t.Fatal(err)
	}
	if &chip.pendingProcs[0] != &backing[0] {
		t.Error("the next composition regrew the pending list instead of reusing it")
	}
}
