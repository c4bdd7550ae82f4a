package tflex

import (
	"fmt"
	"reflect"
	"testing"
)

// TestCritPathDifferential pins the attribution layer's passivity:
// enabling critical-path recording must not perturb the simulation.  A
// critpath-on run and a critpath-off run must produce bit-identical
// architectural results — same cycle count, same statistics, same
// registers — on every kernel and composition size.  Any divergence
// means recording leaked into a scheduling decision.  The experiment
// suite's tflex row records attribution, so Figure 6's cycle counts come
// from recorded runs: the kernels span every hand-optimized suite and the
// sizes every composition the sweep runs.
func TestCritPathDifferential(t *testing.T) {
	kernels := []string{"conv", "ct", "autcor", "a2time", "dither", "tblook", "802.11b", "mcf"}
	for _, name := range kernels {
		for _, cores := range []int{1, 2, 4, 8, 16, 32} {
			t.Run(fmt.Sprintf("%s/%dc", name, cores), func(t *testing.T) {
				off, err := RunKernel(name, 1, RunConfig{Cores: cores})
				if err != nil {
					t.Fatalf("critpath-off run: %v", err)
				}
				on, err := RunKernel(name, 1, RunConfig{Cores: cores, CritPath: true})
				if err != nil {
					t.Fatalf("critpath-on run: %v", err)
				}
				if on.Cycles != off.Cycles {
					t.Errorf("cycles diverge: on %d, off %d", on.Cycles, off.Cycles)
				}
				if !reflect.DeepEqual(on.Stats, off.Stats) {
					t.Errorf("stats diverge:\non  %+v\noff %+v", on.Stats, off.Stats)
				}
				if on.Regs != off.Regs {
					t.Errorf("architectural registers diverge")
				}
				if on.CritPath == nil || on.CritPath.Blocks != on.Stats.BlocksCommitted {
					t.Fatalf("critpath summary missing or wrong block count: %+v", on.CritPath)
				}
				if off.CritPath != nil {
					t.Errorf("critpath-off run reported a summary")
				}
			})
		}
	}
}

// TestCritPathReconciliation enforces the core invariant on real
// workloads: for every committed block the attributed category cycles
// sum exactly to the block's latency (RetiredAt - FetchStart), across
// kernels and compositions from 1 to 16 cores.  The chip aggregate must
// reconcile too.
func TestCritPathReconciliation(t *testing.T) {
	kernels := []string{"conv", "autcor", "dither", "tblook", "mcf"}
	for _, name := range kernels {
		for _, cores := range []int{1, 2, 4, 8, 16} {
			t.Run(fmt.Sprintf("%s/%dc", name, cores), func(t *testing.T) {
				blocks := 0
				var sumLatency uint64
				res, err := RunKernel(name, 1, RunConfig{
					Cores:    cores,
					CritPath: true,
					OnBlock: func(ev BlockEvent) {
						if ev.Flushed {
							if ev.HasCritPath {
								t.Errorf("flushed block %d carries a breakdown", ev.Seq)
							}
							return
						}
						if !ev.HasCritPath {
							t.Fatalf("committed block %d has no breakdown", ev.Seq)
						}
						lat := ev.RetiredAt - ev.FetchStart
						if got := ev.CritPath.Total(); got != lat {
							t.Fatalf("block %d (%s): attributed %d cycles, latency %d (breakdown %v)",
								ev.Seq, ev.Name, got, lat, ev.CritPath)
						}
						blocks++
						sumLatency += lat
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if blocks == 0 {
					t.Fatal("no committed blocks observed")
				}
				cp := res.CritPath
				if cp == nil {
					t.Fatal("no chip aggregate")
				}
				if cp.Blocks != uint64(blocks) {
					t.Errorf("aggregate blocks = %d, observed %d", cp.Blocks, blocks)
				}
				if cp.Cycles != sumLatency {
					t.Errorf("aggregate cycles = %d, observed latency sum %d", cp.Cycles, sumLatency)
				}
				if cp.Cats.Total() != cp.Cycles {
					t.Errorf("aggregate categories sum %d != cycles %d", cp.Cats.Total(), cp.Cycles)
				}
			})
		}
	}
}
