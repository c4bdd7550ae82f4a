package tflex

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// critPathDigest is the FNV-64a digest of every committed block's
// (Seq, CritPath) over TestCritPathDifferential's critpath-on runs, in
// subtest order.  It pins which category each cycle lands in, block by
// block, below the scale-2 aggregate that results_scale2.txt holds: a
// walker or recording change that moves one cycle between categories
// changes it.
const critPathDigest = 0x1677caa262e680bf

// TestCritPathDifferential pins the attribution layer's passivity:
// enabling critical-path recording must not perturb the simulation.  A
// critpath-on run and a critpath-off run must produce bit-identical
// architectural results — same cycle count, same statistics, same
// registers — on every kernel and composition size.  Any divergence
// means recording leaked into a scheduling decision.  The experiment
// suite's tflex row records attribution, so Figure 6's cycle counts come
// from recorded runs: the kernels span every hand-optimized suite and the
// sizes every composition the sweep runs.  Every committed block's
// breakdown folds into one digest, pinned as critPathDigest.
func TestCritPathDifferential(t *testing.T) {
	kernels := []string{"conv", "ct", "autcor", "a2time", "dither", "tblook", "802.11b", "mcf"}
	sizes := []int{1, 2, 4, 8, 16, 32}
	digest := fnv.New64a()
	ran := 0
	for _, name := range kernels {
		for _, cores := range sizes {
			t.Run(fmt.Sprintf("%s/%dc", name, cores), func(t *testing.T) {
				ran++
				off, err := RunKernel(name, 1, RunConfig{Cores: cores})
				if err != nil {
					t.Fatalf("critpath-off run: %v", err)
				}
				var rec [8 * (1 + len(CritPathBreakdown{}))]byte
				on, err := RunKernel(name, 1, RunConfig{Cores: cores, CritPath: true, OnBlock: func(ev BlockEvent) {
					if ev.Flushed {
						return
					}
					binary.LittleEndian.PutUint64(rec[:], ev.Seq)
					for c, v := range ev.CritPath {
						binary.LittleEndian.PutUint64(rec[8*(c+1):], v)
					}
					digest.Write(rec[:])
				}})
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
	if ran == len(kernels)*len(sizes) && !t.Failed() {
		if got := digest.Sum64(); got != critPathDigest {
			t.Errorf("attribution digest = %#x, want %#x", got, critPathDigest)
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
