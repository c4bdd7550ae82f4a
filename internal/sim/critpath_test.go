package sim

import (
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/prog"
)

// TestArmEdgeIsTheArmingOperand holds every instruction record to the
// engine's own operand state, on the blocks in flight when a run stops
// at a cycle limit: an issued instruction that was ready at dispatch
// keeps no arming edge, any other keeps one that arrived exactly when it
// became ready, sent by a producer whose targets name it.  The walker
// never follows an instruction ready at dispatch (its ReadyAt is at or
// below the block's dispatch floor), so the per-block digest of
// TestCritPathDifferential cannot see maybeIssue's clear; this test can.
func TestArmEdgeIsTheArmingOperand(t *testing.T) {
	type job struct {
		name string
		prog *prog.Program
		init func(*Proc)
	}
	var jobs []job
	for _, name := range []string{"conv", "ct", "autcor", "a2time", "dither", "tblook", "802.11b", "mcf"} {
		k, _ := kernels.ByName(name)
		inst, err := k.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{name, inst.Prog, func(p *Proc) { inst.Init(&p.Regs, p.Mem) }})
	}
	checked := 0
	for _, j := range jobs {
		for _, cores := range []int{1, 8} {
			for _, limit := range []uint64{300, 1200, 5000} {
				chip := New(DefaultOptions())
				chip.EnableCritPath()
				proc, err := chip.AddProc(compose.MustRect(0, 0, cores), j.prog)
				if err != nil {
					t.Fatal(err)
				}
				j.init(proc)
				_ = chip.Run(limit) // stops with blocks in flight, or finishes
				for _, b := range proc.window {
					for pos, id := range b.lk.Live {
						ci, st := &b.cp.Insts[pos], &b.insts[pos]
						if !ci.Issued {
							continue
						}
						checked++
						if ci.ReadyAt == st.availAt {
							if ci.Arm.Valid {
								t.Fatalf("%s@%d block %s inst %d: ready at dispatch but armed by %+v", j.name, cores, b.blk.Name, id, ci.Arm)
							}
							continue
						}
						if !ci.Arm.Valid || ci.Arm.ArriveAt != ci.ReadyAt {
							t.Fatalf("%s@%d block %s inst %d: ready at %d, armed by %+v", j.name, cores, b.blk.Name, id, ci.ReadyAt, ci.Arm)
						}
						var targets []isa.Target
						switch ci.Arm.Kind {
						case critpath.SrcInst:
							targets = b.blk.Insts[b.lk.Live[ci.Arm.Src]].Targets
						case critpath.SrcRegRead:
							targets = b.blk.Reads[ci.Arm.Src].Targets
						}
						named := false
						for _, tg := range targets {
							named = named || int(tg.Index) == int(id) && uint8(tg.Kind) == ci.ArmSlot
						}
						if !named {
							t.Fatalf("%s@%d block %s inst %d: armed by %+v, which does not target its slot %d", j.name, cores, b.blk.Name, id, ci.Arm, ci.ArmSlot)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no issued instruction in flight at any stop")
	}
	t.Logf("%d issued instruction records checked", checked)
}
