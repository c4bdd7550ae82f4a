package main

// Isolated drives of the components that only run inside Chip.Run: each
// is built as sim.New builds it (Table 1 parameters) and fed a fixed
// pseudo-random stream, so the ns/op rows move when the component's code
// does and not when a workload changes.

import (
	"runtime"
	"time"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/mem"
	"github.com/clp-sim/tflex/internal/noc"
	"github.com/clp-sim/tflex/internal/predictor"
)

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

// lcg is the drives' input stream; the seed is fixed so every run feeds
// the components the same addresses.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = (*r)*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 17
}

// microReps is how often each drive repeats; the median is reported.
const microReps = 5

// timeOp runs body (which performs ops operations) microReps times and
// returns the median ns per operation and the allocations per operation.
func timeOp(ops int, body func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	samples := make([]float64, microReps)
	runtime.ReadMemStats(&m0)
	for i := range samples {
		t0 := time.Now()
		body()
		samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	runtime.ReadMemStats(&m1)
	return median(samples), float64(m1.Mallocs-m0.Mallocs) / float64(ops*microReps)
}

// microDrives fills the isolated-component rows.  n scales every drive's
// operation count.
func microDrives(led *ledger, n int) {
	p := compose.DefaultCoreParams()
	nodes := compose.ArrayW * compose.ArrayH
	put := func(name string, ops int, body func()) {
		ns, allocs := timeOp(ops, body)
		led.set(name, ns)
		led.extra(name+".allocs_per_op", allocs)
	}

	// Operand network: point-to-point sends between random nodes, one
	// injection per cycle so link reservations stay realistic.
	mesh := noc.NewMesh(compose.ArrayW, compose.ArrayH, p.OperandBW)
	var now uint64
	put("noc.send_ns", n, func() {
		r := lcg(1)
		for i := 0; i < n; i++ {
			v := r.next()
			sink += mesh.Send(int(v)%nodes, int(v>>8)%nodes, now)
			now++
		}
	})
	// Control network: tree multicast to an 8-core rectangle.
	ctl := noc.NewMesh(compose.ArrayW, compose.ArrayH, p.ControlBW)
	targets := compose.MustRect(0, 0, 8).Cores
	dst := make([]uint64, len(targets))
	put("noc.multicast_ns_per_target", n, func() {
		r := lcg(2)
		for i := 0; i < n/len(targets); i++ {
			ctl.MulticastInto(targets[int(r.next())%len(targets)], targets, now, dst)
			sink += dst[0]
			now += 4
		}
	})

	// L1 D-cache: accesses over twice its capacity (hits and misses),
	// fills over four times.
	l1 := mem.NewCache(p.L1DBytes, p.L1DAssoc, p.LineBytes)
	put("mem.l1_fill_ns", n, func() {
		r := lcg(3)
		for i := 0; i < n; i++ {
			_, ev := l1.Fill(r.next()%uint64(4*p.L1DBytes), now)
			if ev {
				sink++
			}
		}
	})
	put("mem.l1_access_ns", n, func() {
		r := lcg(4)
		for i := 0; i < n; i++ {
			if _, hit := l1.Access(r.next()%uint64(2*p.L1DBytes), now); hit {
				sink++
			}
		}
	})

	// LSQ banks: 64 banks filled to 40 of 44 entries with alternating
	// loads and stores of four blocks, probed for forwarding, then
	// drained a block at a time.  Phases are timed apart.
	const banks, perBank, blocksPerBank = 64, 40, 4
	lsq := make([]*mem.LSQBank, banks)
	for i := range lsq {
		lsq[i] = mem.NewLSQBank(p.LSQEntries)
	}
	rounds := max(n/(banks*perBank), 1)
	var tIns, tFwd, tRem time.Duration
	lsqBody := func() {
		r := lcg(5)
		for round := 0; round < rounds; round++ {
			t0 := time.Now()
			for _, b := range lsq {
				for e := 0; e < perBank; e++ {
					key := mem.MemKey{BlockSeq: uint64(e % blocksPerBank), LSID: int8(e / blocksPerBank)}
					ok, v := b.Insert(mem.LSQEntry{Key: key, Store: e%2 == 0, Addr: r.next() % 4096 &^ 7, Size: 8})
					if ok {
						sink += uint64(len(v))
					}
				}
			}
			t1 := time.Now()
			for _, b := range lsq {
				for e := 0; e < perBank; e++ {
					if b.ForwardFrom(mem.MemKey{BlockSeq: blocksPerBank, LSID: 0}, r.next()%4096&^7, 8) {
						sink++
					}
				}
			}
			t2 := time.Now()
			for _, b := range lsq {
				for seq := uint64(0); seq < blocksPerBank; seq++ {
					sink += uint64(b.RemoveBlock(seq))
				}
			}
			tIns += t1.Sub(t0)
			tFwd += t2.Sub(t1)
			tRem += time.Since(t2)
		}
	}
	_, lsqAllocs := timeOp(rounds*banks*perBank, lsqBody)
	per := float64(microReps * rounds * banks)
	led.set("mem.lsq_insert_ns", float64(tIns.Nanoseconds())/(per*perBank))
	led.set("mem.lsq_forward_ns", float64(tFwd.Nanoseconds())/(per*perBank))
	led.set("mem.lsq_remove_ns", float64(tRem.Nanoseconds())/(per*blocksPerBank))
	led.extra("mem.lsq.allocs_per_op", lsqAllocs)

	// L2 and DRAM: reads from random cores over 1.5x the L2's capacity,
	// so about a third miss to DRAM and fill.
	dram := mem.NewDRAM(uint64(p.DRAMCycles), 2, 4)
	l2 := mem.NewL2(p.L2Bytes, p.L2Assoc, p.LineBytes, 32, uint64(p.L2HitMin), uint64(p.L2HitMax), dram)
	put("mem.l2_read_ns", n, func() {
		r := lcg(6)
		for i := 0; i < n; i++ {
			v := r.next()
			sink += l2.Read(int(v>>40)%nodes, v%uint64(p.L2Bytes*3/2), now)
			now += 2
		}
	})
	put("mem.dram_access_ns", n, func() {
		r := lcg(7)
		for i := 0; i < n; i++ {
			sink += dram.Access(r.next()%(1<<30), now)
			now += 2
		}
	})

	// Next-block predictor of an 8-core composition: predict a batch,
	// then train it, as fetch and commit do.
	pred := predictor.NewComposed(p, 8)
	const batch = 1024
	preds := make([]predictor.Prediction, batch)
	var hist predictor.History
	batches := max(n/batch, 1)
	var tPred, tTrain time.Duration
	predBody := func() {
		r := lcg(8)
		for b := 0; b < batches; b++ {
			t0 := time.Now()
			for i := range preds {
				preds[i], hist = pred.Predict(r.next()%512*isa.BlockBytes, hist)
			}
			t1 := time.Now()
			for i := range preds {
				v := r.next()
				pred.Train(&preds[i], uint8(v%8), isa.BranchType(1+v>>8%3), v>>16%512*isa.BlockBytes)
			}
			tPred += t1.Sub(t0)
			tTrain += time.Since(t1)
		}
	}
	_, predAllocs := timeOp(batches*batch, predBody)
	per = float64(microReps * batches * batch)
	led.set("predictor.predict_ns", float64(tPred.Nanoseconds())/per)
	led.set("predictor.train_ns", float64(tTrain.Nanoseconds())/per)
	led.extra("predictor.allocs_per_op", predAllocs)

	// ALU evaluation: the opcode mix of a generated program.
	ops := []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpXor, isa.OpShl, isa.OpLt, isa.OpEq, isa.OpFAdd, isa.OpFMul}
	insts := make([]isa.Inst, len(ops))
	for i, op := range ops {
		insts[i] = isa.Inst{Op: op}
	}
	put("exec.evalalu_ns", n, func() {
		r := lcg(9)
		for i := 0; i < n; i++ {
			v := r.next()
			sink += exec.EvalALU(&insts[i%len(insts)], v, v>>7)
		}
	})
}
