package predictor

import (
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/isa"
)

func newPred(n int) *Composed {
	return NewComposed(compose.DefaultCoreParams(), n)
}

const blockA = uint64(0x10000)
const blockB = blockA + uint64(isa.BlockBytes)
const blockC = blockB + uint64(isa.BlockBytes)

// resolve runs what the engine runs once a predicted block's branch
// resolves and the block commits, with no younger block in flight to
// Repair first: RepairAfterMiss if the next block was mispredicted
// (sim's branchResolved), then Train (finalizeCommit).  next is the
// history Predict returned; resolve returns whether the prediction was
// right and the history fetch continues with.
func resolve(p *Composed, pred *Prediction, next History, exit uint8, typ isa.BranchType, target uint64) (bool, History) {
	ok := !p.Mispredicted(pred, target)
	if !ok {
		next = p.RepairAfterMiss(pred, exit, typ)
	}
	p.Train(pred, exit, typ, target)
	return ok, next
}

func TestLearnsRepeatingExit(t *testing.T) {
	p := newPred(4)
	var hist History
	// Block A always takes exit 2 to block C.
	for i := 0; i < 50; i++ {
		pred, h2 := p.Predict(blockA, hist)
		_, hist = resolve(p, &pred, h2, 2, isa.BranchRegular, blockC)
	}
	pred, _ := p.Predict(blockA, hist)
	if pred.Exit != 2 {
		t.Fatalf("exit = %d, want 2", pred.Exit)
	}
	if pred.Next != blockC {
		t.Fatalf("target = %#x, want %#x", pred.Next, blockC)
	}
}

func TestLearnsAlternatingPattern(t *testing.T) {
	// Alternating exits 0,1,0,1... is learnable from local history.
	p := newPred(2)
	var hist History
	miss := 0
	for i := 0; i < 400; i++ {
		exit := uint8(i % 2)
		target := blockB
		if exit == 1 {
			target = blockC
		}
		pred, h2 := p.Predict(blockA, hist)
		if i > 100 && pred.Exit != exit {
			miss++
		}
		_, hist = resolve(p, &pred, h2, exit, isa.BranchRegular, target)
	}
	if miss > 15 {
		t.Fatalf("alternating pattern misses = %d/300", miss)
	}
}

func TestCapacityScalesWithComposition(t *testing.T) {
	// With many distinct blocks, a larger composition has more aggregate
	// local-history and target state and should mispredict less.
	run := func(n int) uint64 {
		p := newPred(n)
		var hist History
		nBlocks := 512
		for pass := 0; pass < 6; pass++ {
			for b := 0; b < nBlocks; b++ {
				addr := blockA + uint64(b)*uint64(isa.BlockBytes)
				// Deterministic but block-dependent behaviour.
				exit := uint8(b % 3)
				target := blockA + uint64((b*7+1)%nBlocks)*uint64(isa.BlockBytes)
				pred, h2 := p.Predict(addr, hist)
				_, hist = resolve(p, &pred, h2, exit, isa.BranchRegular, target)
			}
		}
		return p.Stats.Mispredicts
	}
	small := run(1)
	large := run(16)
	if large >= small {
		t.Fatalf("16-core predictor (%d misses) not better than 1-core (%d)", large, small)
	}
}

func TestRASPushPop(t *testing.T) {
	p := newPred(2)
	var hist History
	// Teach the predictor that A is a call to B and B is a return.
	for i := 0; i < 20; i++ {
		predA, h2 := p.Predict(blockA, hist)
		_, hist = resolve(p, &predA, h2, 0, isa.BranchCall, blockB)
		predB, h3 := p.Predict(blockB, hist)
		_, hist = resolve(p, &predB, h3, 0, isa.BranchReturn, blockA+uint64(isa.BlockBytes))
	}
	predA, h := p.Predict(blockA, hist)
	if predA.Type != isa.BranchCall || predA.Next != blockB {
		t.Fatalf("call prediction: type=%v next=%#x", predA.Type, predA.Next)
	}
	predB, _ := p.Predict(blockB, h)
	if predB.Type != isa.BranchReturn {
		t.Fatalf("return type = %v", predB.Type)
	}
	if !predB.UsedRAS {
		t.Fatal("return should use RAS")
	}
	// The RAS must produce the return address pushed by the call:
	// the block after A.
	if predB.Next != blockA+uint64(isa.BlockBytes) {
		t.Fatalf("return target = %#x, want %#x", predB.Next, blockA+uint64(isa.BlockBytes))
	}
}

// A call whose target was mispredicted still leaves its return address
// on the RAS: RepairAfterMiss applies the actual branch type, so the
// matching return predicts the block after the call.
func TestMissedCallPushesReturnAddress(t *testing.T) {
	p := newPred(2)
	var hist History
	// B is known to be a return (taken here on an empty RAS).
	predB, next := p.Predict(blockB, hist)
	_, hist = resolve(p, &predB, next, 0, isa.BranchReturn, blockC)
	// A cold block D calls B: predicted as a fall-through, so it misses.
	blockD := blockA + 16*uint64(isa.BlockBytes)
	predD, next := p.Predict(blockD, hist)
	var ok bool
	if ok, hist = resolve(p, &predD, next, 0, isa.BranchCall, blockB); ok {
		t.Fatal("cold call predicted its target")
	}
	predB, _ = p.Predict(blockB, hist)
	if !predB.UsedRAS || predB.Next != blockD+uint64(isa.BlockBytes) {
		t.Fatalf("return after a missed call: used RAS %v, next %#x, want %#x",
			predB.UsedRAS, predB.Next, blockD+uint64(isa.BlockBytes))
	}
}

func TestRASDepthScalesWithCores(t *testing.T) {
	params := compose.DefaultCoreParams()
	p1 := NewComposed(params, 1)
	p4 := NewComposed(params, 4)
	if len(p4.ras) != 4*len(p1.ras) {
		t.Fatalf("RAS sizes %d vs %d", len(p4.ras), len(p1.ras))
	}
	if len(p1.ras) != params.RASEntries {
		t.Fatalf("single-core RAS = %d", len(p1.ras))
	}
}

func TestRASTopCoreMoves(t *testing.T) {
	p := newPred(2) // 32-entry logical RAS: entries 0-15 on core 0, 16-31 on core 1
	var hist History
	if p.TopCore() != 0 {
		t.Fatalf("empty stack top core = %d", p.TopCore())
	}
	// Push 20 calls: top must move to core 1.
	for i := 0; i < 20; i++ {
		addr := blockA + uint64(i)*uint64(isa.BlockBytes)
		// Force call predictions by training first.
		for j := 0; j < 3; j++ {
			pred, h2 := p.Predict(addr, hist)
			_, hist = resolve(p, &pred, h2, 0, isa.BranchCall, blockB)
		}
	}
	if p.TopCore() != 1 {
		t.Fatalf("deep stack top core = %d, want 1", p.TopCore())
	}
}

func TestRepairRestoresState(t *testing.T) {
	p := newPred(2)
	var hist History
	// Train a call so the RAS moves.
	for i := 0; i < 10; i++ {
		pred, h2 := p.Predict(blockA, hist)
		_, hist = resolve(p, &pred, h2, 0, isa.BranchCall, blockB)
	}
	topBefore := p.rasTop
	cp := p.cores[p.OwnerOf(blockA)]
	localBefore := append([]uint16(nil), cp.localL1...)

	pred, _ := p.Predict(blockA, hist)
	if p.rasTop == topBefore {
		t.Fatal("prediction should have pushed the RAS")
	}
	p.Repair(&pred)
	if p.rasTop != topBefore {
		t.Fatalf("RAS top not repaired: %d vs %d", p.rasTop, topBefore)
	}
	for i := range localBefore {
		if cp.localL1[i] != localBefore[i] {
			t.Fatalf("local history %d not repaired", i)
		}
	}
}

func TestRASUnderflowFallsBack(t *testing.T) {
	p := newPred(1)
	var hist History
	// Train a return with an empty RAS.
	for i := 0; i < 10; i++ {
		pred, h2 := p.Predict(blockA, hist)
		_, hist = resolve(p, &pred, h2, 0, isa.BranchReturn, blockB)
	}
	pred, _ := p.Predict(blockA, hist)
	if pred.Type == isa.BranchReturn && pred.Next == 0 {
		t.Fatal("underflow should fall back to a non-zero address")
	}
	if p.Stats.RASUnderflows == 0 {
		t.Fatal("underflows should be counted")
	}
}

func TestStatsCountMisses(t *testing.T) {
	p := newPred(1)
	var hist History
	pred, next := p.Predict(blockA, hist)
	if ok, _ := resolve(p, &pred, next, 5, isa.BranchRegular, blockC); ok { // cold: wrong
		t.Fatal("cold prediction named the right block")
	}
	if p.Stats.Predictions != 1 {
		t.Fatalf("predictions = %d", p.Stats.Predictions)
	}
	if p.Stats.Mispredicts != 1 || p.Stats.Flushes != 1 {
		t.Fatalf("mispredicts = %d, flushes = %d, want 1 each", p.Stats.Mispredicts, p.Stats.Flushes)
	}
}

func TestOwnerDistribution(t *testing.T) {
	p := newPred(8)
	counts := make([]int, 8)
	for i := 0; i < 800; i++ {
		counts[p.OwnerOf(blockA+uint64(i)*uint64(isa.BlockBytes))]++
	}
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("owner %d has %d sequential blocks", c, n)
		}
	}
}

// Satellite: accuracy counters pinned on a known branch pattern.  Block A
// repeats exits 1,1,1,0 (a loop taken three times, then the exit) with a
// fixed exit→target mapping; the tournament + local history learn the
// period-4 pattern, so after warmup every trained prediction is a hit.
func TestAccuracyCountersOnKnownPattern(t *testing.T) {
	p := newPred(2)
	var hist History
	run := func(rounds int) {
		for i := 0; i < rounds; i++ {
			exit := uint8(1)
			target := blockA // loop back
			if i%4 == 3 {
				exit = 0
				target = blockB // loop exit
			}
			pred, h2 := p.Predict(blockA, hist)
			_, hist = resolve(p, &pred, h2, exit, isa.BranchRegular, target)
		}
	}
	const warmup, steady = 400, 100
	run(warmup)
	warmHits, warmMiss := p.Stats.Hits, p.Stats.Mispredicts
	if warmMiss == 0 {
		t.Fatal("cold predictor cannot be perfect: expected warmup mispredicts")
	}
	if warmHits+warmMiss != warmup || p.Stats.Predictions != warmup {
		t.Fatalf("hits+mispredicts = %d+%d, predictions = %d; all must equal %d trained blocks",
			warmHits, warmMiss, p.Stats.Predictions, warmup)
	}
	run(steady)
	if miss := p.Stats.Mispredicts - warmMiss; miss != 0 {
		t.Fatalf("%d mispredicts on the learned pattern, want 0", miss)
	}
	if hits := p.Stats.Hits - warmHits; hits != steady {
		t.Fatalf("steady-state hits = %d, want %d", hits, steady)
	}
	want := float64(p.Stats.Hits) / float64(p.Stats.Hits+p.Stats.Mispredicts)
	if got := p.Stats.Accuracy(); got != want {
		t.Fatalf("Accuracy() = %v, want %v", got, want)
	}
	if got := (&Stats{}).Accuracy(); got != 0 {
		t.Fatalf("zero-stats accuracy = %v, want 0", got)
	}
}
