// Package predictor implements the TFlex composable next-block predictor
// (paper §4.3, Figure 3).  Each core has a fully functional block
// predictor; a composed processor treats the per-core predictors as one
// logical predictor.  Predictions happen at the owner core of each block
// (hash of the block address), so predictor capacity grows with the
// composition.
//
// The predictor has two halves:
//
//   - the exit predictor — an Alpha 21264-style tournament of two-level
//     local and global predictors with a choice table, over 3-bit exit
//     histories rather than taken/not-taken bits;
//   - the target predictor — a Btype table classifying the predicted exit
//     branch (sequential / regular / call / return), backed by a BTB for
//     branch targets, a CTB for call targets, a next-block adder, and a
//     return-address stack (RAS) that is sequentially partitioned across
//     the participating cores into one logical stack.
//
// Local histories, Btype, BTB and CTB are trivially composable: a block's
// state lives only at its owner core.  The global history is a value
// forwarded from owner to owner with each prediction hand-off, so it is
// exact without extra latency.  The RAS is repaired on misprediction from
// per-prediction backup records.
package predictor

import (
	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/isa"
)

// History is the global exit history carried with fetch hand-off
// messages: three bits per predicted block exit.
type History uint32

// push shifts an exit into the history.
func (h History) push(exit uint8) History { return h<<3 | History(exit&7) }

// entry is one exit-table entry: a predicted exit with 2-bit hysteresis.
type entry struct {
	exit uint8
	conf uint8
}

func (e *entry) train(actual uint8) {
	if e.exit == actual {
		if e.conf < 3 {
			e.conf++
		}
		return
	}
	if e.conf > 0 {
		e.conf--
	} else {
		e.exit = actual
	}
}

// corePred is the per-core predictor state (Figure 3).
type corePred struct {
	localL1 []uint16 // per-block local exit histories
	localL2 []entry
	global  []entry
	choice  []uint8 // 2-bit: >=2 prefer global
	btype   []uint8 // 2-bit branch type
	btb     []uint64
	ctb     []uint64
}

// Stats counts predictor events.  Hits and Mispredicts count trained
// (committed) outcomes only, so Hits+Mispredicts is the number of blocks
// the accuracy is measured over; Predictions also includes wrong-path
// predictions that were flushed before training.
type Stats struct {
	Predictions   uint64
	Hits          uint64 // trained predictions whose next-block address was right
	ExitMiss      uint64
	TargetMiss    uint64
	Mispredicts   uint64 // wrong next-block address for any reason
	Flushes       uint64 // pipeline flushes triggered at branch resolve
	RASPushes     uint64
	RASPops       uint64
	RASUnderflows uint64
}

// Accuracy returns the fraction of trained predictions that named the
// right next block, or 0 before any block has committed.
func (s *Stats) Accuracy() float64 {
	trained := s.Hits + s.Mispredicts
	if trained == 0 {
		return 0
	}
	return float64(s.Hits) / float64(trained)
}

// Prediction is the output of one next-block prediction, along with the
// state needed to repair speculative updates if it is flushed.
type Prediction struct {
	Next    uint64 // predicted next-block address
	Exit    uint8
	Type    isa.BranchType
	UsedRAS bool
	// RASTopCore is the participating-core index holding the RAS top at
	// the time of the prediction (for hop charging by the simulator).
	RASTopCore int

	// Repair state (restored in reverse prediction order on a flush).
	hist      History
	localIdx  int
	localOld  uint16
	rasTopOld int
	rasValOld uint64
	rasMoved  bool
	owner     int
	blockAddr uint64
}

// Composed is the logical predictor of one composed processor.
type Composed struct {
	params compose.CoreParams
	cores  []corePred

	// Distributed RAS: entry i lives on participating core i/RASEntries.
	ras    []uint64
	rasTop int // index of next free slot (0 = empty)

	Stats Stats

	accuracyGauge func() float64 // Stats.Accuracy for the registry, bound by the first Register
}

// NewComposed builds the logical predictor over n participating cores.
// The n banks' tables share one backing array per element type.
func NewComposed(p compose.CoreParams, n int) *Composed {
	l1 := make([]uint16, n*p.LocalL1Entries)
	entries := make([]entry, n*(p.LocalL2Entries+p.GlobalEntries))
	bytes := make([]uint8, n*(p.ChoiceEntries+p.BtypeEntries))
	words := make([]uint64, n*(p.BTBEntries+p.CTBEntries+p.RASEntries))
	c := &Composed{params: p, cores: make([]corePred, n)}
	for i := range c.cores {
		c.cores[i] = corePred{
			localL1: carve(&l1, p.LocalL1Entries),
			localL2: carve(&entries, p.LocalL2Entries),
			global:  carve(&entries, p.GlobalEntries),
			choice:  carve(&bytes, p.ChoiceEntries),
			btype:   carve(&bytes, p.BtypeEntries),
			btb:     carve(&words, p.BTBEntries),
			ctb:     carve(&words, p.CTBEntries),
		}
	}
	c.ras = words
	return c
}

// Reset zeroes every table, the RAS and the statistics in place: the
// predictor is then the one NewComposed returned.
func (c *Composed) Reset() {
	for i := range c.cores {
		cp := &c.cores[i]
		clear(cp.localL1)
		clear(cp.localL2)
		clear(cp.global)
		clear(cp.choice)
		clear(cp.btype)
		clear(cp.btb)
		clear(cp.ctb)
	}
	clear(c.ras)
	c.rasTop = 0
	c.Stats = Stats{}
}

// carve takes the next n elements off the front of *slab.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// N returns the number of composed predictor banks.
func (c *Composed) N() int { return len(c.cores) }

func blockHash(addr uint64) uint64 {
	b := addr / uint64(isa.BlockBytes)
	return b ^ b>>9
}

// OwnerOf returns the participating-core index owning blockAddr.
func (c *Composed) OwnerOf(blockAddr uint64) int {
	return compose.OwnerOf(blockAddr, len(c.cores))
}

// TopCore returns the participating-core index currently holding the RAS
// top-of-stack.
func (c *Composed) TopCore() int {
	idx := c.rasTop
	if idx > 0 {
		idx--
	}
	core := idx / c.params.RASEntries
	if core >= len(c.cores) {
		core = len(c.cores) - 1
	}
	return core
}

// Predict issues the next-block prediction for blockAddr under global
// history hist, applying speculative history and RAS updates.  It returns
// the prediction (with repair state) and the successor history to forward
// to the next owner.
func (c *Composed) Predict(blockAddr uint64, hist History) (Prediction, History) {
	c.Stats.Predictions++
	owner := c.OwnerOf(blockAddr)
	cp := &c.cores[owner]
	h := blockHash(blockAddr)

	li := int(h % uint64(len(cp.localL1)))
	lh := cp.localL1[li]
	localE := cp.localL2[int(lh)%len(cp.localL2)].exit
	gi := int((uint64(hist) ^ h) % uint64(len(cp.global)))
	globalE := cp.global[gi].exit
	exit := localE
	if cp.choice[int(uint64(hist))%len(cp.choice)] >= 2 {
		exit = globalE
	}

	bi := int((h ^ uint64(exit)<<5) % uint64(len(cp.btype)))
	btype := isa.BranchType(cp.btype[bi])
	if btype == isa.BranchNone {
		btype = isa.BranchRegular
	}

	p := Prediction{
		Exit: exit, Type: btype,
		hist: hist, localIdx: li, localOld: lh,
		rasTopOld: c.rasTop, owner: owner, blockAddr: blockAddr,
		RASTopCore: c.TopCore(),
	}

	switch btype {
	case isa.BranchCall:
		p.Next = cp.ctb[int((h^uint64(exit))%uint64(len(cp.ctb)))]
		// Push the return address: the block after the call block.
		if c.rasTop < len(c.ras) {
			p.rasValOld = c.ras[c.rasTop]
			c.ras[c.rasTop] = blockAddr + uint64(isa.BlockBytes)
			c.rasTop++
			p.rasMoved = true
			c.Stats.RASPushes++
		}
	case isa.BranchReturn:
		p.UsedRAS = true
		if c.rasTop > 0 {
			c.rasTop--
			p.Next = c.ras[c.rasTop]
			p.rasMoved = true
			c.Stats.RASPops++
		} else {
			c.Stats.RASUnderflows++
			p.Next = blockAddr + uint64(isa.BlockBytes)
		}
	case isa.BranchHalt:
		p.Next = 0
	default:
		p.Next = cp.btb[int((h^uint64(exit)<<2)%uint64(len(cp.btb)))]
		if p.Next == 0 {
			p.Next = blockAddr + uint64(isa.BlockBytes)
		}
	}

	// Speculative local and global history updates.
	cp.localL1[li] = lh<<3 | uint16(exit&7)
	return p, hist.push(exit)
}

// Repair undoes the speculative updates of a flushed prediction.  Flushed
// predictions must be repaired youngest-first.
func (c *Composed) Repair(p *Prediction) {
	cp := &c.cores[p.owner]
	cp.localL1[p.localIdx] = p.localOld
	if p.rasMoved {
		if p.Type == isa.BranchCall {
			c.ras[p.rasTopOld] = p.rasValOld
		}
		c.rasTop = p.rasTopOld
	}
}

// Mispredicted reports whether the prediction named the wrong next block.
func (c *Composed) Mispredicted(p *Prediction, actualTarget uint64) bool {
	return p.Next != actualTarget
}

// RepairAfterMiss repairs the speculative state of a mispredicted block
// after all younger predictions have been Repair()ed: the local history is
// rebuilt with the actual exit, the RAS is corrected with the actual
// branch type, and the corrected global history is returned for the fetch
// restart.
func (c *Composed) RepairAfterMiss(p *Prediction, actualExit uint8, actualType isa.BranchType) History {
	c.Stats.Flushes++
	cp := &c.cores[p.owner]
	cp.localL1[p.localIdx] = p.localOld<<3 | uint16(actualExit&7)
	c.CorrectRAS(p.blockAddr, actualType)
	return p.hist.push(actualExit)
}

// Train updates the exit, type and target tables with a block's actual
// outcome.  Call at commit so wrong-path blocks never train.
func (c *Composed) Train(p *Prediction, actualExit uint8, actualType isa.BranchType, actualTarget uint64) {
	cp := &c.cores[p.owner]
	h := blockHash(p.blockAddr)

	// Train exit tables with the history values used at prediction time.
	lIdx := int(p.localOld) % len(cp.localL2)
	gIdx := int((uint64(p.hist) ^ h) % uint64(len(cp.global)))
	localRight := cp.localL2[lIdx].exit == actualExit
	globalRight := cp.global[gIdx].exit == actualExit
	cp.localL2[lIdx].train(actualExit)
	cp.global[gIdx].train(actualExit)
	ci := int(uint64(p.hist)) % len(cp.choice)
	if globalRight && !localRight && cp.choice[ci] < 3 {
		cp.choice[ci]++
	}
	if localRight && !globalRight && cp.choice[ci] > 0 {
		cp.choice[ci]--
	}

	// Train the type and target tables under the actual exit.
	bi := int((h ^ uint64(actualExit)<<5) % uint64(len(cp.btype)))
	cp.btype[bi] = uint8(actualType)
	switch actualType {
	case isa.BranchCall:
		cp.ctb[int((h^uint64(actualExit))%uint64(len(cp.ctb)))] = actualTarget
	case isa.BranchRegular:
		cp.btb[int((h^uint64(actualExit)<<2)%uint64(len(cp.btb)))] = actualTarget
	}

	if p.Exit != actualExit {
		c.Stats.ExitMiss++
	} else if p.Next != actualTarget {
		c.Stats.TargetMiss++
	}
	if p.Next != actualTarget {
		c.Stats.Mispredicts++
	} else {
		c.Stats.Hits++
	}
}

// CorrectRAS rewrites the RAS state after a misprediction involving calls
// or returns: the mispredicting owner sends the corrected top-of-stack to
// the core that will hold the new top (paper §4.3).  In the model the
// repair itself is done by Repair; CorrectRAS applies the actual outcome.
func (c *Composed) CorrectRAS(blockAddr uint64, actualType isa.BranchType) {
	switch actualType {
	case isa.BranchCall:
		if c.rasTop < len(c.ras) {
			c.ras[c.rasTop] = blockAddr + uint64(isa.BlockBytes)
			c.rasTop++
		}
	case isa.BranchReturn:
		if c.rasTop > 0 {
			c.rasTop--
		}
	}
}
