// Package critpath is the cycle-accurate critical-path attribution
// engine: for every committed block it walks the dynamic dataflow graph
// recorded during execution — the edge that last armed each instruction,
// plus the per-stage timestamps stamped by the simulator — and charges
// every cycle of the block's latency (retire time minus fetch start) to
// exactly one of eight categories.
//
// The central invariant is *exact reconciliation*:
//
//	sum over categories of Breakdown[c] == RetiredAt - FetchStart
//
// and it holds structurally, not statistically: Attribute fills the
// block's latency interval with a monotonically receding cursor, every
// charge is clamped to the still-uncovered part of the interval, and any
// residue left when the recorded chain runs out (a broken edge, an
// unwalkable record) is charged to FetchDispatch.  Garbage or missing
// records can therefore skew *which* category a cycle lands in, never
// the total.
//
// Recording follows the telemetry disabled-cost contract (DESIGN.md):
// when attribution is off the per-block record pointer is nil and every
// simulator-side stamp compiles to a nil check.  Recording is purely
// passive — it never changes scheduling decisions — so architectural
// results are byte-identical with attribution on or off.
package critpath

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Category is one destination for attributed cycles.
type Category uint8

const (
	// FetchDispatch: block fetch pipeline (prediction, I-cache hit
	// pipeline, instruction broadcast, per-core dispatch) plus any
	// residue the dataflow walk could not attribute.
	FetchDispatch Category = iota
	// NoCHop: unloaded operand-network traversal — the Manhattan hop
	// distance each critical operand actually had to cross.
	NoCHop
	// NoCContention: operand-network queueing — actual traversal time
	// minus the unloaded hop latency.
	NoCContention
	// ALUOccupancy: issue-slot wait after wakeup plus execution latency
	// of critical instructions.
	ALUOccupancy
	// LSQWait: memory-bank queueing, NACK replay and deferred-load
	// retry time between bank arrival and cache service.
	LSQWait
	// CacheMiss: I-cache stall on fetch plus D-side L1/L2/DRAM access
	// and fill time of critical loads.
	CacheMiss
	// RegRW: register-file read wait, from read dispatch until the
	// value (possibly forwarded by an older block) left the bank.
	RegRW
	// Commit: completion-signal collection at the owner, commit-token
	// wait and the distributed commit protocol itself.
	Commit

	// NumCategories is the number of attribution categories.
	NumCategories = 8
)

var categoryNames = [NumCategories]string{
	"fetch_dispatch",
	"noc_hop",
	"noc_contention",
	"alu_occupancy",
	"lsq_wait",
	"cache_miss",
	"reg_rw",
	"commit",
}

// String returns the category's metric-name form ("noc_contention"),
// used both as the telemetry histogram suffix and the JSON key.
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("category%d", uint8(c))
}

// Short returns a compact table-column label.
func (c Category) Short() string {
	short := [NumCategories]string{
		"fetch", "noc-hop", "noc-cont", "alu", "lsq", "cache", "reg", "commit",
	}
	if int(c) < len(short) {
		return short[c]
	}
	return c.String()
}

// Breakdown is one block's (or an aggregate's) attributed cycles by
// category.
type Breakdown [NumCategories]uint64

// Total sums all categories; for a single committed block it equals the
// block latency exactly.
func (b Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// Add accumulates another breakdown in place.
func (b *Breakdown) Add(o Breakdown) {
	for i, v := range o {
		b[i] += v
	}
}

// SrcKind identifies what produced a recorded value.
type SrcKind uint8

const (
	// SrcNone marks an unrecorded or untraceable producer.
	SrcNone SrcKind = iota
	// SrcInst marks a producing instruction (Src is its position in
	// prog.Linked.Live, the index of its record in Block.Insts).
	SrcInst
	// SrcRegRead marks a register read (Src is the read index).
	SrcRegRead
)

// Edge is one operand delivery: who sent it, when it left, the unloaded
// hop latency of the route, and when it arrived.
type Edge struct {
	Kind     SrcKind
	Valid    bool
	Src      int32
	SendAt   uint64
	HopIdeal uint64
	ArriveAt uint64
}

// Inst is the per-instruction timestamp record, one per live instruction
// (Block.Insts is indexed by position in prog.Linked.Live).  Arm is the
// operand delivery that armed the instruction last, and invalid when
// dispatch did (every operand had arrived by then); ArmSlot is the
// operand slot it filled, the tie-break of Offer.  The memory fields are
// stamped only for loads and stores (IsMem).
type Inst struct {
	Arm Edge

	ReadyAt uint64 // all operands armed
	Issued  bool
	IsMem   bool
	ArmSlot uint8 // 0 left, 1 right, 2 predicate

	AgenDone   uint64 // address generation complete
	BankIdeal  uint64 // unloaded core->bank hop latency
	BankArrive uint64 // first arrival at the data bank
	SvcAt      uint64 // cache port service start (post NACK/defer replay)
	AccessDone uint64 // L1 access (or forward) complete
	DataAt     uint64 // load data available (after any miss fill)
}

// Offer records e, a value delivered into operand slot (0 left, 1 right,
// 2 predicate), as the arming edge when it arrives later than the edge
// kept so far, or in the same cycle into a lower slot.  Each slot
// receives one value, so once every operand has been offered Arm holds
// the last arrival, lowest slot first among equals.
func (in *Inst) Offer(e Edge, slot uint8) {
	if !in.Arm.Valid || e.ArriveAt > in.Arm.ArriveAt || e.ArriveAt == in.Arm.ArriveAt && slot < in.ArmSlot {
		in.Arm, in.ArmSlot = e, slot
	}
}

// Read is the per-register-read record.
type Read struct {
	DispatchAt uint64 // read request reached its bank
}

// WriteOut is the per-register-write record: the producer edge (local
// delivery), the operand-network trip to the register bank, and whether
// the write was nullified.
type WriteOut struct {
	Edge      Edge
	Null      bool
	SendAt    uint64 // producer completion (also Edge.SendAt when Valid)
	BankAt    uint64 // value arrived at the register bank
	BankIdeal uint64 // unloaded producer->bank hop latency
}

// SlotOut is a store/null-slot (or branch) completion record.
type SlotOut struct {
	Kind       SrcKind
	Src        int32
	ResolvedAt uint64
	Valid      bool
}

// OutKind identifies which output completed last (armed block
// completion) — the root of the backward walk.
type OutKind uint8

const (
	// OutNone means no output was recorded as last.
	OutNone OutKind = iota
	// OutWrite roots the walk at register write LastIdx.
	OutWrite
	// OutStore roots the walk at store/null slot LastIdx.
	OutStore
	// OutBranch roots the walk at the block's branch.
	OutBranch
)

// Block is the complete per-block attribution record.  Each of the
// simulator's IFBs keeps one across incarnations and recycles it via
// ResetBlock, which clears every array.  Insts holds one entry per live
// instruction, not per instruction ID: IDs pick cores, so a block's IDs
// span about four times as many slots as it has live instructions, and
// sized by what the block executes the clear is cheap enough to do on
// every fetch.
type Block struct {
	FetchStart  uint64
	ConstLat    uint64
	ICacheStall uint64
	BcastLat    uint64
	DispatchLat uint64
	CompleteAt  uint64
	CommitStart uint64
	RetiredAt   uint64

	Insts  []Inst
	Reads  []Read
	Writes []WriteOut
	Slots  []SlotOut
	Branch SlotOut

	LastOut OutKind
	LastIdx int32

	Result Breakdown // filled by Attribute at commit
}

// resetSlice returns s resized to n with every element zeroed, reusing
// capacity when possible.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ResetBlock recycles blk (allocating on first use) for a new block
// incarnation with the given record dimensions — nInsts is the block's
// live instruction count — and returns it with every field zeroed.
func ResetBlock(blk *Block, nInsts, nWrites, nReads, nSlots int) *Block {
	if blk == nil {
		blk = &Block{}
	}
	blk.FetchStart = 0
	blk.ConstLat = 0
	blk.ICacheStall = 0
	blk.BcastLat = 0
	blk.DispatchLat = 0
	blk.CompleteAt = 0
	blk.CommitStart = 0
	blk.RetiredAt = 0
	blk.Insts = resetSlice(blk.Insts, nInsts)
	blk.Reads = resetSlice(blk.Reads, nReads)
	blk.Writes = resetSlice(blk.Writes, nWrites)
	blk.Slots = resetSlice(blk.Slots, nSlots)
	blk.Branch = SlotOut{}
	blk.LastOut = OutNone
	blk.LastIdx = 0
	blk.Result = Breakdown{}
	return blk
}

// Attribute walks b's recorded dataflow graph backward from the output
// that completed last and returns the per-category breakdown.  The
// result always sums to exactly RetiredAt-FetchStart (zero when the
// record is inverted), independent of record quality: every charge is
// clamped to the still-uncovered interval and unexplained residue goes
// to FetchDispatch.
func Attribute(b *Block) Breakdown {
	var bd Breakdown
	if b.RetiredAt <= b.FetchStart {
		return bd
	}
	ceil := b.RetiredAt

	// Fetch pipeline components, front to back, clamped to the block
	// interval (a flush can retire a block before dispatch finished).
	cursor := b.FetchStart
	take := func(n uint64, c Category) {
		if cursor >= ceil {
			return
		}
		if n > ceil-cursor {
			n = ceil - cursor
		}
		bd[c] += n
		cursor += n
	}
	take(b.ConstLat, FetchDispatch)
	take(b.ICacheStall, CacheMiss)
	take(b.BcastLat, FetchDispatch)
	take(b.DispatchLat, FetchDispatch)
	floor := cursor

	// Commit interval: completion of the last output until dealloc.
	ce := b.CompleteAt
	if ce < floor {
		ce = floor
	}
	if ce > ceil {
		ce = ceil
	}
	bd[Commit] += ceil - ce

	// Backward walk over [floor, ce].  cur recedes monotonically;
	// charge covers [from, cur] with one category and is self-clamping,
	// so stale or zero timestamps can only misplace cycles between
	// categories, never double-count them.
	cur := ce
	charge := func(from uint64, c Category) {
		if from < floor {
			from = floor
		}
		if from < cur {
			bd[c] += cur - from
			cur = from
		}
	}

	// follow charges an operand edge's hop (ideal + contention) and
	// returns the producing instruction to continue at, or -1 when the
	// chain roots at a register read or runs out.
	follow := func(e *Edge) int32 {
		if !e.Valid {
			return -1
		}
		charge(e.SendAt+e.HopIdeal, NoCContention)
		charge(e.SendAt, NoCHop)
		switch e.Kind {
		case SrcInst:
			return e.Src
		case SrcRegRead:
			if int(e.Src) < len(b.Reads) {
				if rd := &b.Reads[e.Src]; rd.DispatchAt > 0 {
					charge(rd.DispatchAt, RegRW)
				}
			}
		}
		return -1
	}

	idx := int32(-1)
	switch b.LastOut {
	case OutWrite:
		if int(b.LastIdx) < len(b.Writes) {
			w := &b.Writes[b.LastIdx]
			if w.Null {
				if w.SendAt > 0 {
					charge(w.SendAt, Commit)
				}
			} else {
				// ce -> BankAt is the completion signal to the owner;
				// BankAt back to the producer is the operand-network
				// trip to the register bank.
				if w.BankAt > 0 {
					charge(w.BankAt, Commit)
				}
				if w.Edge.Valid && w.SendAt > 0 {
					charge(w.SendAt+w.BankIdeal, NoCContention)
					charge(w.SendAt, NoCHop)
				}
				idx = follow(&w.Edge)
			}
		}
	case OutStore:
		if int(b.LastIdx) < len(b.Slots) {
			s := &b.Slots[b.LastIdx]
			if s.Valid && s.ResolvedAt > 0 {
				charge(s.ResolvedAt, Commit)
			}
			if s.Kind == SrcInst {
				idx = s.Src
			}
		}
	case OutBranch:
		if br := &b.Branch; br.Valid {
			if br.ResolvedAt > 0 {
				charge(br.ResolvedAt, Commit)
			}
			if br.Kind == SrcInst {
				idx = br.Src
			}
		}
	}

	// Chain walk: each iteration consumes one instruction's stages and
	// steps to the producer of its last-arming operand.  The step
	// budget bounds the walk even on a (impossible by construction, but
	// cheap to guard) cyclic record.
	for steps := 4*len(b.Insts) + 8; steps > 0 && idx >= 0 && cur > floor; steps-- {
		if int(idx) >= len(b.Insts) {
			break
		}
		in := &b.Insts[idx]
		if !in.Issued {
			break // unrecorded producer
		}
		if in.IsMem {
			// Memory pipeline, back to front.  Loads enter with cur at
			// DataAt; stores enter at their slot resolution (SvcAt+1).
			if in.DataAt > 0 {
				charge(in.AccessDone, CacheMiss)
			}
			if in.SvcAt > 0 {
				charge(in.SvcAt, LSQWait)
			}
			if in.BankArrive > 0 {
				charge(in.BankArrive, LSQWait)
			}
			if in.AgenDone > 0 {
				charge(in.AgenDone+in.BankIdeal, NoCContention)
				charge(in.AgenDone, NoCHop)
			}
		}
		// Issue wait plus execution latency.
		charge(in.ReadyAt, ALUOccupancy)

		// Step to the producer of the operand that armed this
		// instruction last; none did when it waited on dispatch.
		if !in.Arm.Valid {
			break // dispatch-bound root
		}
		idx = follow(&in.Arm)
	}

	// Residue: recorded chain exhausted above the dispatch floor —
	// charge the remainder to the fetch/dispatch bucket.
	if cur > floor {
		bd[FetchDispatch] += cur - floor
	}
	return bd
}

// Summary aggregates breakdowns over many committed blocks.
type Summary struct {
	Blocks uint64    `json:"blocks"`
	Cycles uint64    `json:"cycles"`
	Cats   Breakdown `json:"-"`
}

// Add accumulates one committed block's breakdown.
func (s *Summary) Add(bd Breakdown) {
	s.Blocks++
	s.Cycles += bd.Total()
	s.Cats.Add(bd)
}

// Merge accumulates another summary.
func (s *Summary) Merge(o Summary) {
	s.Blocks += o.Blocks
	s.Cycles += o.Cycles
	s.Cats.Add(o.Cats)
}

// PerBlock returns the average attributed cycles per block for one
// category (0 with no blocks).
func (s Summary) PerBlock(c Category) float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.Cats[c]) / float64(s.Blocks)
}

// jsonSummary is the exported form: deterministic because category maps
// marshal in sorted key order.
type jsonSummary struct {
	Blocks     uint64             `json:"blocks"`
	Cycles     uint64             `json:"cycles"`
	Categories map[string]uint64  `json:"categories"`
	PerBlock   map[string]float64 `json:"per_block"`
}

// MarshalJSON exports the summary with per-category totals and
// per-block averages keyed by metric name.
func (s Summary) MarshalJSON() ([]byte, error) {
	js := jsonSummary{
		Blocks:     s.Blocks,
		Cycles:     s.Cycles,
		Categories: make(map[string]uint64, NumCategories),
		PerBlock:   make(map[string]float64, NumCategories),
	}
	for c := Category(0); c < NumCategories; c++ {
		js.Categories[c.String()] = s.Cats[c]
		js.PerBlock[c.String()] = s.PerBlock(c)
	}
	return json.Marshal(js)
}

// WriteJSON dumps the summary as one indented JSON document.
func (s Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// String renders a human-readable per-category table.
func (s Summary) String() string {
	var sb strings.Builder
	if s.Blocks == 0 {
		return "critpath: no committed blocks"
	}
	fmt.Fprintf(&sb, "%d blocks, %.1f cycles/block\n",
		s.Blocks, float64(s.Cycles)/float64(s.Blocks))
	for c := Category(0); c < NumCategories; c++ {
		pct := 0.0
		if s.Cycles > 0 {
			pct = 100 * float64(s.Cats[c]) / float64(s.Cycles)
		}
		fmt.Fprintf(&sb, "  %-14s %9.2f cycles/block  %5.1f%%\n",
			c.String(), s.PerBlock(c), pct)
	}
	return sb.String()
}

// Rolling is a mutex-protected summary safe for concurrent Add (from
// simulation goroutines) and Snapshot (from observability scrapes).
type Rolling struct {
	mu  sync.Mutex
	sum Summary
}

// Add accumulates one block's breakdown.
func (r *Rolling) Add(bd Breakdown) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sum.Add(bd)
	r.mu.Unlock()
}

// Snapshot returns a copy of the current aggregate.
func (r *Rolling) Snapshot() Summary {
	if r == nil {
		return Summary{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum
}

// WriteJSON dumps the current aggregate.
func (r *Rolling) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	return s.WriteJSON(w)
}
