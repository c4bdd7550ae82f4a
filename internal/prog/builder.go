package prog

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/clp-sim/tflex/internal/isa"
)

// Builder accumulates blocks and produces a laid-out Program.
type Builder struct {
	names  []string
	blocks map[string]*blockState
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{blocks: make(map[string]*blockState)}
}

// Block starts (or retrieves) the block with the given label and returns a
// builder for it.
func (b *Builder) Block(name string) *BlockBuilder {
	s, ok := b.blocks[name]
	if !ok {
		// Room for a small block's values saves append's first growths.
		s = &blockState{name: name, nodes: make([]node, 0, 8)}
		b.blocks[name] = s
		b.names = append(b.names, name)
	}
	return &BlockBuilder{s: s}
}

// Program seals every block, lays out the program and validates it.
func (b *Builder) Program(entry string) (*Program, error) {
	p := &Program{Entry: entry, Blocks: make([]*isa.Block, 0, len(b.names))}
	for _, name := range b.names {
		s := b.blocks[name]
		blk, err := s.seal()
		if err != nil {
			return nil, err
		}
		p.Blocks = append(p.Blocks, blk)
	}
	if err := p.layout(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustProgram is Program but panics on error; for tests and kernels whose
// construction is statically known to be valid.
func (b *Builder) MustProgram(entry string) *Program {
	p, err := b.Program(entry)
	if err != nil {
		panic(err)
	}
	return p
}

// Ref is an SSA-style reference to a value produced inside a block: a
// register read, an instruction result, or a select merge.
type Ref struct {
	s   *blockState
	idx int
	ok  bool
}

// Valid reports whether the Ref refers to a value.
func (r Ref) Valid() bool { return r.ok }

type nodeKind uint8

const (
	nodeInst nodeKind = iota
	nodeRead
	nodeMerge
)

// endpoint is a resolved consumer: instruction node index + operand slot,
// or a write slot.
type endpoint struct {
	kind isa.TargetKind
	node int // node index for L/R/P; write-slot index for W
}

type node struct {
	kind nodeKind

	// nodeRead
	reg uint8

	// nodeInst
	op        isa.Opcode
	imm       int64
	hasImm    bool
	a, b, p   Ref
	predKind  isa.PredKind
	lsid      int8
	nullLSID  int8
	memSize   uint8
	memSigned bool
	exit      uint8
	branchTo  string

	// nodeMerge
	mergeA, mergeB int // node indices of the two producers

	id        int // instruction ID after seal (insts only)
	uses      int // consumers before fan-out, counted by seal
	consumers []endpoint
}

// writeUse records a Write: node feeds write slot slot.
type writeUse struct{ node, slot int }

type blockState struct {
	name      string
	nodes     []node
	writes    []isa.WriteSlot
	writeUses []writeUse // in Write order
	nextLSID  int8
	nextExit  uint8
	err       error
}

func (s *blockState) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("block %s: %s", s.name, fmt.Sprintf(format, args...))
	}
}

func (s *blockState) add(n node) Ref {
	s.nodes = append(s.nodes, n)
	return Ref{s: s, idx: len(s.nodes) - 1, ok: true}
}

func (s *blockState) check(r Ref, what string) bool {
	if s.err != nil {
		return false
	}
	if !r.ok {
		s.fail("%s: invalid value reference", what)
		return false
	}
	if r.s != s {
		s.fail("%s: value reference from block %s", what, r.s.name)
		return false
	}
	return true
}

// BlockBuilder emits dataflow into one block.  The zero-guard builder emits
// unpredicated instructions; When/Unless return guarded builders.
type BlockBuilder struct {
	s         *blockState
	guard     Ref
	guardKind isa.PredKind
}

// Name returns the block's label.
func (bb *BlockBuilder) Name() string { return bb.s.name }

// Err returns the first construction error, if any.
func (bb *BlockBuilder) Err() error { return bb.s.err }

func (bb *BlockBuilder) apply(n *node) {
	if bb.guardKind != isa.PredNone {
		n.p = bb.guard
		n.predKind = bb.guardKind
	}
}

// When returns a builder whose emissions are predicated on p being true
// (non-zero).  p should be a 0/1 value (e.g. from a comparison).  Guards
// nest: a When inside a When combines predicates with AND.
func (bb *BlockBuilder) When(p Ref) *BlockBuilder {
	g := bb.guarded(p, isa.PredOnTrue)
	return &g
}

// Unless returns a builder predicated on p being false (zero).
func (bb *BlockBuilder) Unless(p Ref) *BlockBuilder {
	g := bb.guarded(p, isa.PredOnFalse)
	return &g
}

// guarded is When or Unless by value, for callers that keep the guarded
// builder only while they emit through it.
func (bb *BlockBuilder) guarded(p Ref, kind isa.PredKind) BlockBuilder {
	if !bb.s.check(p, "guard") {
		return BlockBuilder{s: bb.s}
	}
	if bb.guardKind == isa.PredNone {
		return BlockBuilder{s: bb.s, guard: p, guardKind: kind}
	}
	// Nested guard: combine with the enclosing one into a single 0/1 value.
	base := bb.s
	outer := bb.boolOfGuard()
	inner := p
	if kind == isa.PredOnFalse {
		root := &BlockBuilder{s: base}
		inner = root.OpI(isa.OpEq, p, 0)
	}
	root := &BlockBuilder{s: base}
	combined := root.Op(isa.OpAnd, outer, inner)
	return BlockBuilder{s: base, guard: combined, guardKind: isa.PredOnTrue}
}

// GuardValue materializes the builder's current guard as an unpredicated
// 0/1 value, so callers can emit complementary writes for the "else" side
// of a (possibly nested) guarded region.  Returns an invalid Ref if the
// builder is unguarded.
func (bb *BlockBuilder) GuardValue() Ref {
	if bb.guardKind == isa.PredNone {
		bb.s.fail("GuardValue on unguarded builder")
		return Ref{}
	}
	return bb.boolOfGuard()
}

// boolOfGuard materializes the current guard as an unpredicated 0/1 value.
func (bb *BlockBuilder) boolOfGuard() Ref {
	root := &BlockBuilder{s: bb.s}
	if bb.guardKind == isa.PredOnFalse {
		return root.OpI(isa.OpEq, bb.guard, 0)
	}
	return root.OpI(isa.OpNe, bb.guard, 0)
}

// Read injects architectural register reg into the dataflow graph.
// Repeated reads of the same register share one read slot.
func (bb *BlockBuilder) Read(reg int) Ref {
	s := bb.s
	if s.err != nil {
		return Ref{}
	}
	if reg < 0 || reg >= isa.NumRegs {
		s.fail("read of invalid register %d", reg)
		return Ref{}
	}
	for i := range s.nodes {
		if n := &s.nodes[i]; n.kind == nodeRead && int(n.reg) == reg {
			return Ref{s: s, idx: i, ok: true}
		}
	}
	return s.add(node{kind: nodeRead, reg: uint8(reg)})
}

// Write routes v to architectural register reg at block commit.  Multiple
// (complementarily predicated) producers may write the same register.
func (bb *BlockBuilder) Write(reg int, v Ref) {
	s := bb.s
	if !s.check(v, "write") {
		return
	}
	if reg < 0 || reg >= isa.NumRegs {
		s.fail("write of invalid register %d", reg)
		return
	}
	slot := slices.IndexFunc(s.writes, func(w isa.WriteSlot) bool { return int(w.Reg) == reg })
	if slot < 0 {
		slot = len(s.writes)
		s.writes = append(s.writes, isa.WriteSlot{Reg: uint8(reg)})
	}
	// Route through a mov so predication and fan-out stay uniform: a write
	// from a guarded region must be a guarded producer.
	if bb.guardKind != isa.PredNone || s.nodes[v.idx].kind == nodeMerge {
		n := node{kind: nodeInst, op: isa.OpMov, a: v, nullLSID: -1}
		bb.apply(&n)
		v = s.add(n)
	}
	s.writeUses = append(s.writeUses, writeUse{v.idx, slot})
}

// Const produces a signed 64-bit constant.
func (bb *BlockBuilder) Const(v int64) Ref {
	if bb.s.err != nil {
		return Ref{}
	}
	n := node{kind: nodeInst, op: isa.OpGenC, imm: v, nullLSID: -1}
	bb.apply(&n)
	return bb.s.add(n)
}

// ConstU produces an unsigned 64-bit constant.
func (bb *BlockBuilder) ConstU(v uint64) Ref { return bb.Const(int64(v)) }

// ConstF produces a float64 constant (as its bit pattern).
func (bb *BlockBuilder) ConstF(v float64) Ref { return bb.Const(int64(math.Float64bits(v))) }

// LabelAddr produces the address of a labeled block as a constant; the
// value is resolved at layout time.  Used to materialize return addresses.
func (bb *BlockBuilder) LabelAddr(label string) Ref {
	if bb.s.err != nil {
		return Ref{}
	}
	n := node{kind: nodeInst, op: isa.OpGenC, branchTo: label, nullLSID: -1}
	bb.apply(&n)
	return bb.s.add(n)
}

// Op emits a two-operand instruction.
func (bb *BlockBuilder) Op(op isa.Opcode, a, b Ref) Ref {
	s := bb.s
	if op.NumOperands() != 2 || op.IsMem() {
		s.fail("Op(%s): not a two-operand ALU opcode", op)
		return Ref{}
	}
	if !s.check(a, op.String()) || !s.check(b, op.String()) {
		return Ref{}
	}
	n := node{kind: nodeInst, op: op, a: a, b: b, nullLSID: -1}
	bb.apply(&n)
	return s.add(n)
}

// OpI emits a two-operand instruction with an immediate right operand.
func (bb *BlockBuilder) OpI(op isa.Opcode, a Ref, imm int64) Ref {
	s := bb.s
	if op.NumOperands() != 2 || op.IsMem() || op.IsFP() {
		s.fail("OpI(%s): not an immediate-capable opcode", op)
		return Ref{}
	}
	if !s.check(a, op.String()) {
		return Ref{}
	}
	n := node{kind: nodeInst, op: op, a: a, imm: imm, hasImm: true, nullLSID: -1}
	bb.apply(&n)
	return s.add(n)
}

// Op1 emits a one-operand instruction (mov, fsqrt, itof, ftoi).
func (bb *BlockBuilder) Op1(op isa.Opcode, a Ref) Ref {
	s := bb.s
	if op.NumOperands() != 1 || op.IsMem() || op.IsBranch() {
		s.fail("Op1(%s): not a one-operand opcode", op)
		return Ref{}
	}
	if !s.check(a, op.String()) {
		return Ref{}
	}
	n := node{kind: nodeInst, op: op, a: a, nullLSID: -1}
	bb.apply(&n)
	return s.add(n)
}

// Convenience arithmetic wrappers.
func (bb *BlockBuilder) Add(a, b Ref) Ref        { return bb.Op(isa.OpAdd, a, b) }
func (bb *BlockBuilder) AddI(a Ref, v int64) Ref { return bb.OpI(isa.OpAdd, a, v) }
func (bb *BlockBuilder) Sub(a, b Ref) Ref        { return bb.Op(isa.OpSub, a, b) }
func (bb *BlockBuilder) Mul(a, b Ref) Ref        { return bb.Op(isa.OpMul, a, b) }
func (bb *BlockBuilder) MulI(a Ref, v int64) Ref { return bb.OpI(isa.OpMul, a, v) }
func (bb *BlockBuilder) ShlI(a Ref, v int64) Ref { return bb.OpI(isa.OpShl, a, v) }
func (bb *BlockBuilder) ShrI(a Ref, v int64) Ref { return bb.OpI(isa.OpShr, a, v) }
func (bb *BlockBuilder) AndI(a Ref, v int64) Ref { return bb.OpI(isa.OpAnd, a, v) }
func (bb *BlockBuilder) Mov(a Ref) Ref           { return bb.Op1(isa.OpMov, a) }

// Load emits a load of size bytes from addr+off.
func (bb *BlockBuilder) Load(addr Ref, off int64, size int, signed bool) Ref {
	s := bb.s
	if !s.check(addr, "load") {
		return Ref{}
	}
	lsid := s.allocLSID()
	n := node{kind: nodeInst, op: isa.OpLoad, a: addr, imm: off, hasImm: true,
		lsid: lsid, nullLSID: -1, memSize: uint8(size), memSigned: signed}
	bb.apply(&n)
	return s.add(n)
}

// Store emits a store of size bytes of val to addr+off.
func (bb *BlockBuilder) Store(addr, val Ref, off int64, size int) {
	s := bb.s
	if !s.check(addr, "store addr") || !s.check(val, "store value") {
		return
	}
	lsid := s.allocLSID()
	if bb.guardKind != isa.PredNone {
		// A guarded store must retire its LSID on the other arm too.
		n := node{kind: nodeInst, op: isa.OpStore, a: addr, b: val, imm: off, hasImm: true,
			lsid: lsid, nullLSID: -1, memSize: uint8(size)}
		bb.apply(&n)
		s.add(n)
		null := node{kind: nodeInst, op: isa.OpNull, lsid: lsid, nullLSID: lsid,
			p: bb.guard, predKind: complement(bb.guardKind)}
		s.add(null)
		return
	}
	n := node{kind: nodeInst, op: isa.OpStore, a: addr, b: val, imm: off, hasImm: true,
		lsid: lsid, nullLSID: -1, memSize: uint8(size)}
	s.add(n)
}

func complement(k isa.PredKind) isa.PredKind {
	if k == isa.PredOnTrue {
		return isa.PredOnFalse
	}
	return isa.PredOnTrue
}

func (s *blockState) allocLSID() int8 {
	id := s.nextLSID
	s.nextLSID++
	if int(s.nextLSID) > isa.MaxMemOps {
		s.fail("more than %d memory operations", isa.MaxMemOps)
	}
	return id
}

// Select returns v = p ? a : b via complementary predicated movs.
func (bb *BlockBuilder) Select(p, a, b Ref) Ref {
	s := bb.s
	if !s.check(p, "select pred") || !s.check(a, "select a") || !s.check(b, "select b") {
		return Ref{}
	}
	t := bb.guarded(p, isa.PredOnTrue)
	f := bb.guarded(p, isa.PredOnFalse)
	ra := t.Mov(a)
	rb := f.Mov(b)
	if s.err != nil {
		return Ref{}
	}
	return s.add(node{kind: nodeMerge, mergeA: ra.idx, mergeB: rb.idx, nullLSID: -1})
}

// Branch emits an unconditional branch to label.
func (bb *BlockBuilder) Branch(label string) { bb.branch(isa.OpBro, label, Ref{}) }

// Call emits a call branch to label; the predictor pushes the next
// sequential block on the RAS.  The architectural return address must be
// passed by the program (see LabelAddr).
func (bb *BlockBuilder) Call(label string) { bb.branch(isa.OpCallo, label, Ref{}) }

// Ret emits a return branch whose target address is the operand value.
func (bb *BlockBuilder) Ret(addr Ref) { bb.branch(isa.OpRet, "", addr) }

// Halt terminates the program.
func (bb *BlockBuilder) Halt() { bb.branch(isa.OpHalt, "", Ref{}) }

func (bb *BlockBuilder) branch(op isa.Opcode, label string, addr Ref) {
	s := bb.s
	if s.err != nil {
		return
	}
	if op == isa.OpRet && !s.check(addr, "ret") {
		return
	}
	exit := s.nextExit
	s.nextExit++
	if s.nextExit > isa.NumExits {
		s.fail("more than %d exits", isa.NumExits)
		return
	}
	n := node{kind: nodeInst, op: op, branchTo: label, exit: exit, nullLSID: -1}
	if op == isa.OpRet {
		n.a = addr
	}
	bb.apply(&n)
	s.add(n)
}

// BranchIf emits a conditional pair: branch to thenLabel if p, else to
// elseLabel.  Exactly one of the two branches fires.
func (bb *BlockBuilder) BranchIf(p Ref, thenLabel, elseLabel string) {
	t := bb.guarded(p, isa.PredOnTrue)
	t.Branch(thenLabel)
	f := bb.guarded(p, isa.PredOnFalse)
	f.Branch(elseLabel)
}

// placeInsts assigns instruction IDs so that dependence chains share a
// congruence class modulo 32 — the role of the TRIPS instruction
// scheduler.  Since targets are interpreted as (id mod n) for an n-core
// composition and all supported n divide 32, instructions placed in the
// same class execute on the same core under every composition: dependent
// operations bypass locally instead of hopping the mesh.  Programs are
// thus "scheduled for 32 cores" and run well on fewer, as in the paper.
func (s *blockState) placeInsts() {
	const classes = 32
	slotCap := isa.MaxBlockInsts / classes
	var load [classes]int
	// classOf[i] is node i's class once placed, else -1; a valid block's
	// nodes fit the buffer.
	var buf [4 * isa.MaxBlockInsts]int8
	classOf := buf[:0]
	if len(s.nodes) > len(buf) {
		classOf = make([]int8, 0, len(s.nodes))
	}
	classOf = classOf[:len(s.nodes)]
	for i := range classOf {
		classOf[i] = -1
	}
	producerClass := func(r Ref) int {
		if !r.ok {
			return -1
		}
		idx := r.idx
		for s.nodes[idx].kind == nodeMerge {
			idx = s.nodes[idx].mergeA
		}
		switch s.nodes[idx].kind {
		case nodeInst:
			return int(classOf[idx])
		case nodeRead:
			return int(s.nodes[idx].reg) % classes
		}
		return -1
	}
	leastLoaded := func() int {
		c := 0
		for i := 1; i < classes; i++ {
			if load[i] < load[c] {
				c = i
			}
		}
		return c
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		if n.kind != nodeInst {
			continue
		}
		want := producerClass(n.a)
		if want < 0 {
			want = producerClass(n.b)
		}
		if want < 0 {
			want = producerClass(n.p)
		}
		if want < 0 && n.op == isa.OpMov && len(n.consumers) > 0 {
			// Fan-out mov with no recorded producer ref: sit near its
			// first consumer.
			ep := n.consumers[0]
			if ep.kind == isa.TargetWrite {
				want = int(s.writes[ep.node].Reg) % classes
			} else if classOf[ep.node] >= 0 {
				want = int(classOf[ep.node])
			}
		}
		cls := want
		if cls < 0 || load[cls] >= slotCap {
			cls = leastLoaded()
		}
		n.id = cls + classes*load[cls]
		classOf[i] = int8(cls)
		load[cls]++
	}
}

// seal resolves merges, builds fan-out trees, assigns instruction IDs and
// emits the final isa.Block.
func (s *blockState) seal() (*isa.Block, error) {
	if s.err != nil {
		return nil, s.err
	}
	// Every producer's consumers are its writes in Write order, then the
	// operands naming it (through merge chains) in node order.  Count
	// them, and the lists the fan-out trees below build, and carve every
	// list from one slice.
	total := len(s.writeUses)
	for _, w := range s.writeUses {
		s.nodes[w.node].uses++
	}
	for i := range s.nodes {
		if n := &s.nodes[i]; n.kind == nodeInst {
			total += s.countUses(n.a) + s.countUses(n.b) + s.countUses(n.p)
		}
	}
	fanOut := 0
	for i := range s.nodes {
		for l := s.nodes[i].uses; l > isa.MaxTargets; l = (l + 1) / 2 {
			fanOut += (l + 1) / 2
		}
	}
	eps := make([]endpoint, total+fanOut)
	for i := range s.nodes {
		n := &s.nodes[i]
		n.consumers, eps = eps[:0:n.uses], eps[n.uses:]
	}
	for _, w := range s.writeUses {
		n := &s.nodes[w.node]
		n.consumers = append(n.consumers, endpoint{isa.TargetWrite, w.slot})
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		if n.kind != nodeInst {
			continue
		}
		if n.a.ok {
			s.resolve(n.a.idx, endpoint{isa.TargetLeft, i})
		}
		if n.b.ok {
			s.resolve(n.b.idx, endpoint{isa.TargetRight, i})
		}
		if n.p.ok {
			s.resolve(n.p.idx, endpoint{isa.TargetPred, i})
		}
	}
	// Fan-out: while a producer has more than MaxTargets consumers, pair
	// endpoints under fresh movs (balanced reduction).  A mov's two
	// consumers are a pair of its producer's old list.
	nInsts := 0
	for i := range s.nodes {
		if s.nodes[i].kind == nodeInst {
			nInsts++
		}
	}
	for i := 0; i < len(s.nodes); i++ {
		n := &s.nodes[i]
		if n.kind == nodeMerge {
			continue
		}
		for len(n.consumers) > isa.MaxTargets {
			old := n.consumers
			k := (len(old) + 1) / 2
			next := eps[:0:k]
			eps = eps[k:]
			for len(old) >= 2 {
				mov := node{kind: nodeInst, op: isa.OpMov, nullLSID: -1, consumers: old[:2:2]}
				nInsts++
				s.nodes = append(s.nodes, mov)
				n = &s.nodes[i] // s.nodes may have been reallocated
				next = append(next, endpoint{isa.TargetLeft, len(s.nodes) - 1})
				old = old[2:]
			}
			n.consumers = append(next, old...)
		}
	}
	if nInsts > isa.MaxBlockInsts {
		return nil, fmt.Errorf("block %s: %d instructions after fan-out exceeds %d", s.name, nInsts, isa.MaxBlockInsts)
	}
	s.placeInsts()
	// Operand endpoints and the fan-out movs' endpoints both name nodes by
	// index, so translation to instruction IDs is uniform.  Every read's
	// and instruction's targets are carved from one slice, each capped at
	// its own length.
	nTargets, nReads := 0, 0
	for i := range s.nodes {
		n := &s.nodes[i]
		if n.kind == nodeMerge {
			continue
		}
		if len(n.consumers) > isa.MaxTargets {
			return nil, fmt.Errorf("block %s: internal: %d targets after fan-out", s.name, len(n.consumers))
		}
		nTargets += len(n.consumers)
		if n.kind == nodeRead {
			nReads++
		}
	}
	all := make([]isa.Target, nTargets)
	targetsOf := func(n *node) []isa.Target {
		if len(n.consumers) == 0 {
			return nil
		}
		ts := all[:len(n.consumers):len(n.consumers)]
		all = all[len(n.consumers):]
		for j, ep := range n.consumers {
			idx := ep.node // a write slot for TargetWrite
			if ep.kind != isa.TargetWrite {
				idx = s.nodes[ep.node].id
			}
			ts[j] = isa.Target{Kind: ep.kind, Index: uint8(idx)}
		}
		return ts
	}

	blk := &isa.Block{Name: s.name, Writes: s.writes}
	if nReads > 0 {
		blk.Reads = make([]isa.ReadSlot, 0, nReads)
	}
	maxID := 0
	for i := range s.nodes {
		if s.nodes[i].kind == nodeInst && s.nodes[i].id > maxID {
			maxID = s.nodes[i].id
		}
	}
	// Slots the placement left unused stay as nops (TRIPS blocks are
	// fixed-format 128-slot chunks; unused slots are never dispatched).
	blk.Insts = make([]isa.Inst, maxID+1)
	var storeMask uint32 // bit l: LSID l is a store slot
	for i := range s.nodes {
		n := &s.nodes[i]
		switch n.kind {
		case nodeRead:
			blk.Reads = append(blk.Reads, isa.ReadSlot{Reg: n.reg, Targets: targetsOf(n)})
		case nodeInst:
			blk.Insts[n.id] = isa.Inst{
				Op: n.op, Pred: n.predKind, Imm: n.imm, HasImm: n.hasImm,
				Targets: targetsOf(n), LSID: n.lsid, NullLSID: n.nullLSID,
				MemSize: n.memSize, MemSigned: n.memSigned,
				Exit: n.exit, BranchTo: n.branchTo,
			}
			if n.op == isa.OpStore || (n.op == isa.OpNull && n.nullLSID >= 0) {
				storeMask |= 1 << uint(n.lsid)
			}
		}
	}
	blk.NumStores = bits.OnesCount32(storeMask)
	if len(blk.Reads) > isa.MaxReads {
		return nil, fmt.Errorf("block %s: %d reads exceeds %d", s.name, len(blk.Reads), isa.MaxReads)
	}
	return blk, nil
}

// countUses counts a use of r on each producer it stands for, following
// merge chains as resolve does, and returns how many it counted.
func (s *blockState) countUses(r Ref) int {
	if !r.ok {
		return 0
	}
	idx, n := r.idx, 0
	for s.nodes[idx].kind == nodeMerge {
		n += s.countUses(Ref{idx: s.nodes[idx].mergeA, ok: true})
		idx = s.nodes[idx].mergeB
	}
	s.nodes[idx].uses++
	return n + 1
}

// resolve adds ep to the consumers of the producer node idx, following
// merge chains: both arms of a merge gain the endpoint, the first arm's
// producers first.
func (s *blockState) resolve(idx int, ep endpoint) {
	for s.nodes[idx].kind == nodeMerge {
		s.resolve(s.nodes[idx].mergeA, ep)
		idx = s.nodes[idx].mergeB
	}
	s.nodes[idx].consumers = append(s.nodes[idx].consumers, ep)
}
