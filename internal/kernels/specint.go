package kernels

import (
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// Eight SPEC-CPU-integer-style kernels.  These are built "compiler style":
// small basic-block-shaped blocks, frequent data-dependent branches,
// pointer chasing and hash probing — the low-ILP half of the paper's
// suite, where block overheads and mispredictions dominate.

func init() {
	register(Kernel{Name: "bzip2", Suite: "specint", HighILP: false, Build: buildBzip2})
	register(Kernel{Name: "crafty", Suite: "specint", HighILP: false, Build: buildCrafty})
	register(Kernel{Name: "gcc", Suite: "specint", HighILP: false, Build: buildGcc})
	register(Kernel{Name: "gzip", Suite: "specint", HighILP: false, Build: buildGzip})
	register(Kernel{Name: "mcf", Suite: "specint", HighILP: false, Build: buildMcf})
	register(Kernel{Name: "parser", Suite: "specint", HighILP: false, Build: buildParser})
	register(Kernel{Name: "twolf", Suite: "specint", HighILP: false, Build: buildTwolf})
	register(Kernel{Name: "vortex", Suite: "specint", HighILP: false, Build: buildVortex})
}

// bzip2: the move-to-front transform — a data-dependent scan loop followed
// by a data-dependent shift loop per symbol.
func buildBzip2(scale int) (*Instance, error) {
	n := 24 * scale
	const listSize = 16
	const inBase = 0x20_0000
	const listBase = 0x21_0000

	b := prog.NewBuilder()
	outer := b.Block("bz_outer")
	i := outer.Read(2)
	inb := outer.Read(1)
	sym := outer.Load(outer.Add(inb, outer.ShlI(i, 3)), 0, 8, false)
	outer.Write(6, sym)
	outer.Write(5, outer.Const(0))
	outer.Branch("bz_scan")

	scan := b.Block("bz_scan")
	j := scan.Read(5)
	lb := scan.Read(3)
	v := scan.Load(scan.Add(lb, scan.ShlI(j, 3)), 0, 8, false)
	scan.Write(5, scan.AddI(j, 1))
	scan.BranchIf(scan.Op(isa.OpEq, v, scan.Read(6)), "bz_hit", "bz_scan")

	hit := b.Block("bz_hit")
	pos := hit.AddI(hit.Read(5), -1)
	hit.Write(7, hit.Add(hit.Read(7), pos)) // MTF output accumulator
	hit.Write(5, pos)                       // shift cursor
	hit.BranchIf(hit.Op(isa.OpLt, hit.Const(0), pos), "bz_shift", "bz_store0")

	shift := b.Block("bz_shift")
	ts := shift.Read(5)
	lbs := shift.Read(3)
	prev := shift.Load(shift.Add(lbs, shift.ShlI(ts, 3)), -8, 8, false)
	shift.Store(shift.Add(lbs, shift.ShlI(ts, 3)), prev, 0, 8)
	ts2 := shift.AddI(ts, -1)
	shift.Write(5, ts2)
	shift.BranchIf(shift.OpI(isa.OpLt, ts2, 1), "bz_store0", "bz_shift")

	store0 := b.Block("bz_store0")
	store0.Store(store0.Read(3), store0.Read(6), 0, 8)
	loopCtlI(store0, 2, 1, int64(n), "bz_outer", exitLabel)
	haltBlock(b)
	p, err := b.Program("bz_outer")
	if err != nil {
		return nil, err
	}

	in := make([]uint64, n)
	r := lcg(4)
	for i := range in {
		in[i] = r.intn(listSize)
	}
	list := make([]uint64, listSize)
	for i := range list {
		list[i] = uint64(i)
	}
	listRef := append([]uint64(nil), list...)
	var mtfAcc uint64
	for _, sym := range in {
		j := 0
		for listRef[j] != sym {
			j++
		}
		mtfAcc += uint64(j)
		copy(listRef[1:j+1], listRef[:j])
		listRef[0] = sym
	}

	return &Instance{Prog: p, name: "bzip2", image: []cell{
		reg(1, inBase), reg(3, listBase),
		mem64(inBase, in), mem64(listBase, list),
		reg(7, mtfAcc).expect(), mem64(listBase, listRef).expect(),
	}}, nil
}

// crafty: bitboard population counts via the Kernighan loop — a
// data-dependent branch per cleared bit.
func buildCrafty(scale int) (*Instance, error) {
	n := 48 * scale
	const boardBase = 0x20_0000

	b := prog.NewBuilder()
	outer := b.Block("cr_outer")
	i := outer.Read(2)
	bbase := outer.Read(1)
	board := outer.Load(outer.Add(bbase, outer.ShlI(i, 3)), 0, 8, false)
	outer.Write(5, board)
	outer.BranchIf(outer.OpI(isa.OpNe, board, 0), "cr_inner", "cr_next")

	inner := b.Block("cr_inner")
	x := inner.Read(5)
	x2 := inner.Op(isa.OpAnd, x, inner.AddI(x, -1))
	inner.Write(5, x2)
	inner.Write(7, inner.AddI(inner.Read(7), 1))
	inner.BranchIf(inner.OpI(isa.OpNe, x2, 0), "cr_inner", "cr_next")

	next := b.Block("cr_next")
	loopCtlI(next, 2, 1, int64(n), "cr_outer", exitLabel)
	haltBlock(b)
	p, err := b.Program("cr_outer")
	if err != nil {
		return nil, err
	}

	boards := make([]uint64, n)
	r := lcg(64)
	for i := range boards {
		boards[i] = r.next() & r.next() // sparse-ish boards
	}
	var popAcc uint64
	for _, bd := range boards {
		for x := bd; x != 0; x &= x - 1 {
			popAcc++
		}
	}

	return &Instance{Prog: p, name: "crafty", image: []cell{
		reg(1, boardBase),
		mem64(boardBase, boards),
		reg(7, popAcc).expect(),
	}}, nil
}

// gcc: a control-flow-graph walk with a three-way kind dispatch per node
// and kind-dependent successor selection.
func buildGcc(scale int) (*Instance, error) {
	steps := 96 * scale
	const nodes = 64
	const nodeBase = 0x20_0000 // node: kind, val, next0, next1 (32 bytes)

	b := prog.NewBuilder()
	node := b.Block("gc_node")
	cur := node.Read(5)
	nb := node.Read(1)
	addr := node.Add(nb, node.ShlI(cur, 5))
	kind := node.Load(addr, 0, 8, false)
	node.Write(6, node.Load(addr, 8, 8, false))  // val
	node.Write(8, node.Load(addr, 16, 8, false)) // next0
	node.Write(9, node.Load(addr, 24, 8, false)) // next1
	node.BranchIf(node.OpI(isa.OpEq, kind, 0), "gc_k0", "gc_k12")

	k12 := b.Block("gc_k12")
	nb12 := k12.Read(1)
	kind2 := k12.Load(k12.Add(nb12, k12.ShlI(k12.Read(5), 5)), 0, 8, false)
	k12.BranchIf(k12.OpI(isa.OpEq, kind2, 1), "gc_k1", "gc_k2")

	k0 := b.Block("gc_k0")
	k0.Write(7, k0.Op(isa.OpXor, k0.Read(7), k0.Read(6)))
	k0.Write(5, k0.Read(8))
	loopCtlI(k0, 2, 1, int64(steps), "gc_node", exitLabel)

	k1 := b.Block("gc_k1")
	k1.Write(7, k1.Add(k1.Read(7), k1.MulI(k1.Read(6), 3)))
	k1.Write(5, k1.Read(9))
	loopCtlI(k1, 2, 1, int64(steps), "gc_node", exitLabel)

	k2 := b.Block("gc_k2")
	k2.Write(7, k2.Sub(k2.Read(7), k2.Read(6)))
	k2.Write(5, k2.Read(8))
	loopCtlI(k2, 2, 1, int64(steps), "gc_node", exitLabel)
	haltBlock(b)
	p, err := b.Program("gc_node")
	if err != nil {
		return nil, err
	}

	// Node i is the four words kind, val, next0, next1 at g[4*i:].
	g := make([]uint64, 4*nodes)
	r := lcg(1618)
	for i := 0; i < len(g); i += 4 {
		g[i], g[i+1], g[i+2], g[i+3] = r.intn(3), r.intn(1000), r.intn(nodes), r.intn(nodes)
	}
	var acc uint64
	curRef := uint64(0)
	for s := 0; s < steps; s++ {
		nd := g[4*curRef:]
		switch nd[0] {
		case 0:
			acc ^= nd[1]
			curRef = nd[2]
		case 1:
			acc += nd[1] * 3
			curRef = nd[3]
		default:
			acc -= nd[1]
			curRef = nd[2]
		}
	}

	return &Instance{Prog: p, name: "gcc", image: []cell{
		reg(1, nodeBase),
		mem64(nodeBase, g),
		reg(7, acc).expect(),
	}}, nil
}

// gzip: LZ77-style hash-chain matching — hash three bytes, probe the head
// table, compare candidate bytes with an early-exit loop.
func buildGzip(scale int) (*Instance, error) {
	n := 48 * scale
	dataLen := n
	const dataBase = 0x20_0000
	const headBase = 0x21_0000 // 64 buckets

	b := prog.NewBuilder()
	outer := b.Block("gz_outer")
	i := outer.Read(2)
	db := outer.Read(1)
	hb := outer.Read(3)
	c0 := outer.Load(outer.Add(db, i), 0, 1, false)
	c1 := outer.Load(outer.Add(db, i), 1, 1, false)
	c2 := outer.Load(outer.Add(db, i), 2, 1, false)
	h := outer.AndI(outer.Add(outer.MulI(outer.Add(outer.MulI(c0, 33), c1), 33), c2), 63)
	hAddr := outer.Add(hb, outer.ShlI(h, 3))
	cand := outer.Load(hAddr, 0, 8, false)
	outer.Store(hAddr, i, 0, 8)
	outer.Write(6, cand)
	outer.Write(5, outer.Const(0)) // match length
	outer.Branch("gz_cmp")

	cmp := b.Block("gz_cmp")
	t := cmp.Read(5)
	dbc := cmp.Read(1)
	a := cmp.Load(cmp.Add(cmp.Add(dbc, cmp.Read(2)), t), 0, 1, false)
	c := cmp.Load(cmp.Add(cmp.Add(dbc, cmp.Read(6)), t), 0, 1, false)
	eq := cmp.Op(isa.OpEq, a, c)
	t2 := cmp.AddI(t, 1)
	cmp.Write(5, cmp.Select(eq, t2, t))
	more := cmp.Op(isa.OpAnd, eq, cmp.OpI(isa.OpLt, t2, 4))
	cmp.BranchIf(more, "gz_cmp", "gz_done")

	done := b.Block("gz_done")
	done.Write(7, done.Add(done.Read(7), done.Read(5)))
	loopCtlI(done, 2, 1, int64(n), "gz_outer", exitLabel)
	haltBlock(b)
	p, err := b.Program("gz_outer")
	if err != nil {
		return nil, err
	}

	data := make([]byte, dataLen+8)
	r := lcg(929)
	for i := range data {
		data[i] = byte(r.intn(4)) // small alphabet: matches happen
	}
	head := make([]uint64, 64) // the bucket heads start empty
	var headRef [64]uint64
	var acc uint64
	for i := 0; i < n; i++ {
		h := ((uint64(data[i])*33+uint64(data[i+1]))*33 + uint64(data[i+2])) & 63
		cand := headRef[h]
		headRef[h] = uint64(i)
		mlen := uint64(0)
		for t := uint64(0); t < 4; t++ {
			if data[uint64(i)+t] != data[cand+t] {
				break
			}
			mlen = t + 1
		}
		acc += mlen
	}

	return &Instance{Prog: p, name: "gzip", image: []cell{
		reg(1, dataBase), reg(3, headBase),
		mem8(dataBase, data), mem64(headBase, head),
		reg(7, acc).expect(),
	}}, nil
}

// mcf: the memory-bound pointer chase — a ring of nodes with a large
// stride so every access leaves the L1.
func buildMcf(scale int) (*Instance, error) {
	steps := 384 * scale
	const nodes = 2048
	const stride = 2048
	const ringBase = 0x40_0000

	b := prog.NewBuilder()
	bb := b.Block("mc_loop")
	cur := bb.Read(5)
	next := bb.Load(cur, 0, 8, false)
	cost := bb.Load(cur, 8, 8, false)
	bb.Write(5, next)
	bb.Write(7, bb.Add(bb.Read(7), cost))
	loopCtlI(bb, 2, 1, int64(steps), "mc_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("mc_loop")
	if err != nil {
		return nil, err
	}

	// Node i, stride bytes after node i-1, holds its successor's address
	// and its cost.
	succ := make([]uint64, nodes)
	for i := range succ {
		succ[i] = ringBase + uint64((i*1237+1)%nodes)*stride // fixed-point-free-ish ring
	}
	costs := make([]uint64, nodes)
	r := lcg(3133)
	for i := range costs {
		costs[i] = r.intn(97)
	}
	var acc uint64
	curRef := uint64(ringBase)
	for s := 0; s < steps; s++ {
		i := (curRef - ringBase) / stride
		acc += costs[i]
		curRef = succ[i]
	}

	return &Instance{Prog: p, name: "mcf", image: []cell{
		reg(5, ringBase),
		mem64(ringBase, succ).every(stride), mem64(ringBase+8, costs).every(stride),
		reg(7, acc).expect(),
	}}, nil
}

// parser: a byte-stream tokenizer with a two-state machine and per-class
// branches.
func buildParser(scale int) (*Instance, error) {
	n := 128 * scale
	const textBase = 0x20_0000

	b := prog.NewBuilder()
	bb := b.Block("pa_loop")
	i := bb.Read(2)
	tb := bb.Read(1)
	c := bb.Load(bb.Add(tb, i), 0, 1, false)
	ge := bb.Op(isa.OpLeU, bb.Const('a'), c)
	le := bb.Op(isa.OpLeU, c, bb.Const('z'))
	isAlpha := bb.Op(isa.OpAnd, ge, le)
	bb.Write(6, isAlpha)
	bb.BranchIf(isAlpha, "pa_alpha", "pa_other")

	alpha := b.Block("pa_alpha")
	inTok := alpha.Read(5)
	started := alpha.OpI(isa.OpEq, inTok, 0)
	alpha.Write(7, alpha.Add(alpha.Read(7), started)) // token count
	alpha.Write(5, alpha.Const(1))
	loopCtlI(alpha, 2, 1, int64(n), "pa_loop", exitLabel)

	other := b.Block("pa_other")
	other.Write(5, other.Const(0))
	other.Write(8, other.AddI(other.Read(8), 1)) // separator count
	loopCtlI(other, 2, 1, int64(n), "pa_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("pa_loop")
	if err != nil {
		return nil, err
	}

	text := make([]byte, n)
	r := lcg(2718)
	for i := range text {
		if r.intn(4) == 0 {
			text[i] = ' '
		} else {
			text[i] = byte('a' + r.intn(26))
		}
	}
	var tokens, seps uint64
	inTokRef := false
	for _, c := range text {
		if c >= 'a' && c <= 'z' {
			if !inTokRef {
				tokens++
			}
			inTokRef = true
		} else {
			inTokRef = false
			seps++
		}
	}

	return &Instance{Prog: p, name: "parser", image: []cell{
		reg(1, textBase),
		mem8(textBase, text),
		reg(7, tokens).expect(), reg(8, seps).expect(),
	}}, nil
}

// twolf: placement cost evaluation — random cell pairs, Manhattan
// distances via selects, best-cost tracking.
func buildTwolf(scale int) (*Instance, error) {
	iters := 64 * scale
	const cells = 128
	const xyBase = 0x20_0000 // x[i], y[i] interleaved (16 bytes per cell)

	const lcgMul = 6364136223846793005
	const lcgAdd = 1442695040888963407

	b := prog.NewBuilder()
	bb := b.Block("tw_loop")
	seed := bb.Read(5)
	xyb := bb.Read(1)
	s1 := bb.AddI(bb.MulI(seed, lcgMul), lcgAdd)
	aIdx := bb.AndI(bb.ShrI(s1, 17), cells-1)
	s2 := bb.AddI(bb.MulI(s1, lcgMul), lcgAdd)
	bIdx := bb.AndI(bb.ShrI(s2, 17), cells-1)
	bb.Write(5, s2)
	aAddr := bb.Add(xyb, bb.ShlI(aIdx, 4))
	bAddr := bb.Add(xyb, bb.ShlI(bIdx, 4))
	xa := bb.Load(aAddr, 0, 8, false)
	ya := bb.Load(aAddr, 8, 8, false)
	xb := bb.Load(bAddr, 0, 8, false)
	yb := bb.Load(bAddr, 8, 8, false)
	dx1 := bb.Sub(xa, xb)
	dx2 := bb.Sub(xb, xa)
	dxPos := bb.Op(isa.OpLt, dx1, bb.Const(0))
	dx := bb.Select(dxPos, dx2, dx1)
	dy1 := bb.Sub(ya, yb)
	dy2 := bb.Sub(yb, ya)
	dyPos := bb.Op(isa.OpLt, dy1, bb.Const(0))
	dy := bb.Select(dyPos, dy2, dy1)
	cost := bb.Add(dx, dy)
	bb.Write(7, bb.Add(bb.Read(7), cost))
	best := bb.Read(8)
	better := bb.Op(isa.OpLtU, cost, best)
	bb.Write(8, bb.Select(better, cost, best))
	loopCtlI(bb, 2, 1, int64(iters), "tw_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("tw_loop")
	if err != nil {
		return nil, err
	}

	xs := make([]uint64, cells)
	ys := make([]uint64, cells)
	r := lcg(1112)
	for i := range xs {
		xs[i] = r.intn(1024)
		ys[i] = r.intn(1024)
	}
	var acc uint64
	bestRef := ^uint64(0)
	s := uint64(7)
	for it := 0; it < iters; it++ {
		s = s*lcgMul + lcgAdd
		a := (s >> 17) & (cells - 1)
		s = s*lcgMul + lcgAdd
		bI := (s >> 17) & (cells - 1)
		dx := int64(xs[a]) - int64(xs[bI])
		if dx < 0 {
			dx = -dx
		}
		dy := int64(ys[a]) - int64(ys[bI])
		if dy < 0 {
			dy = -dy
		}
		cost := uint64(dx + dy)
		acc += cost
		if cost < bestRef {
			bestRef = cost
		}
	}

	return &Instance{Prog: p, name: "twolf", image: []cell{
		reg(1, xyBase), reg(5, 7), reg(8, ^uint64(0)),
		mem64(xyBase, xs).every(16), mem64(xyBase+8, ys).every(16),
		reg(7, acc).expect(), reg(8, bestRef).expect(),
	}}, nil
}

// vortex: hash-table lookups with linear probing — data-dependent probe
// chains over a memory-resident table.
func buildVortex(scale int) (*Instance, error) {
	queries := 64 * scale
	const buckets = 256
	const tabBase = 0x20_0000 // bucket: key, val (16 bytes)

	const lcgMul = 6364136223846793005
	const lcgAdd = 1442695040888963407
	var hashMul uint64 = 0x9E3779B97F4A7C15

	b := prog.NewBuilder()
	outer := b.Block("vx_outer")
	seed := outer.Read(5)
	s1 := outer.AddI(outer.MulI(seed, lcgMul), lcgAdd)
	outer.Write(5, s1)
	key := outer.OpI(isa.OpOr, outer.AndI(outer.ShrI(s1, 17), 1023), 1)
	outer.Write(6, key)
	h := outer.AndI(outer.ShrI(outer.MulI(key, int64(hashMul)), 56), buckets-1)
	outer.Write(9, h)
	outer.Branch("vx_probe")

	probe := b.Block("vx_probe")
	tb := probe.Read(1)
	hc := probe.Read(9)
	bAddr := probe.Add(tb, probe.ShlI(hc, 4))
	k := probe.Load(bAddr, 0, 8, false)
	probe.Write(10, probe.Load(bAddr, 8, 8, false))
	hit := probe.Op(isa.OpEq, k, probe.Read(6))
	empty := probe.OpI(isa.OpEq, k, 0)
	probe.Write(9, probe.AndI(probe.AddI(hc, 1), buckets-1))
	stop := probe.Op(isa.OpOr, hit, empty)
	probe.Write(11, hit)
	probe.BranchIf(stop, "vx_done", "vx_probe")

	done := b.Block("vx_done")
	wasHit := done.Read(11)
	val := done.Read(10)
	zero := done.Const(0)
	done.Write(7, done.Add(done.Read(7), done.Select(wasHit, val, zero)))
	done.Write(8, done.Add(done.Read(8), wasHit))
	loopCtlI(done, 2, 1, int64(queries), "vx_outer", exitLabel)
	haltBlock(b)
	p, err := b.Program("vx_outer")
	if err != nil {
		return nil, err
	}

	// Populate half the table with keys from the same key space.
	// Bucket h is the two words key, val at tab[2*h:].
	tab := make([]uint64, 2*buckets)
	ins := lcg(5150)
	inserted := 0
	for inserted < buckets/2 {
		s := ins.next()
		key := (s & 1023) | 1
		h := key * hashMul >> 56 & (buckets - 1)
		for tab[2*h] != 0 {
			if tab[2*h] == key {
				break
			}
			h = (h + 1) & (buckets - 1)
		}
		if tab[2*h] == 0 {
			tab[2*h], tab[2*h+1] = key, ins.intn(1000)
			inserted++
		}
	}
	// Reference queries.
	var valAcc, hitCount uint64
	s := uint64(31)
	for q := 0; q < queries; q++ {
		s = s*lcgMul + lcgAdd
		key := ((s >> 17) & 1023) | 1
		h := key * hashMul >> 56 & (buckets - 1)
		for {
			k := tab[2*h]
			if k == key {
				valAcc += tab[2*h+1]
				hitCount++
				break
			}
			if k == 0 {
				break
			}
			h = (h + 1) & (buckets - 1)
		}
	}

	return &Instance{Prog: p, name: "vortex", image: []cell{
		reg(1, tabBase), reg(5, 31),
		mem64(tabBase, tab),
		reg(7, valAcc).expect(), reg(8, hitCount).expect(),
	}}, nil
}
