package kernels

import (
	"math"

	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// The three hand-optimized kernels of Table 1: conv, ct, genalg.  They use
// the TRIPS hand-optimization style: large unrolled hyperblocks,
// register-resident constants, and predication instead of short branches.

func init() {
	register(Kernel{Name: "conv", Suite: "hand", HighILP: true, Build: buildConv})
	register(Kernel{Name: "ct", Suite: "hand", HighILP: true, Build: buildCT})
	register(Kernel{Name: "genalg", Suite: "hand", HighILP: false, Build: buildGenalg})
}

// conv: 8-tap integer FIR filter, 2 outputs per hyperblock, taps held in
// registers.
func buildConv(scale int) (*Instance, error) {
	const taps = 8
	n := 66 * scale // divisible by the 3-output unroll
	const xBase = 0x20_0000
	const yBase = 0x28_0000

	b := prog.NewBuilder()
	bb := b.Block("conv_loop")
	i := bb.Read(2)
	xb := bb.Read(1)
	yb := bb.Read(3)
	xAddr := bb.Add(xb, bb.ShlI(i, 3))
	yAddr := bb.Add(yb, bb.ShlI(i, 3))
	// Three outputs per hyperblock: 24 loads + 3 stores fill most of the
	// block's memory slots, approximating the near-128-instruction
	// hyperblocks of the TRIPS hand optimizations.
	for u := int64(0); u < 3; u++ {
		var acc prog.Ref
		for k := int64(0); k < taps; k++ {
			x := bb.Load(xAddr, (u+k)*8, 8, false)
			m := bb.Mul(x, bb.Read(10+int(k)))
			if k == 0 {
				acc = m
			} else {
				acc = bb.Add(acc, m)
			}
		}
		bb.Store(yAddr, acc, u*8, 8)
	}
	loopCtlI(bb, 2, 3, int64(n), "conv_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("conv_loop")
	if err != nil {
		return nil, err
	}

	var h [taps]uint64
	x := make([]uint64, n+taps)
	r := lcg(12345)
	for k := range h {
		h[k] = r.intn(64)
	}
	for idx := range x {
		x[idx] = r.intn(1 << 16)
	}
	want := make([]uint64, n)
	for o := 0; o < n; o++ {
		var acc uint64
		for k := 0; k < taps; k++ {
			acc += x[o+k] * h[k]
		}
		want[o] = acc
	}

	image := append(make([]cell, 0, 4+taps), reg(1, xBase), reg(3, yBase), mem64(xBase, x), mem64(yBase, want).expect())
	for k, v := range h {
		image = append(image, reg(10+k, v))
	}
	return &Instance{Prog: p, name: "conv", image: image}, nil
}

// ct: 8-point cosine transform (DCT-II) applied to rows, floating point,
// 2 outputs per hyperblock with a memory-resident coefficient table.
func buildCT(scale int) (*Instance, error) {
	rows := 8 * scale
	const xBase = 0x20_0000
	const yBase = 0x28_0000
	const cBase = 0x30_0000 // cosTab[u][k] row-major

	b := prog.NewBuilder()
	bb := b.Block("ct_loop")
	// r2 counts output pairs: row = r2/4, u = (r2%4)*2.
	pair := bb.Read(2)
	xb := bb.Read(1)
	yb := bb.Read(3)
	cb := bb.Read(4)
	row := bb.ShrI(pair, 2)
	u0 := bb.ShlI(bb.AndI(pair, 3), 1)
	xAddr := bb.Add(xb, bb.ShlI(row, 6)) // row*8 elements*8 bytes
	yAddr := bb.Add(bb.Add(yb, bb.ShlI(row, 6)), bb.ShlI(u0, 3))
	cAddr := bb.Add(cb, bb.ShlI(u0, 6)) // u0 row of the table
	var xv [8]prog.Ref
	for k := int64(0); k < 8; k++ {
		xv[k] = bb.Load(xAddr, k*8, 8, false)
	}
	for du := int64(0); du < 2; du++ {
		var acc prog.Ref
		for k := int64(0); k < 8; k++ {
			cv := bb.Load(cAddr, du*64+k*8, 8, false)
			m := bb.Op(isa.OpFMul, xv[k], cv)
			if k == 0 {
				acc = m
			} else {
				acc = bb.Op(isa.OpFAdd, acc, m)
			}
		}
		bb.Store(yAddr, acc, du*8, 8)
	}
	loopCtlI(bb, 2, 1, int64(rows*4), "ct_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("ct_loop")
	if err != nil {
		return nil, err
	}

	ctab := make([]float64, 64)
	for u := 0; u < 8; u++ {
		for k := 0; k < 8; k++ {
			ctab[u*8+k] = math.Cos(math.Pi * float64(u) * (2*float64(k) + 1) / 16)
		}
	}
	xs := make([]float64, rows*8)
	r := lcg(777)
	for i := range xs {
		xs[i] = float64(int64(r.intn(512)) - 256)
	}
	want := make([]float64, rows*8)
	for row := 0; row < rows; row++ {
		for u := 0; u < 8; u++ {
			acc := xs[row*8] * ctab[u*8]
			for k := 1; k < 8; k++ {
				acc += xs[row*8+k] * ctab[u*8+k]
			}
			want[row*8+u] = acc
		}
	}

	return &Instance{Prog: p, name: "ct", image: []cell{
		reg(1, xBase), reg(3, yBase), reg(4, cBase),
		memF64(xBase, xs), memF64(cBase, ctab),
		memF64(yBase, want).expect(),
	}}, nil
}

// genalg: a tournament-selection genetic-algorithm step: pick two genomes
// with an LCG, keep the one closer to the target, overwrite the other
// with a mutated copy.  Data-dependent selects and stores in one
// hyperblock.
func buildGenalg(scale int) (*Instance, error) {
	const popSize = 64
	iters := 48 * scale
	const popBase = 0x20_0000

	const lcgMul = 6364136223846793005
	const lcgAdd = 1442695040888963407

	b := prog.NewBuilder()
	bb := b.Block("ga_loop")
	seed := bb.Read(5)
	pb := bb.Read(1)
	target := bb.Read(6)
	s1 := bb.AddI(bb.MulI(seed, lcgMul), lcgAdd)
	i1 := bb.AndI(bb.ShrI(s1, 17), popSize-1)
	s2 := bb.AddI(bb.MulI(s1, lcgMul), lcgAdd)
	i2 := bb.AndI(bb.ShrI(s2, 17), popSize-1)
	s3 := bb.AddI(bb.MulI(s2, lcgMul), lcgAdd)
	bb.Write(5, s3)
	a1 := bb.Add(pb, bb.ShlI(i1, 3))
	a2 := bb.Add(pb, bb.ShlI(i2, 3))
	g1 := bb.Load(a1, 0, 8, false)
	g2 := bb.Load(a2, 0, 8, false)
	f1 := bb.Op(isa.OpXor, g1, target)
	f2 := bb.Op(isa.OpXor, g2, target)
	firstWins := bb.Op(isa.OpLtU, f1, f2)
	winner := bb.Select(firstWins, g1, g2)
	loserAddr := bb.Select(firstWins, a2, a1)
	bit := bb.AndI(bb.ShrI(s3, 17), 63)
	one := bb.Const(1)
	mut := bb.Op(isa.OpXor, winner, bb.Op(isa.OpShl, one, bit))
	bb.Store(loserAddr, mut, 0, 8)
	loopCtlI(bb, 2, 1, int64(iters), "ga_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("ga_loop")
	if err != nil {
		return nil, err
	}

	const targetVal = 0x5a5a_a5a5_5a5a_a5a5
	pop := make([]uint64, popSize)
	r := lcg(4242)
	for i := range pop {
		pop[i] = r.next()
	}
	// Reference.
	want := append([]uint64(nil), pop...)
	seed0 := uint64(99)
	s := seed0
	for it := 0; it < iters; it++ {
		s = s*lcgMul + lcgAdd
		i1 := (s >> 17) & (popSize - 1)
		s = s*lcgMul + lcgAdd
		i2 := (s >> 17) & (popSize - 1)
		s = s*lcgMul + lcgAdd
		g1, g2 := want[i1], want[i2]
		f1, f2 := g1^targetVal, g2^targetVal
		winner, loser := g2, i1
		if f1 < f2 {
			winner, loser = g1, i2
		}
		bit := (s >> 17) & 63
		want[loser] = winner ^ (1 << bit)
	}

	return &Instance{Prog: p, name: "genalg", image: []cell{
		reg(1, popBase), reg(5, seed0), reg(6, targetVal),
		mem64(popBase, pop),
		mem64(popBase, want).expect(),
	}}, nil
}
