package kernels

import (
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// The seven EEMBC-style embedded kernels of Table 1: a2time, autcor,
// basefp, bezier, dither, rspeed, tblook.

func init() {
	register(Kernel{Name: "a2time", Suite: "eembc", HighILP: false, Build: buildA2time})
	register(Kernel{Name: "autcor", Suite: "eembc", HighILP: true, Build: buildAutcor})
	register(Kernel{Name: "basefp", Suite: "eembc", HighILP: true, Build: buildBasefp})
	register(Kernel{Name: "bezier", Suite: "eembc", HighILP: true, Build: buildBezier})
	register(Kernel{Name: "dither", Suite: "eembc", HighILP: false, Build: buildDither})
	register(Kernel{Name: "rspeed", Suite: "eembc", HighILP: false, Build: buildRspeed})
	register(Kernel{Name: "tblook", Suite: "eembc", HighILP: false, Build: buildTblook})
}

// a2timeRPM is a2time's engine-speed table, shared by every build: Init
// only reads it.
var a2timeRPM = []uint64{600, 900, 1200, 1800, 2400, 3000, 3600, 4500}

// a2time: angle-to-time pulse conversion with divides, window checks and
// predicated accumulation.
func buildA2time(scale int) (*Instance, error) {
	n := 64 * scale
	const angBase = 0x20_0000
	const rpmBase = 0x21_0000

	b := prog.NewBuilder()
	bb := b.Block("a2_loop")
	i := bb.Read(2)
	ab := bb.Read(1)
	rb := bb.Read(3)
	angle := bb.Load(bb.Add(ab, bb.ShlI(i, 3)), 0, 8, false)
	rpm := bb.Load(bb.Add(rb, bb.ShlI(bb.AndI(i, 7), 3)), 0, 8, false)
	tv := bb.Op(isa.OpDivU, bb.MulI(angle, 3600), rpm)
	inLo := bb.Op(isa.OpLeU, bb.Const(100), tv)
	inHi := bb.OpI(isa.OpLtU, tv, 5000)
	inWin := bb.Op(isa.OpAnd, inLo, inHi)
	zero := bb.Const(0)
	add := bb.Select(inWin, tv, zero)
	bb.Write(7, bb.Add(bb.Read(7), add))
	bb.Write(8, bb.Add(bb.Read(8), inWin))
	loopCtlI(bb, 2, 1, int64(n), "a2_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("a2_loop")
	if err != nil {
		return nil, err
	}

	ang := make([]uint64, n)
	r := lcg(31337)
	for i := range ang {
		ang[i] = r.intn(720)
	}
	var acc, count uint64
	for i := 0; i < n; i++ {
		tv := ang[i] * 3600 / a2timeRPM[i&7]
		if tv >= 100 && tv < 5000 {
			acc += tv
			count++
		}
	}

	return &Instance{Prog: p, name: "a2time", image: []cell{
		reg(1, angBase), reg(3, rpmBase),
		mem64(angBase, ang), mem64(rpmBase, a2timeRPM),
		reg(7, acc).expect(), reg(8, count).expect(),
	}}, nil
}

// autcor: fixed-point autocorrelation r[k] = sum x[i]*x[i+k], unrolled 8
// MACs per block.
func buildAutcor(scale int) (*Instance, error) {
	chunks := 8 * scale // 8 samples per chunk
	n := chunks * 8
	const xBase = 0x20_0000
	const rBase = 0x2a_0000

	b := prog.NewBuilder()
	inner := b.Block("ac_inner")
	c := inner.Read(2)
	k := inner.Read(5)
	acc := inner.Read(6)
	xb := inner.Read(1)
	a1 := inner.Add(xb, inner.ShlI(c, 6))
	a2 := inner.Add(a1, inner.ShlI(k, 3))
	sum := acc
	for j := int64(0); j < 8; j++ {
		v1 := inner.Load(a1, j*8, 8, false)
		v2 := inner.Load(a2, j*8, 8, false)
		sum = inner.Add(sum, inner.Mul(v1, v2))
	}
	inner.Write(6, sum)
	loopCtlI(inner, 2, 1, int64(chunks), "ac_inner", "ac_store")

	st := b.Block("ac_store")
	k2 := st.Read(5)
	rb := st.Read(3)
	st.Store(st.Add(rb, st.ShlI(k2, 3)), st.Read(6), 0, 8)
	st.Write(6, st.Const(0))
	st.Write(2, st.Const(0))
	k3 := st.AddI(k2, 1)
	st.Write(5, k3)
	st.BranchIf(st.OpI(isa.OpLt, k3, 8), "ac_inner", exitLabel)
	haltBlock(b)
	p, err := b.Program("ac_inner")
	if err != nil {
		return nil, err
	}

	xs := make([]uint64, n+8)
	r := lcg(99)
	for i := range xs {
		xs[i] = r.intn(1 << 12)
	}
	want := make([]uint64, 8)
	for k := 0; k < 8; k++ {
		var acc uint64
		for c := 0; c < chunks; c++ {
			for j := 0; j < 8; j++ {
				acc += xs[c*8+j] * xs[c*8+j+k]
			}
		}
		want[k] = acc
	}

	return &Instance{Prog: p, name: "autcor", image: []cell{
		reg(1, xBase), reg(3, rBase),
		mem64(xBase, xs),
		mem64(rBase, want).expect(),
	}}, nil
}

// basefp: floating-point arithmetic mix, unrolled 4 per block.
func buildBasefp(scale int) (*Instance, error) {
	n := 128 * scale
	const aBase = 0x20_0000
	const bBase = 0x22_0000
	const yBase = 0x24_0000

	b := prog.NewBuilder()
	bb := b.Block("bf_loop")
	i := bb.Read(2)
	ab := bb.Read(1)
	bbase := bb.Read(3)
	yb := bb.Read(4)
	s := bb.Read(10)
	tt := bb.Read(11)
	u := bb.Read(12)
	aAddr := bb.Add(ab, bb.ShlI(i, 3))
	bAddr := bb.Add(bbase, bb.ShlI(i, 3))
	yAddr := bb.Add(yb, bb.ShlI(i, 3))
	for j := int64(0); j < 4; j++ {
		av := bb.Load(aAddr, j*8, 8, false)
		bv := bb.Load(bAddr, j*8, 8, false)
		num := bb.Op(isa.OpFAdd, bb.Op(isa.OpFMul, av, s), tt)
		den := bb.Op(isa.OpFAdd, bv, u)
		bb.Store(yAddr, bb.Op(isa.OpFDiv, num, den), j*8, 8)
	}
	loopCtlI(bb, 2, 4, int64(n), "bf_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("bf_loop")
	if err != nil {
		return nil, err
	}

	const sVal, tVal, uVal = 1.5, 0.25, 2.0
	as := make([]float64, n)
	bs := make([]float64, n)
	r := lcg(55)
	for i := range as {
		as[i] = float64(int64(r.intn(1000)) - 500)
		bs[i] = float64(r.intn(900)) + 1
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = (as[i]*sVal + tVal) / (bs[i] + uVal)
	}

	return &Instance{Prog: p, name: "basefp", image: []cell{
		reg(1, aBase), reg(3, bBase), reg(4, yBase),
		regF(10, sVal), regF(11, tVal), regF(12, uVal),
		memF64(aBase, as), memF64(bBase, bs),
		memF64(yBase, want).expect(),
	}}, nil
}

// bezier: cubic Bezier curve evaluation, one point per hyperblock.
func buildBezier(scale int) (*Instance, error) {
	n := 32 * scale
	const outBase = 0x26_0000

	b := prog.NewBuilder()
	bb := b.Block("bz_loop")
	i := bb.Read(2)
	ob := bb.Read(1)
	dt := bb.Read(9)
	t := bb.Op(isa.OpFMul, bb.Op1(isa.OpIToF, i), dt)
	one := bb.ConstF(1)
	mt := bb.Op(isa.OpFSub, one, t)
	mt2 := bb.Op(isa.OpFMul, mt, mt)
	mt3 := bb.Op(isa.OpFMul, mt2, mt)
	t2 := bb.Op(isa.OpFMul, t, t)
	t3 := bb.Op(isa.OpFMul, t2, t)
	three := bb.ConstF(3)
	b1 := bb.Op(isa.OpFMul, bb.Op(isa.OpFMul, three, mt2), t)
	b2 := bb.Op(isa.OpFMul, bb.Op(isa.OpFMul, three, mt), t2)
	outAddr := bb.Add(ob, bb.ShlI(i, 4))
	for dim := 0; dim < 2; dim++ {
		p0 := bb.Read(10 + dim*4)
		p1 := bb.Read(11 + dim*4)
		p2 := bb.Read(12 + dim*4)
		p3 := bb.Read(13 + dim*4)
		v := bb.Op(isa.OpFAdd,
			bb.Op(isa.OpFAdd, bb.Op(isa.OpFMul, mt3, p0), bb.Op(isa.OpFMul, b1, p1)),
			bb.Op(isa.OpFAdd, bb.Op(isa.OpFMul, b2, p2), bb.Op(isa.OpFMul, t3, p3)))
		bb.Store(outAddr, v, int64(dim)*8, 8)
	}
	loopCtlI(bb, 2, 1, int64(n), "bz_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("bz_loop")
	if err != nil {
		return nil, err
	}

	// Control points x0..x3 then y0..y3, in registers 10-17.
	ctrl := [8]float64{0, 1.5, 3.5, 5, 0, 4, -2, 1}
	dtVal := 1.0 / float64(n)
	want := make([]float64, 2*n) // x, y per point
	for i := 0; i < n; i++ {
		t := float64(int64(i)) * dtVal
		mt := 1 - t
		mt2 := mt * mt
		mt3 := mt2 * mt
		t2 := t * t
		t3 := t2 * t
		b1 := (3 * mt2) * t
		b2 := (3 * mt) * t2
		for dim := 0; dim < 2; dim++ {
			c := ctrl[dim*4:]
			want[2*i+dim] = (mt3*c[0] + b1*c[1]) + (b2*c[2] + t3*c[3])
		}
	}

	image := append(make([]cell, 0, 3+len(ctrl)), reg(1, outBase), regF(9, dtVal), memF64(outBase, want).expect())
	for i, v := range ctrl {
		image = append(image, regF(10+i, v))
	}
	return &Instance{Prog: p, name: "bezier", image: image}, nil
}

// dither: serial error-diffusion thresholding, 4 pixels per block with a
// loop-carried error term and predicated outputs.
func buildDither(scale int) (*Instance, error) {
	n := 128 * scale
	const imgBase = 0x20_0000
	const outBase = 0x23_0000

	b := prog.NewBuilder()
	bb := b.Block("dt_loop")
	i := bb.Read(2)
	ib := bb.Read(1)
	ob := bb.Read(3)
	err0 := bb.Read(7)
	iAddr := bb.Add(ib, i)
	oAddr := bb.Add(ob, i)
	errv := err0
	for j := int64(0); j < 4; j++ {
		px := bb.Load(iAddr, j, 1, false)
		v := bb.Add(px, errv)
		hi := bb.Op(isa.OpLe, bb.Const(128), v)
		out := bb.Select(hi, bb.Const(255), bb.Const(0))
		bb.Store(oAddr, out, j, 1)
		errv = bb.Sub(v, out)
	}
	bb.Write(7, errv)
	loopCtlI(bb, 2, 4, int64(n), "dt_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("dt_loop")
	if err != nil {
		return nil, err
	}

	img := make([]byte, n)
	r := lcg(2020)
	for i := range img {
		img[i] = byte(r.intn(256))
	}
	want := make([]byte, n)
	var e int64
	for i := 0; i < n; i++ {
		v := int64(img[i]) + e
		var out int64
		if v >= 128 {
			out = 255
		}
		want[i] = byte(out)
		e = v - out
	}
	finalErr := uint64(e)

	return &Instance{Prog: p, name: "dither", image: []cell{
		reg(1, imgBase), reg(3, outBase),
		mem8(imgBase, img),
		mem8(outBase, want).expect(), reg(7, finalErr).expect(),
	}}, nil
}

// rspeed: road-speed computation with divides, clamping selects and
// accumulation.
func buildRspeed(scale int) (*Instance, error) {
	n := 64 * scale
	const tsBase = 0x20_0000

	b := prog.NewBuilder()
	bb := b.Block("rs_loop")
	i := bb.Read(2)
	tb := bb.Read(1)
	dist := bb.Read(10)
	addr := bb.Add(tb, bb.ShlI(i, 3))
	t0 := bb.Load(addr, 0, 8, false)
	t1 := bb.Load(addr, 8, 8, false)
	dt := bb.Sub(t1, t0)
	zero := bb.OpI(isa.OpEq, dt, 0)
	dtSafe := bb.Select(zero, bb.Const(1), dt)
	speed := bb.Op(isa.OpDivU, bb.MulI(dist, 3600), dtSafe)
	over := bb.Op(isa.OpLtU, bb.Const(200), speed)
	clamped := bb.Select(over, bb.Const(200), speed)
	bb.Write(7, bb.Add(bb.Read(7), clamped))
	fast := bb.Op(isa.OpLtU, bb.Const(120), clamped)
	bb.Write(8, bb.Add(bb.Read(8), fast))
	loopCtlI(bb, 2, 1, int64(n), "rs_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("rs_loop")
	if err != nil {
		return nil, err
	}

	ts := make([]uint64, n+1)
	r := lcg(606)
	cur := uint64(1000)
	for i := range ts {
		ts[i] = cur
		cur += 30 + r.intn(300)
	}
	const distVal = 5
	var acc, fastCount uint64
	for i := 0; i < n; i++ {
		dt := ts[i+1] - ts[i]
		if dt == 0 {
			dt = 1
		}
		speed := distVal * 3600 / dt
		if speed > 200 {
			speed = 200
		}
		acc += speed
		if speed > 120 {
			fastCount++
		}
	}

	return &Instance{Prog: p, name: "rspeed", image: []cell{
		reg(1, tsBase), reg(10, distVal),
		mem64(tsBase, ts),
		reg(7, acc).expect(), reg(8, fastCount).expect(),
	}}, nil
}

// tblook: table lookup with linear interpolation and index clamping;
// dependent loads.
func buildTblook(scale int) (*Instance, error) {
	n := 64 * scale
	const inBase = 0x20_0000
	const tabBase = 0x21_0000

	b := prog.NewBuilder()
	bb := b.Block("tb_loop")
	i := bb.Read(2)
	inb := bb.Read(1)
	tabb := bb.Read(3)
	x := bb.Load(bb.Add(inb, bb.ShlI(i, 3)), 0, 8, false)
	idx := bb.ShrI(x, 8)
	hi := bb.Op(isa.OpLtU, bb.Const(14), idx)
	idxC := bb.Select(hi, bb.Const(14), idx)
	tAddr := bb.Add(tabb, bb.ShlI(idxC, 3))
	base := bb.Load(tAddr, 0, 8, false)
	next := bb.Load(tAddr, 8, 8, false)
	frac := bb.AndI(x, 255)
	delta := bb.Sub(next, base)
	y := bb.Add(base, bb.ShrI(bb.Mul(delta, frac), 8))
	bb.Write(7, bb.Add(bb.Read(7), y))
	loopCtlI(bb, 2, 1, int64(n), "tb_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("tb_loop")
	if err != nil {
		return nil, err
	}

	tab := make([]uint64, 16)
	for i := range tab {
		tab[i] = uint64(i*i*100 + 7)
	}
	in := make([]uint64, n)
	r := lcg(888)
	for i := range in {
		in[i] = r.intn(16 * 256 * 2) // half the inputs clamp
	}
	var acc uint64
	for i := 0; i < n; i++ {
		x := in[i]
		idx := x >> 8
		if idx > 14 {
			idx = 14
		}
		base, next := tab[idx], tab[idx+1]
		frac := x & 255
		acc += base + ((next-base)*frac)>>8
	}

	return &Instance{Prog: p, name: "tblook", image: []cell{
		reg(1, inBase), reg(3, tabBase),
		mem64(inBase, in), mem64(tabBase, tab),
		reg(7, acc).expect(),
	}}, nil
}
