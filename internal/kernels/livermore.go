package kernels

import (
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// Livermore-loop kernels (the "LL kernels" the paper's Figure 5 groups
// with the hand-optimized codes).  These are registered as extras: they
// don't change the Table 1 population of 26, but run through the same
// validation and are available to tflexsim and the scheduler.

func init() {
	register(Kernel{Name: "ll1_hydro", Suite: "ll", HighILP: true, Extra: true, Build: buildLL1})
	register(Kernel{Name: "ll3_inner", Suite: "ll", HighILP: true, Extra: true, Build: buildLL3})
	register(Kernel{Name: "ll5_tridiag", Suite: "ll", HighILP: false, Extra: true, Build: buildLL5})
	register(Kernel{Name: "ll7_eos", Suite: "ll", HighILP: true, Extra: true, Build: buildLL7})
	register(Kernel{Name: "ll11_presum", Suite: "ll", HighILP: false, Extra: true, Build: buildLL11})
	register(Kernel{Name: "ll12_diff", Suite: "ll", HighILP: true, Extra: true, Build: buildLL12})
}

const (
	llX = 0x20_0000
	llY = 0x24_0000
	llZ = 0x28_0000
	llU = 0x2c_0000
)

// llArrays generates the deterministic input arrays.
func llArrays(n int, seed uint64) (x, y, z, u []float64) {
	r := lcg(seed)
	mk := func() []float64 {
		v := make([]float64, n+16)
		for i := range v {
			v[i] = float64(int64(r.intn(200))-100) / 8
		}
		return v
	}
	return mk(), mk(), mk(), mk()
}

// llImage is the image every Livermore loop starts from, the four arrays
// and their base registers, followed by the loop's own cells.
func llImage(x, y, z, u []float64, cells ...cell) []cell {
	image := append(make([]cell, 0, 8+len(cells)),
		reg(1, llX), reg(3, llY), reg(4, llZ), reg(6, llU),
		memF64(llX, x), memF64(llY, y), memF64(llZ, z), memF64(llU, u))
	return append(image, cells...)
}

// LL1 — hydro fragment: x[k] = q + y[k]*(r*z[k+10] + t*z[k+11]),
// unrolled 2 per block.
func buildLL1(scale int) (*Instance, error) {
	n := 64 * scale
	const q, rc, tc = 0.5, 1.25, 0.75

	b := prog.NewBuilder()
	bb := b.Block("ll1")
	k := bb.Read(2)
	xb := bb.Read(1)
	yb := bb.Read(3)
	zb := bb.Read(4)
	qv := bb.Read(10)
	rv := bb.Read(11)
	tv := bb.Read(12)
	off := bb.ShlI(k, 3)
	xA := bb.Add(xb, off)
	yA := bb.Add(yb, off)
	zA := bb.Add(zb, off)
	for d := int64(0); d < 2; d++ {
		yk := bb.Load(yA, d*8, 8, false)
		z10 := bb.Load(zA, (10+d)*8, 8, false)
		z11 := bb.Load(zA, (11+d)*8, 8, false)
		inner := bb.Op(isa.OpFAdd, bb.Op(isa.OpFMul, rv, z10), bb.Op(isa.OpFMul, tv, z11))
		bb.Store(xA, bb.Op(isa.OpFAdd, qv, bb.Op(isa.OpFMul, yk, inner)), d*8, 8)
	}
	loopCtlI(bb, 2, 2, int64(n), "ll1", exitLabel)
	haltBlock(b)
	p, err := b.Program("ll1")
	if err != nil {
		return nil, err
	}

	x, y, z, _ := llArrays(n, 101)
	want := make([]float64, n)
	for k := 0; k < n; k++ {
		want[k] = q + y[k]*(rc*z[k+10]+tc*z[k+11])
	}
	return &Instance{Prog: p, name: "ll1_hydro", image: llImage(x, y, z, nil2(n),
		regF(10, q), regF(11, rc), regF(12, tc),
		memF64(llX, want).expect())}, nil
}

func nil2(n int) []float64 { return make([]float64, n+16) }

// LL3 — inner product: q += z[k]*x[k], 4 MACs per block.
func buildLL3(scale int) (*Instance, error) {
	n := 128 * scale

	b := prog.NewBuilder()
	bb := b.Block("ll3")
	k := bb.Read(2)
	xb := bb.Read(1)
	zb := bb.Read(4)
	acc := bb.Read(10)
	off := bb.ShlI(k, 3)
	xA := bb.Add(xb, off)
	zA := bb.Add(zb, off)
	sum := acc
	for d := int64(0); d < 4; d++ {
		xv := bb.Load(xA, d*8, 8, false)
		zv := bb.Load(zA, d*8, 8, false)
		sum = bb.Op(isa.OpFAdd, sum, bb.Op(isa.OpFMul, zv, xv))
	}
	bb.Write(10, sum)
	loopCtlI(bb, 2, 4, int64(n), "ll3", exitLabel)
	haltBlock(b)
	p, err := b.Program("ll3")
	if err != nil {
		return nil, err
	}

	x, y, z, u := llArrays(n, 103)
	want := 0.0
	for k := 0; k < n; k++ {
		want += z[k] * x[k]
	}
	return &Instance{Prog: p, name: "ll3_inner", image: llImage(x, y, z, u,
		regF(10, 0),
		regF(10, want).expect())}, nil
}

// LL5 — tridiagonal elimination, a serial recurrence:
// x[i] = z[i] * (y[i] - x[i-1]).
func buildLL5(scale int) (*Instance, error) {
	n := 96 * scale

	b := prog.NewBuilder()
	bb := b.Block("ll5")
	i := bb.Read(2)
	xb := bb.Read(1)
	yb := bb.Read(3)
	zb := bb.Read(4)
	prev := bb.Read(10) // x[i-1] carried in a register
	off := bb.ShlI(i, 3)
	yv := bb.Load(bb.Add(yb, off), 0, 8, false)
	zv := bb.Load(bb.Add(zb, off), 0, 8, false)
	xv := bb.Op(isa.OpFMul, zv, bb.Op(isa.OpFSub, yv, prev))
	bb.Store(bb.Add(xb, off), xv, 0, 8)
	bb.Write(10, xv)
	loopCtlI(bb, 2, 1, int64(n), "ll5", exitLabel)
	haltBlock(b)
	p, err := b.Program("ll5")
	if err != nil {
		return nil, err
	}

	x, y, z, u := llArrays(n, 105)
	want := make([]float64, n)
	prevRef := 0.0
	for i := 0; i < n; i++ {
		prevRef = z[i] * (y[i] - prevRef)
		want[i] = prevRef
	}
	return &Instance{Prog: p, name: "ll5_tridiag", image: llImage(x, y, z, u,
		regF(10, 0),
		memF64(llX, want).expect())}, nil
}

// LL7 — equation of state fragment: a deep arithmetic expression over
// shifted windows of u[], one result per block.
func buildLL7(scale int) (*Instance, error) {
	n := 64 * scale
	const q, rc, tc = 0.25, 1.5, 0.5

	b := prog.NewBuilder()
	bb := b.Block("ll7")
	k := bb.Read(2)
	xb := bb.Read(1)
	yb := bb.Read(3)
	zb := bb.Read(4)
	ub := bb.Read(6)
	qv := bb.Read(10)
	rv := bb.Read(11)
	tv := bb.Read(12)
	off := bb.ShlI(k, 3)
	uA := bb.Add(ub, off)
	ld := func(d int64, base prog.Ref) prog.Ref { return bb.Load(base, d*8, 8, false) }
	u0 := ld(0, uA)
	u1 := ld(1, uA)
	u2 := ld(2, uA)
	u3 := ld(3, uA)
	u4 := ld(4, uA)
	u5 := ld(5, uA)
	u6 := ld(6, uA)
	zk := ld(0, bb.Add(zb, off))
	yk := ld(0, bb.Add(yb, off))
	fma := func(a, b2, c prog.Ref) prog.Ref { return bb.Op(isa.OpFAdd, a, bb.Op(isa.OpFMul, b2, c)) }
	t1 := fma(zk, rv, yk)        // z + r*y
	inner1 := fma(u2, rv, u1)    // u2 + r*u1
	term2 := fma(u3, rv, inner1) // u3 + r*(u2 + r*u1)
	inner2 := fma(u5, qv, u4)    // u5 + q*u4
	term3 := fma(u6, qv, inner2) // u6 + q*(u5 + q*u4)
	res := fma(fma(u0, rv, t1), tv, fma(term2, tv, term3))
	bb.Store(bb.Add(xb, off), res, 0, 8)
	loopCtlI(bb, 2, 1, int64(n), "ll7", exitLabel)
	haltBlock(b)
	p, err := b.Program("ll7")
	if err != nil {
		return nil, err
	}

	x, y, z, u := llArrays(n, 107)
	want := make([]float64, n)
	for k := 0; k < n; k++ {
		t1 := z[k] + rc*y[k]
		term2 := u[k+3] + rc*(u[k+2]+rc*u[k+1])
		term3 := u[k+6] + q*(u[k+5]+q*u[k+4])
		want[k] = (u[k] + rc*t1) + tc*(term2+tc*term3)
	}
	return &Instance{Prog: p, name: "ll7_eos", image: llImage(x, y, z, u,
		regF(10, q), regF(11, rc), regF(12, tc),
		memF64(llX, want).expect())}, nil
}

// LL11 — first sum, the serial prefix: x[k] = x[k-1] + y[k].
func buildLL11(scale int) (*Instance, error) {
	n := 128 * scale

	b := prog.NewBuilder()
	bb := b.Block("ll11")
	k := bb.Read(2)
	xb := bb.Read(1)
	yb := bb.Read(3)
	prev := bb.Read(10)
	off := bb.ShlI(k, 3)
	yv := bb.Load(bb.Add(yb, off), 0, 8, false)
	xv := bb.Op(isa.OpFAdd, prev, yv)
	bb.Store(bb.Add(xb, off), xv, 0, 8)
	bb.Write(10, xv)
	loopCtlI(bb, 2, 1, int64(n), "ll11", exitLabel)
	haltBlock(b)
	p, err := b.Program("ll11")
	if err != nil {
		return nil, err
	}

	x, y, z, u := llArrays(n, 111)
	want := make([]float64, n)
	prevRef := 0.0
	for k := 0; k < n; k++ {
		prevRef += y[k]
		want[k] = prevRef
	}
	return &Instance{Prog: p, name: "ll11_presum", image: llImage(x, y, z, u,
		regF(10, 0),
		memF64(llX, want).expect())}, nil
}

// LL12 — first difference, fully parallel: x[k] = y[k+1] - y[k],
// unrolled 4 per block.
func buildLL12(scale int) (*Instance, error) {
	n := 128 * scale

	b := prog.NewBuilder()
	bb := b.Block("ll12")
	k := bb.Read(2)
	xb := bb.Read(1)
	yb := bb.Read(3)
	off := bb.ShlI(k, 3)
	xA := bb.Add(xb, off)
	yA := bb.Add(yb, off)
	for d := int64(0); d < 4; d++ {
		y0 := bb.Load(yA, d*8, 8, false)
		y1 := bb.Load(yA, (d+1)*8, 8, false)
		bb.Store(xA, bb.Op(isa.OpFSub, y1, y0), d*8, 8)
	}
	loopCtlI(bb, 2, 4, int64(n), "ll12", exitLabel)
	haltBlock(b)
	p, err := b.Program("ll12")
	if err != nil {
		return nil, err
	}

	x, y, z, u := llArrays(n, 112)
	want := make([]float64, n)
	for k := 0; k < n; k++ {
		want[k] = y[k+1] - y[k]
	}
	return &Instance{Prog: p, name: "ll12_diff", image: llImage(x, y, z, u,
		memF64(llX, want).expect())}, nil
}
