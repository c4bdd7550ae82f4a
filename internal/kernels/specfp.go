package kernels

import (
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// Six SPEC-CPU-floating-point-style kernels, built compiler-style (one
// loop iteration per block, no hand unrolling): ammp, applu, art, equake,
// mesa, swim.

func init() {
	register(Kernel{Name: "ammp", Suite: "specfp", HighILP: true, Build: buildAmmp})
	register(Kernel{Name: "applu", Suite: "specfp", HighILP: true, Build: buildApplu})
	register(Kernel{Name: "art", Suite: "specfp", HighILP: true, Build: buildArt})
	register(Kernel{Name: "equake", Suite: "specfp", HighILP: false, Build: buildEquake})
	register(Kernel{Name: "mesa", Suite: "specfp", HighILP: true, Build: buildMesa})
	register(Kernel{Name: "swim", Suite: "specfp", HighILP: true, Build: buildSwim})
}

// ammp: molecular-dynamics pair forces: distances, squared norm, a divide
// per pair.
func buildAmmp(scale int) (*Instance, error) {
	pairs := 64 * scale
	const atoms = 128
	const posBase = 0x20_0000 // x,y,z per atom, 24 bytes

	const lcgMul = 6364136223846793005
	const lcgAdd = 1442695040888963407

	b := prog.NewBuilder()
	bb := b.Block("am_loop")
	seed := bb.Read(5)
	pb := bb.Read(1)
	s1 := bb.AddI(bb.MulI(seed, lcgMul), lcgAdd)
	ai := bb.AndI(bb.ShrI(s1, 17), atoms-1)
	s2 := bb.AddI(bb.MulI(s1, lcgMul), lcgAdd)
	bi := bb.AndI(bb.ShrI(s2, 17), atoms-1)
	bb.Write(5, s2)
	aAddr := bb.Add(pb, bb.Mul(ai, bb.Const(24)))
	bAddr := bb.Add(pb, bb.Mul(bi, bb.Const(24)))
	dx := bb.Op(isa.OpFSub, bb.Load(aAddr, 0, 8, false), bb.Load(bAddr, 0, 8, false))
	dy := bb.Op(isa.OpFSub, bb.Load(aAddr, 8, 8, false), bb.Load(bAddr, 8, 8, false))
	dz := bb.Op(isa.OpFSub, bb.Load(aAddr, 16, 8, false), bb.Load(bAddr, 16, 8, false))
	r2 := bb.Op(isa.OpFAdd,
		bb.Op(isa.OpFAdd, bb.Op(isa.OpFMul, dx, dx), bb.Op(isa.OpFMul, dy, dy)),
		bb.Op(isa.OpFMul, dz, dz))
	f := bb.Op(isa.OpFDiv, bb.ConstF(1), bb.Op(isa.OpFAdd, r2, bb.ConstF(0.1)))
	acc := bb.Read(7)
	bb.Write(7, bb.Op(isa.OpFAdd, acc, f))
	loopCtlI(bb, 2, 1, int64(pairs), "am_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("am_loop")
	if err != nil {
		return nil, err
	}

	pos := make([]float64, 3*atoms) // x, y, z per atom
	r := lcg(7777)
	for i := range pos {
		pos[i] = float64(int64(r.intn(200)) - 100)
	}
	var accRef float64
	s := uint64(13)
	for it := 0; it < pairs; it++ {
		s = s*lcgMul + lcgAdd
		ai := (s >> 17) & (atoms - 1)
		s = s*lcgMul + lcgAdd
		bi := (s >> 17) & (atoms - 1)
		u, v := pos[3*ai:], pos[3*bi:]
		dx := u[0] - v[0]
		dy := u[1] - v[1]
		dz := u[2] - v[2]
		r2 := (dx*dx + dy*dy) + dz*dz
		accRef += 1 / (r2 + 0.1)
	}

	return &Instance{Prog: p, name: "ammp", image: []cell{
		reg(1, posBase), reg(5, 13), regF(7, 0),
		memF64(posBase, pos),
		regF(7, accRef).expect(),
	}}, nil
}

// applu: a 5-point Jacobi relaxation over a 2D grid, one point per block.
func buildApplu(scale int) (*Instance, error) {
	const dim = 16 // interior points per side; grid is (dim+2)^2
	points := dim * dim * scale
	const inBase = 0x20_0000
	const outBase = 0x24_0000
	const gw = dim + 2 // grid width

	b := prog.NewBuilder()
	bb := b.Block("ap_loop")
	idx := bb.Read(2)
	inb := bb.Read(1)
	outb := bb.Read(3)
	w := bb.Read(10) // 0.2
	row := bb.AndI(bb.ShrI(idx, 4), dim-1)
	col := bb.AndI(idx, dim-1)
	off := bb.ShlI(bb.Add(bb.MulI(bb.AddI(row, 1), gw), bb.AddI(col, 1)), 3)
	cAddr := bb.Add(inb, off)
	cv := bb.Load(cAddr, 0, 8, false)
	nv := bb.Load(cAddr, -8*gw, 8, false)
	sv := bb.Load(cAddr, 8*gw, 8, false)
	wv := bb.Load(cAddr, -8, 8, false)
	ev := bb.Load(cAddr, 8, 8, false)
	sum := bb.Op(isa.OpFAdd, bb.Op(isa.OpFAdd, nv, sv), bb.Op(isa.OpFAdd, wv, ev))
	four := bb.ConstF(4)
	delta := bb.Op(isa.OpFSub, sum, bb.Op(isa.OpFMul, four, cv))
	res := bb.Op(isa.OpFAdd, cv, bb.Op(isa.OpFMul, w, delta))
	bb.Store(bb.Add(outb, off), res, 0, 8)
	loopCtlI(bb, 2, 1, int64(points), "ap_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("ap_loop")
	if err != nil {
		return nil, err
	}

	grid := make([]float64, gw*gw)
	r := lcg(414)
	for i := range grid {
		grid[i] = float64(int64(r.intn(1000)) - 500)
	}
	want := make([]float64, dim*dim) // the interior points, row by row
	for row := 0; row < dim; row++ {
		for col := 0; col < dim; col++ {
			i := (row+1)*gw + col + 1
			sum := (grid[i-gw] + grid[i+gw]) + (grid[i-1] + grid[i+1])
			want[row*dim+col] = grid[i] + 0.2*(sum-4*grid[i])
		}
	}

	image := append(make([]cell, 0, 4+dim), reg(1, inBase), reg(3, outBase), regF(10, 0.2), memF64(inBase, grid))
	for row := 0; row < dim; row++ {
		image = append(image, memF64(outBase+uint64((row+1)*gw+1)*8, want[row*dim:(row+1)*dim]).expect())
	}
	return &Instance{Prog: p, name: "applu", image: image}, nil
}

// art: neural-network F1 layer: out[j] += w[i][j] * in[i], 4 MACs per
// block.
func buildArt(scale int) (*Instance, error) {
	const outs = 16
	ins := 32 * scale
	const wBase = 0x20_0000 // w[i*outs + j]
	const inBase = 0x30_0000
	const outBase = 0x31_0000

	b := prog.NewBuilder()
	// Outer over j (r5), inner over i in chunks of 4 (r2).
	inner := b.Block("ar_inner")
	i := inner.Read(2)
	j := inner.Read(5)
	wb := inner.Read(1)
	inb := inner.Read(3)
	acc := inner.Read(7)
	sum := acc
	for d := int64(0); d < 4; d++ {
		wAddr := inner.Add(wb, inner.ShlI(inner.Add(inner.MulI(inner.AddI(i, d), outs), j), 3))
		iv := inner.Load(inner.Add(inb, inner.ShlI(i, 3)), d*8, 8, false)
		wv := inner.Load(wAddr, 0, 8, false)
		sum = inner.Op(isa.OpFAdd, sum, inner.Op(isa.OpFMul, wv, iv))
	}
	inner.Write(7, sum)
	loopCtlI(inner, 2, 4, int64(ins), "ar_inner", "ar_store")

	st := b.Block("ar_store")
	j2 := st.Read(5)
	ob := st.Read(4)
	st.Store(st.Add(ob, st.ShlI(j2, 3)), st.Read(7), 0, 8)
	st.Write(7, st.ConstF(0))
	st.Write(2, st.Const(0))
	j3 := st.AddI(j2, 1)
	st.Write(5, j3)
	st.BranchIf(st.OpI(isa.OpLt, j3, outs), "ar_inner", exitLabel)
	haltBlock(b)
	p, err := b.Program("ar_inner")
	if err != nil {
		return nil, err
	}

	ws := make([]float64, ins*outs)
	xs := make([]float64, ins)
	r := lcg(271)
	for i := range ws {
		ws[i] = float64(int64(r.intn(64)) - 32)
	}
	for i := range xs {
		xs[i] = float64(int64(r.intn(64)) - 32)
	}
	want := make([]float64, outs)
	for j := 0; j < outs; j++ {
		acc := 0.0
		for i := 0; i < ins; i++ {
			acc += ws[i*outs+j] * xs[i]
		}
		want[j] = acc
	}

	return &Instance{Prog: p, name: "art", image: []cell{
		reg(1, wBase), reg(3, inBase), reg(4, outBase), regF(7, 0),
		memF64(wBase, ws), memF64(inBase, xs),
		memF64(outBase, want).expect(),
	}}, nil
}

// equake: sparse matrix-vector product with indirect loads, one row per
// block (4 nonzeros).
func buildEquake(scale int) (*Instance, error) {
	rows := 64 * scale
	const nnzPerRow = 4
	const colBase = 0x20_0000
	const valBase = 0x24_0000
	const xBase = 0x28_0000
	const yBase = 0x2c_0000
	xLen := rows

	b := prog.NewBuilder()
	bb := b.Block("eq_loop")
	i := bb.Read(2)
	cb := bb.Read(1)
	vb := bb.Read(3)
	xb := bb.Read(4)
	yb := bb.Read(6)
	rowOff := bb.ShlI(i, 5) // 4 entries * 8 bytes
	cAddr := bb.Add(cb, rowOff)
	vAddr := bb.Add(vb, rowOff)
	var sum prog.Ref
	for k := int64(0); k < nnzPerRow; k++ {
		col := bb.Load(cAddr, k*8, 8, false)
		val := bb.Load(vAddr, k*8, 8, false)
		xv := bb.Load(bb.Add(xb, bb.ShlI(col, 3)), 0, 8, false)
		m := bb.Op(isa.OpFMul, val, xv)
		if k == 0 {
			sum = m
		} else {
			sum = bb.Op(isa.OpFAdd, sum, m)
		}
	}
	bb.Store(bb.Add(yb, bb.ShlI(i, 3)), sum, 0, 8)
	loopCtlI(bb, 2, 1, int64(rows), "eq_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("eq_loop")
	if err != nil {
		return nil, err
	}

	cols := make([]uint64, rows*nnzPerRow)
	vals := make([]float64, rows*nnzPerRow)
	xs := make([]float64, xLen)
	r := lcg(1906)
	for i := range cols {
		cols[i] = r.intn(uint64(xLen))
		vals[i] = float64(int64(r.intn(100)) - 50)
	}
	for i := range xs {
		xs[i] = float64(int64(r.intn(100)) - 50)
	}
	want := make([]float64, rows)
	for i := 0; i < rows; i++ {
		sum := vals[i*4] * xs[cols[i*4]]
		for k := 1; k < nnzPerRow; k++ {
			sum += vals[i*4+k] * xs[cols[i*4+k]]
		}
		want[i] = sum
	}

	return &Instance{Prog: p, name: "equake", image: []cell{
		reg(1, colBase), reg(3, valBase), reg(4, xBase), reg(6, yBase),
		mem64(colBase, cols), memF64(valBase, vals), memF64(xBase, xs),
		memF64(yBase, want).expect(),
	}}, nil
}

// mesa: 4x4 matrix x vec4 vertex transform, split over two blocks per
// vertex (two output components each), matrix in registers.
func buildMesa(scale int) (*Instance, error) {
	verts := 32 * scale
	const inBase = 0x20_0000
	const outBase = 0x24_0000

	b := prog.NewBuilder()
	emitHalf := func(name string, baseRow int, next string, closeLoop bool) {
		bb := b.Block(name)
		i := bb.Read(2)
		inb := bb.Read(1)
		ob := bb.Read(3)
		vAddr := bb.Add(inb, bb.ShlI(i, 5))
		oAddr := bb.Add(ob, bb.ShlI(i, 5))
		var vv [4]prog.Ref
		for k := int64(0); k < 4; k++ {
			vv[k] = bb.Load(vAddr, k*8, 8, false)
		}
		for r := 0; r < 2; r++ {
			row := baseRow + r
			acc := bb.Op(isa.OpFMul, bb.Read(10+row*4), vv[0])
			for k := 1; k < 4; k++ {
				acc = bb.Op(isa.OpFAdd, acc, bb.Op(isa.OpFMul, bb.Read(10+row*4+k), vv[k]))
			}
			bb.Store(oAddr, acc, int64(row)*8, 8)
		}
		if closeLoop {
			loopCtlI(bb, 2, 1, int64(verts), next, exitLabel)
		} else {
			bb.Branch(next)
		}
	}
	emitHalf("me_half0", 0, "me_half1", false)
	emitHalf("me_half1", 2, "me_half0", true)
	haltBlock(b)
	p, err := b.Program("me_half0")
	if err != nil {
		return nil, err
	}

	var mat [16]float64
	r := lcg(3141)
	for i := range mat {
		mat[i] = float64(int64(r.intn(16)) - 8)
	}
	vertsIn := make([]float64, 4*verts) // x, y, z, w per vertex
	for i := range vertsIn {
		vertsIn[i] = float64(int64(r.intn(256)) - 128)
	}
	want := make([]float64, 4*verts)
	for i := 0; i < len(vertsIn); i += 4 {
		v := vertsIn[i : i+4]
		for row := 0; row < 4; row++ {
			acc := mat[row*4] * v[0]
			for k := 1; k < 4; k++ {
				acc += mat[row*4+k] * v[k]
			}
			want[i+row] = acc
		}
	}

	image := append(make([]cell, 0, 4+len(mat)), reg(1, inBase), reg(3, outBase), memF64(inBase, vertsIn), memF64(outBase, want).expect())
	for i, v := range mat {
		image = append(image, regF(10+i, v))
	}
	return &Instance{Prog: p, name: "mesa", image: image}, nil
}

// swim: a 1D shallow-water step: velocity and height updates from
// neighboring cells.
func buildSwim(scale int) (*Instance, error) {
	n := 64 * scale
	const uBase = 0x20_0000
	const hBase = 0x24_0000
	const u2Base = 0x28_0000
	const h2Base = 0x2c_0000

	b := prog.NewBuilder()
	bb := b.Block("sw_loop")
	i := bb.Read(2)
	ub := bb.Read(1)
	hb := bb.Read(3)
	u2b := bb.Read(4)
	h2b := bb.Read(6)
	c := bb.Read(10)
	d := bb.Read(11)
	off := bb.ShlI(bb.AddI(i, 1), 3)
	uAddr := bb.Add(ub, off)
	hAddr := bb.Add(hb, off)
	uv := bb.Load(uAddr, 0, 8, false)
	hv := bb.Load(hAddr, 0, 8, false)
	hE := bb.Load(hAddr, 8, 8, false)
	hW := bb.Load(hAddr, -8, 8, false)
	uE := bb.Load(uAddr, 8, 8, false)
	uW := bb.Load(uAddr, -8, 8, false)
	du := bb.Op(isa.OpFMul, c, bb.Op(isa.OpFSub, hE, hW))
	dh := bb.Op(isa.OpFMul, d, bb.Op(isa.OpFSub, uE, uW))
	bb.Store(bb.Add(u2b, off), bb.Op(isa.OpFAdd, uv, du), 0, 8)
	bb.Store(bb.Add(h2b, off), bb.Op(isa.OpFAdd, hv, dh), 0, 8)
	loopCtlI(bb, 2, 1, int64(n), "sw_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("sw_loop")
	if err != nil {
		return nil, err
	}

	const cVal, dVal = -0.05, -0.02
	us := make([]float64, n+2)
	hs := make([]float64, n+2)
	r := lcg(2024)
	for i := range us {
		us[i] = float64(int64(r.intn(100)) - 50)
		hs[i] = float64(int64(r.intn(100)) + 100)
	}
	wantU := make([]float64, n)
	wantH := make([]float64, n)
	for i := 0; i < n; i++ {
		wantU[i] = us[i+1] + cVal*(hs[i+2]-hs[i])
		wantH[i] = hs[i+1] + dVal*(us[i+2]-us[i])
	}

	return &Instance{Prog: p, name: "swim", image: []cell{
		reg(1, uBase), reg(3, hBase), reg(4, u2Base), reg(6, h2Base),
		regF(10, cVal), regF(11, dVal),
		memF64(uBase, us), memF64(hBase, hs),
		memF64(u2Base+8, wantU).expect(), memF64(h2Base+8, wantH).expect(),
	}}, nil
}
