package exec

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

func TestPageMemRoundTrip(t *testing.T) {
	m := NewPageMem()
	m.Write64(0x1000, 0xdeadbeefcafebabe)
	if got := m.Read64(0x1000); got != 0xdeadbeefcafebabe {
		t.Fatalf("got %#x", got)
	}
	// Cross-page access.
	m.Write64(0x1ffc, 0x1122334455667788)
	if got := m.Read64(0x1ffc); got != 0x1122334455667788 {
		t.Fatalf("cross-page got %#x", got)
	}
	// Sub-word sign extension.
	m.Store(0x2000, 1, 0x80)
	if got := m.Load(0x2000, 1, true); got != 0xffffffffffffff80 {
		t.Fatalf("sign extend got %#x", got)
	}
	if got := m.Load(0x2000, 1, false); got != 0x80 {
		t.Fatalf("zero extend got %#x", got)
	}
	// Unwritten memory reads as zero.
	if got := m.Read64(0x999000); got != 0 {
		t.Fatalf("unwritten got %#x", got)
	}
}

// TestPageMemStraddlesPages: an access is served a page at a time, so one
// that crosses a boundary is two pieces; it must read back what byte-wise
// writes stored, whether the pages on either side of the boundary are
// present or absent (absent reads as zero), at every offset of an 8-byte
// access across the boundary — and at the top of the address space, where
// the access wraps to page 0.
func TestPageMemStraddlesPages(t *testing.T) {
	for _, boundary := range []uint64{0x3000, 0} {
		for _, present := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
			for off := uint64(0); off <= 8; off++ {
				m := NewPageMem()
				addr := boundary - off // off bytes below the boundary, 8-off above
				var want uint64
				for i := uint64(0); i < 8; i++ {
					if below := i < off; (below && present[0]) || (!below && present[1]) {
						b := 0x11 * (i + 1)
						m.Store(addr+i, 1, b)
						want |= b << (8 * i)
					}
				}
				if got := m.Read64(addr); got != want {
					t.Errorf("boundary %#x, pages present %v: 8-byte read %d bytes below = %#x, want %#x", boundary, present, off, got, want)
				}
				m.Write64(addr, 0x8877665544332211)
				for i := uint64(0); i < 8; i++ {
					if got := m.Load(addr+i, 1, false); got != 0x11*(i+1) {
						t.Errorf("boundary %#x, pages present %v: byte %d of an 8-byte write %d bytes below = %#x", boundary, present, i, off, got)
					}
				}
			}
		}
	}
}

func TestPageMemProperty(t *testing.T) {
	m := NewPageMem()
	f := func(addr uint32, v uint64, szSel uint8) bool {
		sizes := []int{1, 2, 4, 8}
		size := sizes[szSel%4]
		a := uint64(addr)
		m.Store(a, size, v)
		got := m.Load(a, size, false)
		mask := ^uint64(0)
		if size < 8 {
			mask = (uint64(1) << (8 * size)) - 1
		}
		return got == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// memOp is one random access of TestPageMemAttachedProperty.
type memOp struct {
	Store    bool
	Boundary uint8  // which of the three page boundaries it lands near
	Off      uint16 // its offset, near the boundary or anywhere on a page
	Near     bool
	SzSel    uint8
	V        uint64
}

// TestPageMemAttachedProperty: a memory attached to an image is the image
// written into it.  The image covers pages 8 and 9 of pages 7 to 10, and
// random loads and stores of every size, half of them across a page
// boundary (absent to shared, shared to shared, shared to absent), go to
// an attached memory and to one the image was written into eagerly.
// Every load agrees, and after each sequence the two memories agree byte
// for byte and in Digest, while the image's digest and a second memory
// attached to it have not moved.
func TestPageMemAttachedProperty(t *testing.T) {
	const lo, hi = 0x7000, 0xb000
	write := func(m *PageMem) {
		for a := uint64(0x8000); a < 0xa000; a += 8 {
			m.Store(a, 8, a*0x9e3779b97f4a7c15)
		}
	}
	img := NewImage(write)
	want := img.Digest()
	f := func(ops []memOp) bool {
		cow, eager, other := NewPageMem(), NewPageMem(), NewPageMem()
		cow.Attach(img)
		other.Attach(img)
		write(eager)
		for _, op := range ops {
			a := lo + uint64(op.Off)%(hi-lo)
			if op.Near {
				a = 0x8000 + uint64(op.Boundary%3)<<pageShift + uint64(op.Off%16) - 8
			}
			size := []int{1, 2, 4, 8}[op.SzSel%4]
			if op.Store {
				cow.Store(a, size, op.V)
				eager.Store(a, size, op.V)
			} else if got, exp := cow.Load(a, size, true), eager.Load(a, size, true); got != exp {
				t.Logf("%d-byte load at %#x: %#x attached, %#x written", size, a, got, exp)
				return false
			}
		}
		return bytes.Equal(cow.ReadBytes(lo, hi-lo), eager.ReadBytes(lo, hi-lo)) &&
			cow.Digest() == eager.Digest() && img.Digest() == want && other.Digest() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDigestSeesEveryByte: changing any one byte of a non-zero page changes
// the digest.  Every byte of two full random pages takes three flips, and
// random single-byte flips hit sparse pages, which are mostly zero words.
func TestDigestSeesEveryByte(t *testing.T) {
	m := NewPageMem()
	r := rand.New(rand.NewSource(1))
	const lo, hi = 0x7000, 0x9000
	for a := uint64(lo); a < hi; a += 8 {
		m.Store(a, 8, r.Uint64())
	}
	base := m.Digest()
	for a := uint64(lo); a < hi; a++ {
		v := m.Load(a, 1, false)
		for _, x := range []uint64{0x01, 0x80, 0xff} {
			m.Store(a, 1, v^x)
			if m.Digest() == base {
				t.Fatalf("flipping byte %#x by %#x leaves the digest at %#x", a, x, base)
			}
		}
		m.Store(a, 1, v)
	}
	if m.Digest() != base {
		t.Fatalf("restored memory digests to %#x, want %#x", m.Digest(), base)
	}

	f := func(offs [4]uint16, vals [4]byte, off uint16, x byte) bool {
		m := NewPageMem()
		for i, o := range offs {
			m.Store(lo+uint64(o)%pageSize, 1, uint64(vals[i]|1))
		}
		a := lo + uint64(off)%pageSize
		before := m.Digest()
		m.Store(a, 1, m.Load(a, 1, false)^uint64(x|1))
		if bytes.Count(m.ReadBytes(lo, pageSize), []byte{0}) == pageSize {
			return true // the flip cleared the page's only byte: a zero page is skipped
		}
		return m.Digest() != before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestAttachRefusesAMemoryWithPages: an image replaces a memory's
// contents, so attaching one to a memory that already holds a page, or
// attaching a second image, panics and says why.
func TestAttachRefusesAMemoryWithPages(t *testing.T) {
	img := NewImage(func(m *PageMem) { m.Store(0x4000, 8, 7) })
	stored := NewPageMem()
	stored.Store(0x1000, 1, 1)
	attached := NewPageMem()
	attached.Attach(img)
	for _, c := range []struct {
		holding string
		m       *PageMem
	}{{"a stored page", stored}, {"an attached image", attached}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "Attach on a memory already holding 1 page(s)") {
					t.Errorf("Attach on a memory holding %s: recovered %q, want the misuse named", c.holding, msg)
				}
			}()
			c.m.Attach(img)
		}()
	}
}

func neg(v int64) uint64 { return uint64(-v) }

func TestEvalALUBasics(t *testing.T) {
	cases := []struct {
		op   isa.Opcode
		a, b uint64
		want uint64
	}{
		{isa.OpAdd, 2, 3, 5},
		{isa.OpSub, 2, 3, ^uint64(0)},
		{isa.OpMul, 7, 6, 42},
		{isa.OpDiv, neg(9), 2, neg(4)},
		{isa.OpDivU, 9, 2, 4},
		{isa.OpDiv, 5, 0, 0},
		{isa.OpMod, 9, 4, 1},
		{isa.OpAnd, 0xf0, 0xff, 0xf0},
		{isa.OpOr, 0xf0, 0x0f, 0xff},
		{isa.OpXor, 0xff, 0x0f, 0xf0},
		{isa.OpShl, 1, 4, 16},
		{isa.OpShr, 16, 4, 1},
		{isa.OpSra, neg(16), 2, neg(4)},
		{isa.OpEq, 4, 4, 1},
		{isa.OpNe, 4, 4, 0},
		{isa.OpLt, neg(1), 0, 1},
		{isa.OpLtU, neg(1), 0, 0},
		{isa.OpLe, 3, 3, 1},
		{isa.OpLeU, 4, 3, 0},
		{isa.OpMov, 99, 0, 99},
	}
	for _, c := range cases {
		in := isa.Inst{Op: c.op}
		if got := EvalALU(&in, c.a, c.b); got != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalALUImmediate(t *testing.T) {
	in := isa.Inst{Op: isa.OpAdd, HasImm: true, Imm: -5}
	if got := EvalALU(&in, 10, 999); got != 5 {
		t.Fatalf("addi got %d", got)
	}
	genc := isa.Inst{Op: isa.OpGenC, Imm: 123}
	if got := EvalALU(&genc, 0, 0); got != 123 {
		t.Fatalf("genc got %d", got)
	}
}

func TestEvalALUFloat(t *testing.T) {
	fb := math.Float64bits
	ff := math.Float64frombits
	in := isa.Inst{Op: isa.OpFAdd}
	if got := ff(EvalALU(&in, fb(1.5), fb(2.25))); got != 3.75 {
		t.Fatalf("fadd got %v", got)
	}
	in = isa.Inst{Op: isa.OpFMul}
	if got := ff(EvalALU(&in, fb(3), fb(4))); got != 12 {
		t.Fatalf("fmul got %v", got)
	}
	in = isa.Inst{Op: isa.OpFSqrt}
	if got := ff(EvalALU(&in, fb(9), 0)); got != 3 {
		t.Fatalf("fsqrt got %v", got)
	}
	in = isa.Inst{Op: isa.OpFLt}
	if got := EvalALU(&in, fb(1), fb(2)); got != 1 {
		t.Fatalf("flt got %v", got)
	}
	in = isa.Inst{Op: isa.OpIToF}
	if got := ff(EvalALU(&in, neg(7), 0)); got != -7 {
		t.Fatalf("itof got %v", got)
	}
	in = isa.Inst{Op: isa.OpFToI}
	if got := int64(EvalALU(&in, fb(-7.9), 0)); got != -7 {
		t.Fatalf("ftoi got %v", got)
	}
	if got := EvalALU(&isa.Inst{Op: isa.OpFToI}, fb(math.NaN()), 0); got != 0 {
		t.Fatalf("ftoi(NaN) got %v", got)
	}
}

// sumProgram builds: for r2 in 0..r1 { r3 += r2 }.
func sumProgram(t testing.TB) *prog.Program {
	b := prog.NewBuilder()
	bb := b.Block("loop")
	i := bb.Read(2)
	acc := bb.Read(3)
	n := bb.Read(1)
	acc2 := bb.Add(acc, i)
	i2 := bb.AddI(i, 1)
	bb.Write(3, acc2)
	bb.Write(2, i2)
	p := bb.Op(isa.OpLt, i2, n)
	bb.BranchIf(p, "loop", "done")
	d := b.Block("done")
	d.Halt()
	pr, err := b.Program("loop")
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestMachineSumLoop(t *testing.T) {
	m := NewMachine(sumProgram(t))
	m.Regs[1] = 10 // n
	st, err := m.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Halted {
		t.Fatal("did not halt")
	}
	if m.Regs[3] != 45 { // 0+1+...+9
		t.Fatalf("sum = %d, want 45", m.Regs[3])
	}
	if st.Blocks != 11 { // 10 loop iterations + done
		t.Fatalf("blocks = %d", st.Blocks)
	}
}

func TestMachineSelect(t *testing.T) {
	b := prog.NewBuilder()
	bb := b.Block("m")
	x := bb.Read(1)
	y := bb.Read(2)
	p := bb.Op(isa.OpLt, x, y)
	mx := bb.Select(p, y, x) // max
	bb.Write(3, mx)
	bb.Halt()
	pr := b.MustProgram("m")
	for _, c := range [][3]uint64{{3, 7, 7}, {9, 2, 9}, {4, 4, 4}} {
		m := NewMachine(pr)
		m.Regs[1], m.Regs[2] = c[0], c[1]
		if _, err := m.Run(10); err != nil {
			t.Fatal(err)
		}
		if m.Regs[3] != c[2] {
			t.Fatalf("max(%d,%d) = %d, want %d", c[0], c[1], m.Regs[3], c[2])
		}
	}
}

func TestMachineGuardedStore(t *testing.T) {
	b := prog.NewBuilder()
	bb := b.Block("m")
	x := bb.Read(1)
	addr := bb.Read(2)
	p := bb.OpI(isa.OpLt, x, 10)
	bb.When(p).Store(addr, x, 0, 8)
	bb.Halt()
	pr := b.MustProgram("m")

	m := NewMachine(pr)
	m.Regs[1], m.Regs[2] = 5, 0x4000
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.(*PageMem).Read64(0x4000); got != 5 {
		t.Fatalf("store taken: got %d", got)
	}

	m2 := NewMachine(pr)
	m2.Regs[1], m2.Regs[2] = 50, 0x4000
	m2.Mem.(*PageMem).Write64(0x4000, 777)
	if _, err := m2.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := m2.Mem.(*PageMem).Read64(0x4000); got != 777 {
		t.Fatalf("store nulled: got %d", got)
	}
}

func TestMachineStoreLoadForwardingWithinBlock(t *testing.T) {
	b := prog.NewBuilder()
	bb := b.Block("m")
	addr := bb.Read(1)
	v := bb.Read(2)
	bb.Store(addr, v, 0, 8)          // LSID 0
	ld := bb.Load(addr, 0, 8, false) // LSID 1: must see the store
	bb.Write(3, ld)
	bb.Halt()
	pr := b.MustProgram("m")
	m := NewMachine(pr)
	m.Regs[1], m.Regs[2] = 0x8000, 424242
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.Regs[3] != 424242 {
		t.Fatalf("forwarded load = %d", m.Regs[3])
	}
}

func TestMachinePartialForwarding(t *testing.T) {
	// 4-byte store overlapping an 8-byte load.
	b := prog.NewBuilder()
	bb := b.Block("m")
	addr := bb.Read(1)
	v := bb.Read(2)
	bb.Store(addr, v, 4, 4)
	ld := bb.Load(addr, 0, 8, false)
	bb.Write(3, ld)
	bb.Halt()
	pr := b.MustProgram("m")
	m := NewMachine(pr)
	m.Mem.(*PageMem).Write64(0x8000, 0x1111111122222222)
	m.Regs[1], m.Regs[2] = 0x8000, 0xaaaaaaaa
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.Regs[3] != 0xaaaaaaaa22222222 {
		t.Fatalf("partial forward = %#x", m.Regs[3])
	}
}

func TestMachineCallRet(t *testing.T) {
	b := prog.NewBuilder()
	main := b.Block("main")
	ra := main.LabelAddr("after")
	main.Write(1, ra) // link register
	x := main.Const(21)
	main.Write(2, x)
	main.Call("double")

	fn := b.Block("double")
	arg := fn.Read(2)
	fn.Write(2, fn.AddI(arg, 0))
	fn.Write(3, fn.Add(arg, arg))
	link := fn.Read(1)
	fn.Ret(link)

	after := b.Block("after")
	after.Halt()

	pr := b.MustProgram("main")
	m := NewMachine(pr)
	st, err := m.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Halted || m.Regs[3] != 42 {
		t.Fatalf("halted=%v r3=%d", st.Halted, m.Regs[3])
	}
}

func TestMachineNestedGuards(t *testing.T) {
	// r4 = (r1 < 10 && r2 < 20) ? 1 : 0 via nested When.
	b := prog.NewBuilder()
	bb := b.Block("m")
	x := bb.Read(1)
	y := bb.Read(2)
	one := bb.Const(1)
	zero := bb.Const(0)
	p1 := bb.OpI(isa.OpLt, x, 10)
	inner := bb.When(p1)
	p2 := bb.OpI(isa.OpLt, y, 20)
	both := inner.When(p2)
	g := both.GuardValue() // 0/1 of (p1 && p2)
	both.Write(4, one)
	bb.Unless(g).Write(4, zero)
	bb.Halt()
	pr := b.MustProgram("m")
	for _, c := range []struct{ x, y, want uint64 }{
		{5, 5, 1}, {5, 50, 0}, {50, 5, 0}, {50, 50, 0},
	} {
		m := NewMachine(pr)
		m.Regs[1], m.Regs[2] = c.x, c.y
		if _, err := m.Run(10); err != nil {
			t.Fatalf("x=%d y=%d: %v", c.x, c.y, err)
		}
		if m.Regs[4] != c.want {
			t.Fatalf("x=%d y=%d: r4=%d want %d", c.x, c.y, m.Regs[4], c.want)
		}
	}
}

func TestMachineErrors(t *testing.T) {
	t.Run("block limit", func(t *testing.T) {
		b := prog.NewBuilder()
		bb := b.Block("spin")
		bb.Branch("spin")
		pr := b.MustProgram("spin")
		m := NewMachine(pr)
		if _, err := m.Run(100); err == nil {
			t.Fatal("expected block-limit error")
		}
	})
}

func TestTraceGeneration(t *testing.T) {
	p := sumProgram(t)
	m := NewMachine(p)
	m.Regs[1] = 5
	m.Trace = &Trace{}
	st, err := m.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Trace.Entries
	if len(tr) == 0 {
		t.Fatal("no trace")
	}
	if uint64(len(tr)) != st.Useful {
		t.Fatalf("trace %d entries, useful %d", len(tr), st.Useful)
	}
	branches := 0
	for i, e := range tr {
		if e.Src1 >= int32(i) || e.Src2 >= int32(i) {
			t.Fatalf("entry %d has forward dep (%d,%d)", i, e.Src1, e.Src2)
		}
		if e.IsBranch {
			branches++
		}
	}
	if branches != int(st.Blocks) {
		t.Fatalf("branches=%d blocks=%d", branches, st.Blocks)
	}
	// Dep chain sanity: the accumulator adds depend on prior iterations.
	foundDep := false
	for _, e := range tr {
		if e.Op == isa.OpAdd && e.Src1 >= 0 {
			foundDep = true
		}
	}
	if !foundDep {
		t.Fatal("no cross-entry dependences recorded")
	}
}

func TestRunBlockRejectsBadBlocks(t *testing.T) {
	// A block whose single branch is predicated and squashes: no branch fires.
	b := prog.NewBuilder()
	bb := b.Block("m")
	x := bb.Read(1)
	p := bb.OpI(isa.OpLt, x, 10)
	bb.When(p).Halt() // if x >= 10 no branch fires
	pr, err := b.Program("m")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(pr)
	m.Regs[1] = 99
	if _, err := m.Run(10); err == nil {
		t.Fatal("expected no-branch error")
	}
}
