package kernels

import (
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// The two Versabench-style kernels of Table 1: 802.11b spreading and
// 8b/10b line coding.

func init() {
	register(Kernel{Name: "802.11b", Suite: "versa", HighILP: true, Build: build80211b})
	register(Kernel{Name: "8b10b", Suite: "versa", HighILP: false, Build: build8b10b})
}

// 802.11b: Barker-sequence spreading with a scrambler: each input byte is
// spread bit-by-bit against an 11-chip code (folded to 8 here), XORed with
// a scrambler byte, and stored.  All eight chip lanes compute in parallel
// — a wide, bit-twiddling hyperblock.
func build80211b(scale int) (*Instance, error) {
	n := 64 * scale
	const inBase = 0x20_0000
	const outBase = 0x22_0000
	const barker = 0b10110111

	b := prog.NewBuilder()
	bb := b.Block("wl_loop")
	i := bb.Read(2)
	inb := bb.Read(1)
	outb := bb.Read(3)
	scr := bb.Read(5)
	sym := bb.Load(bb.Add(inb, i), 0, 1, false)
	var chips prog.Ref
	for k := int64(0); k < 8; k++ {
		bit := bb.AndI(bb.ShrI(sym, k), 1)
		spread := bb.OpI(isa.OpXor, bit, (barker>>uint(k))&1)
		lane := bb.ShlI(spread, k)
		if k == 0 {
			chips = lane
		} else {
			chips = bb.Op(isa.OpOr, chips, lane)
		}
	}
	out := bb.Op(isa.OpXor, chips, bb.AndI(scr, 0xff))
	bb.Store(bb.Add(outb, i), out, 0, 1)
	scr2 := bb.AddI(bb.MulI(scr, 5), 1)
	bb.Write(5, scr2)
	loopCtlI(bb, 2, 1, int64(n), "wl_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("wl_loop")
	if err != nil {
		return nil, err
	}

	in := make([]byte, n)
	r := lcg(808)
	for i := range in {
		in[i] = byte(r.intn(256))
	}
	want := make([]byte, n)
	scrRef := uint64(0x1234)
	for i := 0; i < n; i++ {
		var chips uint64
		for k := 0; k < 8; k++ {
			bit := uint64(in[i]>>uint(k)) & 1
			chips |= (bit ^ uint64((barker>>uint(k))&1)) << uint(k)
		}
		want[i] = byte(chips ^ (scrRef & 0xff))
		scrRef = scrRef*5 + 1
	}

	return &Instance{Prog: p, name: "802.11b", image: []cell{
		reg(1, inBase), reg(3, outBase), reg(5, 0x1234),
		mem8(inBase, in),
		mem8(outBase, want).expect(),
	}}, nil
}

// 8b10b: table-driven line coding with a running-disparity feedback loop:
// two code tables (positive/negative disparity) for the 5b/6b and 3b/4b
// halves, selected by the current disparity, which flips when the chosen
// code is unbalanced.
func build8b10b(scale int) (*Instance, error) {
	n := 64 * scale
	const inBase = 0x20_0000
	const outBase = 0x22_0000
	const t5pBase = 0x24_0000 // positive-disparity 5b/6b codes
	const t5nBase = 0x24_4000
	const t3pBase = 0x24_8000
	const t3nBase = 0x24_c000

	// Synthetic code tables: entry = code | flag<<15, flag = "unbalanced"
	// (flips the running disparity).
	gen := lcg(1010)
	t5p := make([]uint64, 32)
	t5n := make([]uint64, 32)
	for v := range t5p {
		code := gen.intn(64)
		flag := code & 1
		t5p[v] = code | flag<<15
		t5n[v] = (code ^ 0x3f) | flag<<15
	}
	t3p := make([]uint64, 8)
	t3n := make([]uint64, 8)
	for v := range t3p {
		code := gen.intn(16)
		flag := (code >> 1) & 1
		t3p[v] = code | flag<<15
		t3n[v] = (code ^ 0xf) | flag<<15
	}

	b := prog.NewBuilder()
	bb := b.Block("enc_loop")
	i := bb.Read(2)
	inb := bb.Read(1)
	outb := bb.Read(3)
	rd := bb.Read(5) // running disparity: 0 or 1
	sym := bb.Load(bb.Add(inb, i), 0, 1, false)
	lo := bb.AndI(sym, 31)
	hi := bb.ShrI(sym, 5)
	t5pb := bb.Read(10)
	t5nb := bb.Read(11)
	t3pb := bb.Read(12)
	t3nb := bb.Read(13)
	rdSet := bb.OpI(isa.OpNe, rd, 0)
	loOff := bb.ShlI(lo, 3)
	c5base := bb.Select(rdSet, bb.Add(t5nb, loOff), bb.Add(t5pb, loOff))
	e5 := bb.Load(c5base, 0, 8, false)
	rd2 := bb.Op(isa.OpXor, rd, bb.AndI(bb.ShrI(e5, 15), 1))
	rd2Set := bb.OpI(isa.OpNe, rd2, 0)
	hiOff := bb.ShlI(hi, 3)
	c3base := bb.Select(rd2Set, bb.Add(t3nb, hiOff), bb.Add(t3pb, hiOff))
	e3 := bb.Load(c3base, 0, 8, false)
	rd3 := bb.Op(isa.OpXor, rd2, bb.AndI(bb.ShrI(e3, 15), 1))
	bb.Write(5, rd3)
	code := bb.Op(isa.OpOr, bb.ShlI(bb.AndI(e5, 0x3f), 4), bb.AndI(e3, 0xf))
	bb.Store(bb.Add(outb, bb.ShlI(i, 1)), code, 0, 2)
	loopCtlI(bb, 2, 1, int64(n), "enc_loop", exitLabel)
	haltBlock(b)
	p, err := b.Program("enc_loop")
	if err != nil {
		return nil, err
	}

	in := make([]byte, n)
	r := lcg(2021)
	for i := range in {
		in[i] = byte(r.intn(256))
	}
	want := make([]uint16, n)
	rdRef := uint64(0)
	for i := 0; i < n; i++ {
		lo := uint64(in[i]) & 31
		hi := uint64(in[i]) >> 5
		var e5 uint64
		if rdRef != 0 {
			e5 = t5n[lo]
		} else {
			e5 = t5p[lo]
		}
		rdRef ^= (e5 >> 15) & 1
		var e3 uint64
		if rdRef != 0 {
			e3 = t3n[hi]
		} else {
			e3 = t3p[hi]
		}
		rdRef ^= (e3 >> 15) & 1
		want[i] = uint16((e5&0x3f)<<4 | e3&0xf)
	}

	return &Instance{Prog: p, name: "8b10b", image: []cell{
		reg(1, inBase), reg(3, outBase), reg(5, 0),
		reg(10, t5pBase), reg(11, t5nBase), reg(12, t3pBase), reg(13, t3nBase),
		mem8(inBase, in),
		mem64(t5pBase, t5p), mem64(t5nBase, t5n), mem64(t3pBase, t3p), mem64(t3nBase, t3n),
		mem16(outBase, want).expect(),
	}}, nil
}
