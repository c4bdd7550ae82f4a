package sim

import (
	"math/rand"
	"testing"

	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/mem"
)

// overlayOracle is the store overlay as loadValue computed it before each
// block kept its fired stores in LSID order: window x LSID x stores, the
// stores in the order they fired.  It is kept here as the oracle the way
// ringOracle holds the reservation rings.
func overlayOracle(m *exec.PageMem, window [][]firedStore, seqs []uint64, key mem.MemKey, addr uint64, size int, signed bool) uint64 {
	var buf [8]byte
	base := m.Load(addr, size, false)
	for i := 0; i < size; i++ {
		buf[i] = byte(base >> (8 * i))
	}
	for wi, stores := range window {
		if seqs[wi] > key.BlockSeq {
			break
		}
		for lsid := int8(0); lsid < isa.MaxMemOps; lsid++ {
			for si := range stores {
				s := &stores[si]
				if s.key.LSID != lsid || !s.key.Less(key) {
					continue
				}
				for bb := 0; bb < int(s.size); bb++ {
					off := int64(s.addr) + int64(bb) - int64(addr)
					if off >= 0 && off < int64(size) {
						buf[off] = byte(s.val >> (8 * bb))
					}
				}
			}
		}
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	if signed {
		shift := 64 - 8*size
		v = uint64(int64(v<<uint(shift)) >> uint(shift))
	}
	return v
}

// TestLoadValueMatchesOverlayOracle: random windows of blocks whose
// stores fire in random order — overlapping 1/2/4/8-byte stores, twin
// LSIDs (both arms of a predicated pair), regions at the bottom, the
// middle and the very top of the address space, where the offset
// arithmetic wraps — read by loads of every size and program position.
func TestLoadValueMatchesOverlayOracle(t *testing.T) {
	sizes := [...]uint8{1, 2, 4, 8}
	bases := [...]uint64{0, 1 << 20, ^uint64(0) - 23} // the last region wraps through address 0
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		base := bases[rng.Intn(len(bases))]
		at := func() uint64 { return base + uint64(rng.Intn(32)) }
		p := &Proc{Mem: exec.NewPageMem()}
		for i := uint64(0); i < 48; i++ {
			p.Mem.Store(base+i, 1, rng.Uint64())
		}
		var fired [][]firedStore
		var seqs []uint64
		seq := uint64(rng.Intn(3))
		for n := 1 + rng.Intn(4); n > 0; n-- {
			b := &IFB{seq: seq}
			var inOrder []firedStore
			for k := rng.Intn(14); k > 0; k-- {
				s := firedStore{
					key:  mem.MemKey{BlockSeq: seq, LSID: int8(rng.Intn(8))},
					addr: at(), size: sizes[rng.Intn(len(sizes))], val: rng.Uint64(),
				}
				inOrder = append(inOrder, s)
				b.addStore(s)
			}
			p.window = append(p.window, b)
			fired = append(fired, inOrder)
			seqs = append(seqs, seq)
			seq += 1 + uint64(rng.Intn(2))
		}
		for l := 0; l < 20; l++ {
			key := mem.MemKey{BlockSeq: uint64(rng.Intn(int(seq) + 1)), LSID: int8(rng.Intn(9))}
			addr, size, signed := at(), int(sizes[rng.Intn(len(sizes))]), rng.Intn(2) == 0
			want := overlayOracle(p.Mem, fired, seqs, key, addr, size, signed)
			if got := p.loadValue(key, addr, size, signed); got != want {
				t.Fatalf("trial %d: load %+v of %d bytes at %#x (signed %t) = %#x, oracle %#x; window %+v",
					trial, key, size, addr, signed, got, want, fired)
			}
		}
	}
}
