// Package exec implements architectural (functional) execution of EDGE
// programs: dataflow firing within blocks, predication with null/dead token
// propagation, load/store ordering by LSID, and sequential block-to-block
// control flow.  It also produces linearized instruction traces for the
// conventional-superscalar comparison model.
//
// The timing simulator reuses this package's ALU evaluation and memory so
// that simulated runs are bit-identical to functional runs — the basis of
// the end-to-end correctness tests.
package exec

import (
	"encoding/binary"
	"math"
	"sort"
)

// Mem is the architectural memory interface.
type Mem interface {
	Load(addr uint64, size int, signed bool) uint64
	Store(addr uint64, size int, val uint64)
}

const pageShift = 12
const pageSize = 1 << pageShift

// PageMem is a sparse paged byte-addressable little-endian memory.
// The zero value is ready to use.
type PageMem struct {
	pages map[uint64]*[pageSize]byte
}

// NewPageMem returns an empty memory.
func NewPageMem() *PageMem { return &PageMem{pages: map[uint64]*[pageSize]byte{}} }

func (m *PageMem) page(addr uint64, create bool) *[pageSize]byte {
	if m.pages == nil {
		m.pages = map[uint64]*[pageSize]byte{}
	}
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// readBytes, like writeBytes, looks a page up once per page the access
// touches, not once per byte: one lookup for every aligned load and store,
// two for an access that crosses a boundary (or wraps past the top of the
// address space into page 0).
func (m *PageMem) readBytes(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(buf), int(pageSize-off))
		if p := m.page(addr, false); p != nil {
			copy(buf[:n], p[off:])
		} else {
			clear(buf[:n])
		}
		addr, buf = addr+uint64(n), buf[n:]
	}
}

func (m *PageMem) writeBytes(addr uint64, buf []byte) {
	for len(buf) > 0 {
		n := copy(m.page(addr, true)[addr&(pageSize-1):], buf)
		addr, buf = addr+uint64(n), buf[n:]
	}
}

// Load reads size bytes (1, 2, 4 or 8) at addr, sign- or zero-extending.
func (m *PageMem) Load(addr uint64, size int, signed bool) uint64 {
	var buf [8]byte
	m.readBytes(addr, buf[:size])
	v := binary.LittleEndian.Uint64(buf[:])
	if signed {
		shift := 64 - 8*size
		v = uint64(int64(v<<uint(shift)) >> uint(shift))
	}
	return v
}

// Store writes the low size bytes of val at addr.
func (m *PageMem) Store(addr uint64, size int, val uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	m.writeBytes(addr, buf[:size])
}

// Convenience accessors for harnesses and tests.

func (m *PageMem) Read64(addr uint64) uint64       { return m.Load(addr, 8, false) }
func (m *PageMem) Write64(addr uint64, v uint64)   { m.Store(addr, 8, v) }
func (m *PageMem) Read32(addr uint64) uint32       { return uint32(m.Load(addr, 4, false)) }
func (m *PageMem) Write32(addr uint64, v uint32)   { m.Store(addr, 4, uint64(v)) }
func (m *PageMem) ReadF64(addr uint64) float64     { return math.Float64frombits(m.Read64(addr)) }
func (m *PageMem) WriteF64(addr uint64, v float64) { m.Write64(addr, math.Float64bits(v)) }

// Digest returns an FNV-1a hash of the memory image: page numbers in
// ascending order followed by page contents, skipping all-zero pages so
// the digest is insensitive to whether an untouched page was ever
// materialized.  Two memories with identical architectural contents
// produce identical digests regardless of access history.
func (m *PageMem) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	h := uint64(offset64)
	byte1a := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	for _, pn := range pns {
		p := m.pages[pn]
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], pn)
		for _, b := range hdr {
			byte1a(b)
		}
		for _, b := range p {
			byte1a(b)
		}
	}
	return h
}

// WriteBytes copies raw bytes into memory.
func (m *PageMem) WriteBytes(addr uint64, b []byte) { m.writeBytes(addr, b) }

// ReadBytes copies raw bytes out of memory.
func (m *PageMem) ReadBytes(addr uint64, n int) []byte {
	b := make([]byte, n)
	m.readBytes(addr, b)
	return b
}
