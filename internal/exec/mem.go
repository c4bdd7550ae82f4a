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
	"fmt"
	"maps"
	"slices"
)

// Mem is the architectural memory interface.
type Mem interface {
	Load(addr uint64, size int, signed bool) uint64
	Store(addr uint64, size int, val uint64)
}

const pageShift = 12
const pageSize = 1 << pageShift

// PageMem is a sparse paged byte-addressable little-endian memory.  A
// page is the memory's own, or shared with the Image the memory was
// attached to: a shared page is read in place, and the first store to it
// copies it, so a run copies only the pages it dirties.  Loads, Digest
// and ReadBytes see one memory either way.  The zero value is ready to
// use.
type PageMem struct {
	pages map[uint64]page
}

// A page is one page of a memory and whether an Image owns it: a shared
// page is never written in place.
type page struct {
	b      *[pageSize]byte
	shared bool
}

// NewPageMem returns an empty memory.
func NewPageMem() *PageMem { return &PageMem{pages: map[uint64]page{}} }

// Image is an immutable memory image any number of memories share through
// Attach.  Nothing writes its pages once NewImage returns, so runs on
// several goroutines may read one image at once.
type Image struct {
	pages map[uint64]page
}

// NewImage builds an image: the contents write stores into an empty
// memory.
func NewImage(write func(m *PageMem)) *Image {
	var m PageMem
	write(&m)
	for pn, p := range m.pages {
		m.pages[pn] = page{b: p.b, shared: true}
	}
	return &Image{pages: m.pages}
}

// Digest returns the digest of a memory attached to the image and not yet
// written (PageMem.Digest).
func (im *Image) Digest() uint64 { return digest(im.pages) }

// Bytes returns the bytes of page data the image holds.
func (im *Image) Bytes() int { return len(im.pages) * pageSize }

// Attach makes the image's pages the contents of m, which must hold no
// page: m reads them in place until its first store to each.  Attaching
// to a memory that holds pages panics, since the image would silently
// replace what was stored there.
func (m *PageMem) Attach(im *Image) {
	if len(m.pages) != 0 {
		panic(fmt.Sprintf("exec: Attach on a memory already holding %d page(s): an image attaches only to an empty memory", len(m.pages)))
	}
	m.pages = maps.Clone(im.pages)
}

// page returns the page holding addr, nil if the memory has none.  For a
// write it returns a page of the memory's own, creating an empty one or
// copying a shared one first.
func (m *PageMem) page(addr uint64, write bool) *[pageSize]byte {
	pn := addr >> pageShift
	p := m.pages[pn]
	if !write || (p.b != nil && !p.shared) {
		return p.b
	}
	if m.pages == nil {
		m.pages = map[uint64]page{}
	}
	b := new([pageSize]byte)
	if p.shared {
		*b = *p.b
	}
	m.pages[pn] = page{b: b}
	return b
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

func (m *PageMem) Read64(addr uint64) uint64     { return m.Load(addr, 8, false) }
func (m *PageMem) Write64(addr uint64, v uint64) { m.Store(addr, 8, v) }

// Digest returns a hash of the memory image: page numbers in ascending
// order, each followed by its page's contents, skipping all-zero pages so
// the digest is insensitive to whether an untouched page was ever
// materialized.  Two memories with identical architectural contents
// produce identical digests regardless of access history, and so
// regardless of which of their pages are shared with an image.
func (m *PageMem) Digest() uint64 { return digest(m.pages) }

// digest folds the image a word at a time: FNV-1a's xor and multiply over
// 8 bytes, then a xorshift that feeds the product's high bits back into
// the low ones.  Each step is a bijection of the running hash for a fixed
// word and of the word for a fixed hash, so changing any one word of a
// non-zero page changes the digest.
func digest(pages map[uint64]page) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	pns := make([]uint64, 0, len(pages))
	for pn := range pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	h := uint64(offset64)
	fold := func(w uint64) {
		h = (h ^ w) * prime64
		h ^= h >> 32
	}
	for _, pn := range pns {
		p := pages[pn].b
		first := 0
		for first < pageSize && binary.LittleEndian.Uint64(p[first:]) == 0 {
			first += 8
		}
		if first == pageSize {
			continue
		}
		fold(pn)
		for i := 0; i < pageSize; i += 8 {
			fold(binary.LittleEndian.Uint64(p[i:]))
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
