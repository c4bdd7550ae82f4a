// Package kernels provides the 26-benchmark workload suite mirroring the
// paper's Table 1 mix: 3 hand-optimized kernels (conv, ct, genalg), 7
// EEMBC-style embedded kernels, 2 Versabench-style kernels (802.11b,
// 8b10b), and 14 SPEC-CPU-style kernels (8 integer, 6 floating point).
//
// Each kernel is an EDGE program built with the prog builder, a
// deterministic input generator, and a pure-Go reference implementation
// used to validate functional and timing-simulator runs bit-for-bit.
// Hand-optimized kernels use large, unrolled, predicated hyperblocks (the
// TRIPS hand-optimization style); SPEC-style kernels use small basic-block
// shaped blocks with frequent branches, mimicking the output quality of
// the academic compiler — the property driving the paper's Figure 5
// split (TRIPS wins hand-optimized code, loses compiled SPEC INT).
package kernels

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// Instance is one runnable kernel: its program and, as data, the
// architectural state around a run.  Its image holds the input registers
// and memory and the expected registers and memory Check compares, all
// computed at build time by the kernel's Go reference implementation;
// inputs and expected outputs share one list so a build allocates one
// image beside its data.  The input memory is also written, once per
// (kernel, scale) and process, into a shared exec.Image, which Init
// attaches.  Init and Check only read the Instance, so one build serves
// any number of runs.
type Instance struct {
	Prog  *prog.Program
	name  string
	image []cell
	mem   *exec.Image // the input memory cells, written once
}

// A cell is one entry of a kernel's image: one register, or a span of
// memory elements held in a slice the build computed (never a copy).
// Init writes the input cells; Check compares the expected ones.
type cell struct {
	elem     elem
	expected bool
	reg      uint8  // a register cell's register
	stride   uint32 // a span's bytes from one element to the next
	word     uint64 // a register cell's value, or a span's base address
	b        []byte
	h        []uint16
	w        []uint64
	f        []float64
}

type elem uint8

const (
	elemReg elem = iota
	elem8
	elem16
	elem64
	elemF64 // float64 values, stored and compared as their bits
)

func reg(n int, v uint64) cell             { return cell{elem: elemReg, reg: uint8(n), word: v} }
func regF(n int, v float64) cell           { return reg(n, math.Float64bits(v)) }
func mem8(addr uint64, s []byte) cell      { return cell{elem: elem8, word: addr, stride: 1, b: s} }
func mem16(addr uint64, s []uint16) cell   { return cell{elem: elem16, word: addr, stride: 2, h: s} }
func mem64(addr uint64, s []uint64) cell   { return cell{elem: elem64, word: addr, stride: 8, w: s} }
func memF64(addr uint64, s []float64) cell { return cell{elem: elemF64, word: addr, stride: 8, f: s} }

// every interleaves a span with others: its elements sit stride bytes
// apart.
func (c cell) every(stride uint32) cell { c.stride = stride; return c }

// expect makes c an expected output, compared by Check.
func (c cell) expect() cell { c.expected = true; return c }

func (c *cell) len() int {
	switch c.elem {
	case elem8:
		return len(c.b)
	case elem16:
		return len(c.h)
	case elem64:
		return len(c.w)
	case elemF64:
		return len(c.f)
	}
	return 0
}

// addr returns the address of span element i.
func (c *cell) addr(i int) uint64 { return c.word + uint64(i)*uint64(c.stride) }

// at returns span element i as memory holds it.
func (c *cell) at(i int) (v uint64, size int) {
	switch c.elem {
	case elem8:
		return uint64(c.b[i]), 1
	case elem16:
		return uint64(c.h[i]), 2
	case elem64:
		return c.w[i], 8
	}
	return math.Float64bits(c.f[i]), 8
}

// Init writes the kernel's input registers into a register file and
// attaches its input memory image to m, which must be a fresh memory:
// the run reads the image in place and copies only the pages it stores
// to.
func (inst *Instance) Init(regs *[isa.NumRegs]uint64, m *exec.PageMem) {
	for i := range inst.image {
		if c := &inst.image[i]; c.elem == elemReg && !c.expected {
			regs[c.reg] = c.word
		}
	}
	m.Attach(inst.mem)
}

// writeInputs stores the input memory cells element by element: the one
// build of the kernel's exec.Image.
func (inst *Instance) writeInputs(m *exec.PageMem) {
	for i := range inst.image {
		c := &inst.image[i]
		if c.expected || c.elem == elemReg {
			continue
		}
		for j := range c.len() {
			v, size := c.at(j)
			m.Store(c.addr(j), size, v)
		}
	}
}

// Check compares a final register file and memory with the kernel's
// expected image and names the first register or memory element that
// differs.
func (inst *Instance) Check(regs *[isa.NumRegs]uint64, m *exec.PageMem) error {
	for i := range inst.image {
		c := &inst.image[i]
		switch {
		case !c.expected:
		case c.elem == elemReg:
			if got := regs[c.reg]; got != c.word {
				return fmt.Errorf("%s: r%d = %d (%#x), want %d (%#x)", inst.name, c.reg, got, got, c.word, c.word)
			}
		default:
			for j := range c.len() {
				want, size := c.at(j)
				if got := m.Load(c.addr(j), size, false); got != want {
					return fmt.Errorf("%s: element %d @%#x = %d (%#x), want %d (%#x)", inst.name, j, c.addr(j), got, got, want, want)
				}
			}
		}
	}
	return nil
}

// Kernel is one benchmark in the suite.
type Kernel struct {
	Name    string
	Suite   string // "hand", "eembc", "versa", "specint", "specfp", "ll"
	HighILP bool
	// Extra marks kernels outside the paper's 26-benchmark Table 1 mix
	// (e.g. the Livermore loops); they are excluded from All() so the
	// regenerated figures keep the paper's population.
	Extra bool
	Build func(scale int) (*Instance, error)
}

var registry = map[string]Kernel{}
var order []string

// images holds every input image a Build made, by kernel and scale, for
// the life of the process; its pages are read by every run of the
// kernel at that scale and copied only where a run stores.
var (
	imagesMu sync.Mutex
	images   = map[imageKey]*exec.Image{}
)

type imageKey struct {
	name  string
	scale int
}

// register adds k, its Build wrapped to give every Instance the input
// image of its (kernel, scale), built by the first Build and shared by
// the rest.  Only the image is kept: each Build returns a fresh program
// and data, which are freed with their caller.
func register(k Kernel) {
	if _, dup := registry[k.Name]; dup {
		panic("kernels: duplicate " + k.Name)
	}
	build := k.Build
	k.Build = func(scale int) (*Instance, error) {
		inst, err := build(scale)
		if err != nil {
			return nil, err
		}
		key := imageKey{k.Name, scale}
		imagesMu.Lock()
		defer imagesMu.Unlock()
		if inst.mem = images[key]; inst.mem == nil {
			inst.mem = exec.NewImage(inst.writeInputs)
			images[key] = inst.mem
		}
		return inst, nil
	}
	registry[k.Name] = k
	order = append(order, k.Name)
}

// All returns the paper's 26-kernel suite, hand-optimized suites first,
// then SPEC-style, in stable registration order.
func All() []Kernel {
	names := append([]string(nil), order...)
	rank := map[string]int{"hand": 0, "eembc": 1, "versa": 2, "specint": 3, "specfp": 4, "ll": 5}
	sort.SliceStable(names, func(i, j int) bool {
		return rank[registry[names[i]].Suite] < rank[registry[names[j]].Suite]
	})
	ks := make([]Kernel, 0, len(names))
	for _, n := range names {
		if registry[n].Extra {
			continue
		}
		ks = append(ks, registry[n])
	}
	return ks
}

// Extras returns the kernels beyond the paper's Table 1 population (the
// Livermore loops).
func Extras() []Kernel {
	var ks []Kernel
	for _, n := range order {
		if registry[n].Extra {
			ks = append(ks, registry[n])
		}
	}
	return ks
}

// ByName looks a kernel up.
func ByName(name string) (Kernel, bool) {
	k, ok := registry[name]
	return k, ok
}

// Names lists all kernel names in suite order.
func Names() []string {
	var ns []string
	for _, k := range All() {
		ns = append(ns, k.Name)
	}
	return ns
}

// HandOptimized returns the 12 hand-optimized benchmarks (hand + EEMBC +
// Versabench) used for the paper's multiprogrammed workloads (§7).
func HandOptimized() []Kernel {
	var ks []Kernel
	for _, k := range All() {
		if k.Suite == "hand" || k.Suite == "eembc" || k.Suite == "versa" {
			ks = append(ks, k)
		}
	}
	return ks
}

// lcg is the deterministic input generator shared by kernels and
// references.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = (*r)*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 17
}

func (r *lcg) intn(n uint64) uint64 { return r.next() % n }

// loopCtlI emits the canonical induction update and back edge:
// iv += step; if iv < limit goto loop else goto done.
func loopCtlI(bb *prog.BlockBuilder, ivReg int, step int64, limit int64, loop, done string) {
	iv := bb.AddI(bb.Read(ivReg), step)
	bb.Write(ivReg, iv)
	bb.BranchIf(bb.OpI(isa.OpLt, iv, limit), loop, done)
}

// haltBlock appends the terminal block.
func haltBlock(b *prog.Builder) { b.Block("halt_exit").Halt() }

const exitLabel = "halt_exit"
