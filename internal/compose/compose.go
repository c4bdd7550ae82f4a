// Package compose defines the composition machinery of a CLP: the
// per-core microarchitectural parameters (Table 1 of the paper), the three
// interleaving hash classes used to spread state across participating
// cores, and the geometry of composed processors on the 4x8 core array.
//
// The three hash classes (paper §4):
//
//   - block starting address — selects the owner core, which holds the
//     I-cache tags, next-block predictor state and block bookkeeping;
//   - instruction ID within a block — selects the core whose issue window
//     and I-cache bank hold each instruction;
//   - data address — selects the L1 D-cache/LSQ bank.
package compose

import (
	"fmt"
	"sort"

	"github.com/clp-sim/tflex/internal/isa"
)

// Chip geometry: 32 cores in a 4-wide, 8-tall array (Figure 1).
const (
	ArrayW   = 4
	ArrayH   = 8
	NumCores = ArrayW * ArrayH
)

// CoreParams are the single-core TFlex parameters of Table 1.
type CoreParams struct {
	// Instruction supply.
	L1IBytes     int // partitioned 8KB I-cache
	L1IHitCycles int // 1-cycle hit
	PredictorLat int // 3-cycle next-block prediction

	// Predictor table sizes (entries).
	LocalL1Entries int // 64
	LocalL2Entries int // 128
	GlobalEntries  int // 512
	ChoiceEntries  int // 512
	RASEntries     int // 16 per core, sequentially composed
	CTBEntries     int // 16
	BTBEntries     int // 128
	BtypeEntries   int // 256

	// Execution.
	WindowEntries int // 128-entry RAM-structured issue window
	IssueTotal    int // dual issue
	IssueFP       int // at most one FP per cycle
	DispatchBW    int // instructions dispatched per core per cycle

	// Data supply.
	L1DBytes     int // partitioned 8KB D-cache
	L1DHitCycles int // 2-cycle hit
	L1DAssoc     int // 2-way
	LineBytes    int
	LSQEntries   int // 44-entry LSQ bank

	// Outer hierarchy.
	L2Bytes    int // 4MB shared S-NUCA
	L2Assoc    int
	L2HitMin   int // 5..27 cycles depending on bank distance
	L2HitMax   int
	DRAMCycles int // 150-cycle unloaded main memory
	OperandBW  int // operand network flits/link/cycle (TFlex: 2)
	ControlBW  int // control network flits/link/cycle

	// Execution latencies (cycles) by class.
	IntLat, MulLat, DivLat, FPLat, FDivLat int
}

// DefaultCoreParams returns the Table 1 configuration.
func DefaultCoreParams() CoreParams {
	return CoreParams{
		L1IBytes:     8 << 10,
		L1IHitCycles: 1,
		PredictorLat: 3,

		LocalL1Entries: 64,
		LocalL2Entries: 128,
		GlobalEntries:  512,
		ChoiceEntries:  512,
		RASEntries:     16,
		CTBEntries:     16,
		BTBEntries:     128,
		BtypeEntries:   256,

		WindowEntries: 128,
		IssueTotal:    2,
		IssueFP:       1,
		DispatchBW:    4,

		L1DBytes:     8 << 10,
		L1DHitCycles: 2,
		L1DAssoc:     2,
		LineBytes:    64,
		LSQEntries:   44,

		L2Bytes:    4 << 20,
		L2Assoc:    8,
		L2HitMin:   5,
		L2HitMax:   27,
		DRAMCycles: 150,
		OperandBW:  2,
		ControlBW:  2,

		IntLat: 1, MulLat: 3, DivLat: 24, FPLat: 4, FDivLat: 16,
	}
}

// OwnerOf hashes a block starting address onto one of n participating
// cores (an index into the composed processor's core list).
func OwnerOf(blockAddr uint64, n int) int {
	return int((blockAddr / uint64(isa.BlockBytes)) % uint64(n))
}

// InstCore maps an instruction ID to the participating-core index holding
// it: the low-order bits of the target field, reinterpreted per
// composition (Figure 4a).
func InstCore(instID, n int) int { return instID % n }

// RegBank maps an architectural register to the participating-core index
// holding its register-file bank.
func RegBank(reg uint8, n int) int { return int(reg) % n }

// DataBank maps a data address to the participating-core index of its L1
// D-cache/LSQ bank: the high and low portions of the line address are
// XORed and folded modulo the number of cores, so all bytes of a cache
// line map to one bank (paper §4.5).
func DataBank(addr uint64, lineBytes, n int) int {
	line := addr / uint64(lineBytes)
	h := line ^ (line >> 7) ^ (line >> 14) ^ (line >> 21)
	return int(h % uint64(n))
}

// Processor describes one composed logical processor: an ordered list of
// physical core IDs on the chip array.
type Processor struct {
	Cores []int
}

// N returns the number of participating cores.
func (p Processor) N() int { return len(p.Cores) }

// Validate checks the core list is non-empty, in range and duplicate-free.
func (p Processor) Validate() error {
	if len(p.Cores) == 0 {
		return fmt.Errorf("compose: empty processor")
	}
	seen := map[int]bool{}
	for _, c := range p.Cores {
		if c < 0 || c >= NumCores {
			return fmt.Errorf("compose: core %d out of range", c)
		}
		if seen[c] {
			return fmt.Errorf("compose: core %d listed twice", c)
		}
		seen[c] = true
	}
	return nil
}

// shapes lists the sub-rectangle (w, h) used for each power-of-two
// composition on the 4x8 array, mirroring Figure 1.
var shapes = map[int][2]int{
	1:  {1, 1},
	2:  {2, 1},
	4:  {2, 2},
	8:  {4, 2},
	16: {4, 4},
	32: {4, 8},
}

// Rect returns the processor composed of the k cores in the rectangle
// whose top-left corner is at (x0, y0).  k must be a supported
// power-of-two composition size.
func Rect(x0, y0, k int) (Processor, error) {
	sh, ok := shapes[k]
	if !ok {
		return Processor{}, fmt.Errorf("compose: unsupported composition size %d", k)
	}
	w, h := sh[0], sh[1]
	if x0 < 0 || y0 < 0 || x0+w > ArrayW || y0+h > ArrayH {
		return Processor{}, fmt.Errorf("compose: %dx%d rectangle at (%d,%d) does not fit", w, h, x0, y0)
	}
	var cores []int
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			cores = append(cores, y*ArrayW+x)
		}
	}
	return Processor{Cores: cores}, nil
}

// MustRect is Rect but panics on error.
func MustRect(x0, y0, k int) Processor {
	p, err := Rect(x0, y0, k)
	if err != nil {
		panic(err)
	}
	return p
}

// Strip returns a processor composed of k consecutive cores in row-major
// order starting at core `start`.  Unlike Rect, any size from 1 to 32 is
// allowed — the paper's "any point in between".  Power-of-two sizes keep
// the placement pass's chain affinity; other sizes still run correctly.
func Strip(start, k int) (Processor, error) {
	if k < 1 || start < 0 || start+k > NumCores {
		return Processor{}, fmt.Errorf("compose: strip [%d,%d) out of range", start, start+k)
	}
	cores := make([]int, k)
	for i := range cores {
		cores[i] = start + i
	}
	return Processor{Cores: cores}, nil
}

// Partition tiles the chip with nProcs processors of size k each,
// left-to-right, top-to-bottom (the fixed-CMP configurations of §7).
func Partition(k, nProcs int) ([]Processor, error) {
	sh, ok := shapes[k]
	if !ok {
		return nil, fmt.Errorf("compose: unsupported composition size %d", k)
	}
	w, h := sh[0], sh[1]
	var procs []Processor
	for y := 0; y+h <= ArrayH && len(procs) < nProcs; y += h {
		for x := 0; x+w <= ArrayW && len(procs) < nProcs; x += w {
			p, err := Rect(x, y, k)
			if err != nil {
				return nil, err
			}
			procs = append(procs, p)
		}
	}
	if len(procs) < nProcs {
		return nil, fmt.Errorf("compose: cannot fit %d processors of %d cores", nProcs, k)
	}
	return procs, nil
}

// PackAsymmetric places processors of the given (possibly unequal) sizes
// onto the array greedily, largest first.  Sizes must be supported
// composition sizes summing to at most NumCores.  Returns processors in
// the order of the input sizes.
func PackAsymmetric(sizes []int) ([]Processor, error) {
	type req struct{ size, idx int }
	reqs := make([]req, len(sizes))
	total := 0
	for i, s := range sizes {
		reqs[i] = req{s, i}
		total += s
	}
	if total > NumCores {
		return nil, fmt.Errorf("compose: %d cores requested, have %d", total, NumCores)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].size > reqs[j].size })
	used := [NumCores]bool{}
	out := make([]Processor, len(sizes))
	for _, r := range reqs {
		sh, ok := shapes[r.size]
		if !ok {
			return nil, fmt.Errorf("compose: unsupported composition size %d", r.size)
		}
		w, h := sh[0], sh[1]
		placed := false
	search:
		for y := 0; y+h <= ArrayH; y++ {
			for x := 0; x+w <= ArrayW; x++ {
				free := true
				for yy := y; yy < y+h && free; yy++ {
					for xx := x; xx < x+w && free; xx++ {
						free = !used[yy*ArrayW+xx]
					}
				}
				if !free {
					continue
				}
				p, _ := Rect(x, y, r.size)
				for _, c := range p.Cores {
					used[c] = true
				}
				out[r.idx] = p
				placed = true
				break search
			}
		}
		if !placed {
			return nil, fmt.Errorf("compose: could not place %d-core processor (fragmentation)", r.size)
		}
	}
	return out, nil
}

// Sizes lists the supported composition sizes in ascending order.
func Sizes() []int { return []int{1, 2, 4, 8, 16, 32} }
