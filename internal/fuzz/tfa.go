package fuzz

import (
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/clp-sim/tflex/internal/arch"
	"github.com/clp-sim/tflex/internal/asm"
	"github.com/clp-sim/tflex/internal/edgegen"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// A .tfa file is a self-contained divergence reproducer: the program in
// the textual assembly grammar, plus the initial architectural state as
// structured comments the assembler ignores:
//
//	; seed 42
//	; diverging sim-opt-2: r3 0x1 vs 0x2
//	; input.reg r1 0xdeadbeef
//	; input.mem 0x400000 00ff12...
//	block b0:
//	    ...
//
// ParseTFA reads back exactly what WriteTFA wrote, so a reproducer
// replays anywhere without the generator or its seed.

// WriteTFA renders the divergence as a .tfa reproducer.
func WriteTFA(w io.Writer, d *Divergence) error {
	s := d.Spec
	if _, err := fmt.Fprintf(w, "; .tfa differential-fuzz reproducer\n; seed %d\n", s.Seed); err != nil {
		return err
	}
	if d.Err != nil {
		fmt.Fprintf(w, "; diverging %s: error: %v\n", d.Exec, d.Err)
	} else {
		fmt.Fprintf(w, "; diverging %s: %s\n", d.Exec, d.Diff)
	}
	in := s.Input()
	for r := 0; r < isa.NumRegs; r++ {
		if in.Regs[r] != 0 {
			fmt.Fprintf(w, "; input.reg r%d 0x%x\n", r, in.Regs[r])
		}
	}
	for off := 0; off < len(in.Mem); off += 32 {
		end := min(off+32, len(in.Mem))
		chunk := in.Mem[off:end]
		if allZero(chunk) {
			continue
		}
		fmt.Fprintf(w, "; input.mem 0x%x %s\n", in.MemBase+uint64(off), hex.EncodeToString(chunk))
	}
	_, err := io.WriteString(w, s.Asm())
	return err
}

// DumpTFA writes the reproducer to a temp file and returns its path.
// When the diverging executor is a timing simulation (Cores > 0), the
// divergence is replayed with the flight recorder armed and the dump
// lands alongside as <path>.flight.json — the last retirements leading
// up to the disagreement and the blocks still in flight.
func DumpTFA(d *Divergence) (string, error) {
	f, err := os.CreateTemp("", fmt.Sprintf("tflex-fuzz-seed%d-*.tfa", d.Spec.Seed))
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := WriteTFA(f, d); err != nil {
		return "", err
	}
	if d.Cores > 0 {
		if err := writeFlightSidecar(f.Name(), d); err != nil {
			return f.Name(), err
		}
	}
	return f.Name(), nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// maxImageBytes bounds the memory image a .tfa may describe, from its
// lowest input.mem address to its highest: edgegen writes at most
// DataBytes (512), so 1 MiB is ample, and a hostile file cannot make
// ParseTFA allocate the address space.
const maxImageBytes = 1 << 20

// ParseTFA reads a .tfa reproducer back into a runnable (program,
// input) pair.
func ParseTFA(src string) (*prog.Program, arch.Input, error) {
	in := arch.Input{MaxBlocks: edgegen.RunMaxBlocks, MaxCycles: edgegen.RunMaxCycles}
	memBase, memTop := uint64(0), uint64(0)
	type chunk struct {
		addr uint64
		data []byte
	}
	var chunks []chunk
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		bad := func(err error) (*prog.Program, arch.Input, error) {
			return nil, arch.Input{}, fmt.Errorf("tfa: line %d: %w", ln+1, err)
		}
		switch {
		case strings.HasPrefix(line, "; input.reg "):
			f := strings.Fields(line)
			if len(f) != 4 || !strings.HasPrefix(f[2], "r") {
				return bad(fmt.Errorf("malformed input.reg"))
			}
			r, err := strconv.Atoi(f[2][1:])
			if err != nil || r < 0 || r >= isa.NumRegs {
				return bad(fmt.Errorf("bad register %q", f[2]))
			}
			v, err := strconv.ParseUint(f[3], 0, 64)
			if err != nil {
				return bad(fmt.Errorf("bad value %q", f[3]))
			}
			in.Regs[r] = v
		case strings.HasPrefix(line, "; input.mem "):
			f := strings.Fields(line)
			if len(f) != 4 {
				return bad(fmt.Errorf("malformed input.mem"))
			}
			addr, err := strconv.ParseUint(f[2], 0, 64)
			if err != nil {
				return bad(fmt.Errorf("bad address %q", f[2]))
			}
			data, err := hex.DecodeString(f[3])
			if err != nil {
				return bad(fmt.Errorf("bad hex: %v", err))
			}
			top := addr + uint64(len(data))
			if top < addr {
				return bad(fmt.Errorf("input.mem at %#x runs past the address space", addr))
			}
			lo, hi := addr, top
			if len(chunks) > 0 {
				lo, hi = min(lo, memBase), max(hi, memTop)
			}
			if hi-lo > maxImageBytes {
				return bad(fmt.Errorf("input.mem image spans %d bytes, over the %d-byte bound", hi-lo, maxImageBytes))
			}
			memBase, memTop = lo, hi
			chunks = append(chunks, chunk{addr, data})
		}
	}
	if len(chunks) > 0 {
		in.MemBase = memBase
		in.Mem = make([]byte, memTop-memBase)
		for _, c := range chunks {
			copy(in.Mem[c.addr-memBase:], c.data)
		}
	}
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, arch.Input{}, err
	}
	return p, in, nil
}
