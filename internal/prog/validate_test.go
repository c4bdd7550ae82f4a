package prog

import (
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/isa"
)

// haltBlock returns a minimal valid block: one unpredicated halt.
func haltBlock(name string) *isa.Block {
	return &isa.Block{
		Name:  name,
		Insts: []isa.Inst{{Op: isa.OpHalt}},
	}
}

// progOf wraps blocks into a Program without running layout, so tests
// exercise Validate directly on malformed encodings the builder would
// refuse to construct.
func progOf(blocks ...*isa.Block) *Program {
	return &Program{Blocks: blocks, Entry: blocks[0].Name}
}

func TestValidateAcceptsMinimalProgram(t *testing.T) {
	if err := Validate(progOf(haltBlock("e"))); err != nil {
		t.Fatalf("minimal program rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		prog func() *Program
		want string
	}{
		{
			name: "129th instruction",
			prog: func() *Program {
				b := haltBlock("e")
				b.Insts = make([]isa.Inst, isa.MaxBlockInsts+1)
				b.Insts[0] = isa.Inst{Op: isa.OpHalt}
				return progOf(b)
			},
			want: "129 instructions exceeds 128",
		},
		{
			name: "33rd read slot",
			prog: func() *Program {
				b := haltBlock("e")
				for i := 0; i <= isa.MaxReads; i++ {
					b.Reads = append(b.Reads, isa.ReadSlot{Reg: uint8(i)})
				}
				return progOf(b)
			},
			want: "33 reads exceeds 32",
		},
		{
			name: "33rd write slot",
			prog: func() *Program {
				b := haltBlock("e")
				for i := 0; i <= isa.MaxWrites; i++ {
					b.Writes = append(b.Writes, isa.WriteSlot{Reg: uint8(i)})
				}
				return progOf(b)
			},
			want: "33 writes exceeds 32",
		},
		{
			name: "33rd store ID",
			prog: func() *Program {
				b := haltBlock("e")
				b.Insts = append(b.Insts, isa.Inst{
					Op: isa.OpStore, LSID: int8(isa.MaxMemOps), NullLSID: -1, MemSize: 8,
				})
				return progOf(b)
			},
			want: "invalid LSID 32",
		},
		{
			name: "duplicate store ID without predication",
			prog: func() *Program {
				b := haltBlock("e")
				b.Insts = append(b.Insts,
					isa.Inst{Op: isa.OpStore, LSID: 3, NullLSID: -1, MemSize: 8},
					isa.Inst{Op: isa.OpStore, LSID: 3, NullLSID: -1, MemSize: 8},
				)
				return progOf(b)
			},
			want: "reuses LSID 3 without predication",
		},
		{
			name: "target past block end",
			prog: func() *Program {
				b := haltBlock("e")
				b.Insts = append(b.Insts, isa.Inst{
					Op: isa.OpAdd, Targets: []isa.Target{{Kind: isa.TargetLeft, Index: 9}},
				})
				return progOf(b)
			},
			want: "targets instruction 9 of 2",
		},
		{
			name: "write-slot target past the write list",
			prog: func() *Program {
				b := haltBlock("e")
				b.Insts = append(b.Insts, isa.Inst{
					Op: isa.OpAdd, Targets: []isa.Target{{Kind: isa.TargetWrite, Index: 0}},
				})
				return progOf(b)
			},
			want: "targets write slot 0 of 0",
		},
		{
			name: "dangling branch label",
			prog: func() *Program {
				b := haltBlock("e")
				b.Insts = append(b.Insts, isa.Inst{Op: isa.OpGenC, BranchTo: "nowhere"})
				return progOf(b)
			},
			want: `undefined label "nowhere"`,
		},
		{
			name: "missing entry block",
			prog: func() *Program {
				p := progOf(haltBlock("e"))
				p.Entry = "ghost"
				return p
			},
			want: `entry block "ghost" not defined`,
		},
		{
			name: "duplicate block names",
			prog: func() *Program {
				return progOf(haltBlock("e"), haltBlock("e"))
			},
			want: `duplicate block name "e"`,
		},
		{
			name: "two unpredicated branches",
			prog: func() *Program {
				b := haltBlock("e")
				b.Insts = append(b.Insts, isa.Inst{Op: isa.OpHalt})
				return progOf(b)
			},
			want: "2 unpredicated branches",
		},
		{
			name: "store mask disagrees with the store slots",
			prog: func() *Program {
				b := haltBlock("e")
				b.Insts = append(b.Insts, isa.Inst{Op: isa.OpStore, LSID: 3, NullLSID: -1, MemSize: 8})
				return progOf(b) // NumStores left 0: the block would commit before its store
			},
			want: "store mask 0, but 1 store slots",
		},
		{
			name: "no branch",
			prog: func() *Program {
				b := &isa.Block{Name: "e", Insts: []isa.Inst{{Op: isa.OpGenC}}}
				return progOf(b)
			},
			want: "no branch",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.prog())
			if err == nil {
				t.Fatalf("Validate accepted an invalid program (want error containing %q)", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestValidateAggregates pins that Validate reports every violation of
// a candidate at once instead of stopping at the first, which is what
// makes it useful as a generator's rejection oracle.
func TestValidateAggregates(t *testing.T) {
	b := haltBlock("e")
	b.Insts = append(b.Insts,
		isa.Inst{Op: isa.OpStore, LSID: int8(isa.MaxMemOps), NullLSID: -1, MemSize: 8},
		isa.Inst{Op: isa.OpAdd, Targets: []isa.Target{{Kind: isa.TargetLeft, Index: 99}}},
	)
	p := progOf(b)
	p.Entry = "ghost"
	err := Validate(p)
	if err == nil {
		t.Fatal("Validate accepted a triply-invalid program")
	}
	for _, want := range []string{"invalid LSID 32", "targets instruction 99", `entry block "ghost"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregate error %q missing %q", err, want)
		}
	}
}

// TestBuilderCallsValidate pins that the builder's Program seal runs the
// exported validation (a builder bug that emitted an invalid encoding
// must surface at build time, not mid-simulation).
func TestBuilderCallsValidate(t *testing.T) {
	b := NewBuilder()
	bb := b.Block("e")
	bb.Branch("nowhere") // label never defined
	if _, err := b.Program("e"); err == nil || !strings.Contains(err.Error(), `undefined label "nowhere"`) {
		t.Fatalf("builder seal error = %v, want undefined-label validation error", err)
	}
}
