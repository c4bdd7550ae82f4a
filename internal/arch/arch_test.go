package arch

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
)

// testProgram builds a small program exercising every observable:
// cross-block control flow (a counted loop), predicated stores, loads
// feeding arithmetic, and register writes.  It sums mem[0..n) into r3
// and writes running partial sums back to a second array.
func testProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder()
	loop := b.Block("loop")
	i := loop.Read(2)
	base := loop.Read(4)
	out := loop.Read(5)
	addr := loop.Add(base, loop.ShlI(i, 3))
	v := loop.Load(addr, 0, 8, false)
	sum := loop.Add(loop.Read(3), v)
	loop.Write(3, sum)
	oaddr := loop.Add(out, loop.ShlI(i, 3))
	odd := loop.AndI(i, 1)
	loop.When(odd).Store(oaddr, sum, 0, 8)
	loop.Unless(odd).Store(oaddr, v, 0, 8)
	i2 := loop.AddI(i, 1)
	loop.Write(2, i2)
	loop.BranchIf(loop.OpI(isa.OpLt, i2, 8), "loop", "done")
	b.Block("done").Halt()
	p, err := b.Program("loop")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func testInput() Input {
	var in Input
	in.Regs[4] = 0x2000
	in.Regs[5] = 0x3000
	in.MemBase = 0x2000
	in.Mem = make([]byte, 64)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(in.Mem[i*8:], uint64(i*3+1))
	}
	return in
}

// TestExecutorsAgree is the contract in miniature: all four executor
// families produce identical State for the same program and input.
func TestExecutorsAgree(t *testing.T) {
	p := testProgram(t)
	in := testInput()
	execs := []Executor{
		Functional{},
		ConvTrace{},
		Sim{Cores: 1},
		Sim{Cores: 2},
		Sim{Cores: 2, Reference: true},
		Sim{Cores: 4, Reference: true},
	}
	ref, err := execs[0].Run(p, in)
	if err != nil {
		t.Fatalf("%s: %v", execs[0].Name(), err)
	}
	if ref.Blocks != 9 {
		t.Errorf("functional retired %d blocks, want 9 (8 loop trips + halt)", ref.Blocks)
	}
	if ref.Stores != 8 {
		t.Errorf("functional committed %d stores, want 8", ref.Stores)
	}
	if ref.Regs[3] != 1+4+7+10+13+16+19+22 {
		t.Errorf("functional r3 = %d, want 92", ref.Regs[3])
	}
	for _, ex := range execs[1:] {
		st, err := ex.Run(p, in)
		if err != nil {
			t.Errorf("%s: %v", ex.Name(), err)
			continue
		}
		if d := st.Diff(ref); d != "" {
			t.Errorf("%s diverges from functional: %s", ex.Name(), d)
		}
	}
}

// TestInputIsolation pins that Run does not mutate the caller's Input
// (the harness reuses one Input across executors).
func TestInputIsolation(t *testing.T) {
	p := testProgram(t)
	in := testInput()
	want := testInput()
	if _, err := (Functional{}).Run(p, in); err != nil {
		t.Fatal(err)
	}
	if in.Regs != want.Regs || string(in.Mem) != string(want.Mem) {
		t.Error("Functional.Run mutated the caller's Input")
	}
}

func TestStoreHasherOrderSensitive(t *testing.T) {
	a, b := NewStoreHasher(), NewStoreHasher()
	a.Observe(0x10, 8, 1)
	a.Observe(0x18, 8, 2)
	b.Observe(0x18, 8, 2)
	b.Observe(0x10, 8, 1)
	if a.Digest() == b.Digest() {
		t.Error("store digest is order-insensitive; reordered streams must differ")
	}
	if a.Count() != 2 || b.Count() != 2 {
		t.Errorf("counts = %d, %d, want 2, 2", a.Count(), b.Count())
	}
}

func TestStateDiff(t *testing.T) {
	var a, b State
	if d := a.Diff(b); d != "" {
		t.Errorf("equal states diff = %q, want empty", d)
	}
	b.Blocks = 7
	b.Regs[5] = 42
	d := a.Diff(b)
	for _, want := range []string{"blocks 0 vs 7", "r5 0x0 vs 0x2a"} {
		if !strings.Contains(d, want) {
			t.Errorf("Diff = %q, missing %q", d, want)
		}
	}
}

// TestMemDigestIgnoresZeroPages pins the digest property the contract
// depends on: touching memory with zeros must not change the digest,
// since executors differ in which pages they materialize.
func TestMemDigestIgnoresZeroPages(t *testing.T) {
	st1, err := (Functional{}).Run(testProgram(t), testInput())
	if err != nil {
		t.Fatal(err)
	}
	in := testInput()
	in.Mem = append(in.Mem, make([]byte, 8192)...) // extra zero pages
	st2, err := (Functional{}).Run(testProgram(t), in)
	if err != nil {
		t.Fatal(err)
	}
	if st1.MemDigest != st2.MemDigest {
		t.Error("writing zero bytes to fresh pages changed the memory digest")
	}
}

// TestSharedProgramConcurrentChips runs one *prog.Program at the same time
// on the functional machine and on optimized and Reference chips of 1, 2, 4
// and 8 cores; every state must equal the executor's own serial run.  The
// program's linked form is shared, read-only and composition-independent;
// under -race this is the test that a run writes nothing into it.
func TestSharedProgramConcurrentChips(t *testing.T) {
	p, in := wrongPathProgram(t)
	execs := []Executor{Functional{}}
	for _, c := range []int{1, 2, 4, 8} {
		execs = append(execs, Sim{Cores: c}, Sim{Cores: c, Reference: true})
	}
	serial := make([]State, len(execs))
	for i, ex := range execs {
		st, err := ex.Run(p, in)
		if err != nil {
			t.Fatalf("%s: %v", ex.Name(), err)
		}
		serial[i] = st
	}
	var wg sync.WaitGroup
	for i, ex := range execs {
		wg.Add(1)
		go func(i int, ex Executor) {
			defer wg.Done()
			st, err := ex.Run(p, in)
			if err != nil {
				t.Errorf("%s, concurrent: %v", ex.Name(), err)
			} else if d := st.Diff(serial[i]); d != "" {
				t.Errorf("%s: concurrent run diverges from its serial run: %s", ex.Name(), d)
			}
		}(i, ex)
	}
	wg.Wait()
}
