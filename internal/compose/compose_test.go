package compose

import (
	"testing"
	"testing/quick"

	"github.com/clp-sim/tflex/internal/isa"
)

func TestDefaultCoreParamsMatchTable1(t *testing.T) {
	p := DefaultCoreParams()
	if p.L1IBytes != 8<<10 || p.L1DBytes != 8<<10 {
		t.Error("L1 sizes should be 8KB")
	}
	if p.WindowEntries != 128 {
		t.Error("window should be 128 entries")
	}
	if p.LSQEntries != 44 {
		t.Error("LSQ bank should have 44 entries")
	}
	if p.L2Bytes != 4<<20 || p.L2HitMin != 5 || p.L2HitMax != 27 {
		t.Error("L2 should be 4MB with 5-27 cycle hits")
	}
	if p.DRAMCycles != 150 {
		t.Error("DRAM should be 150 cycles")
	}
	if p.IssueTotal != 2 || p.IssueFP != 1 {
		t.Error("cores are dual-issue with one FP")
	}
	if p.PredictorLat != 3 {
		t.Error("predictor latency should be 3")
	}
	if p.RASEntries != 16 || p.BTBEntries != 128 || p.CTBEntries != 16 || p.BtypeEntries != 256 {
		t.Error("predictor table sizes wrong")
	}
	if p.LocalL1Entries != 64 || p.LocalL2Entries != 128 || p.GlobalEntries != 512 || p.ChoiceEntries != 512 {
		t.Error("exit predictor sizes wrong")
	}
}

func TestHashesInRange(t *testing.T) {
	f := func(addr uint64, instID uint8, reg uint8, nSel uint8) bool {
		ns := []int{1, 2, 4, 8, 16, 32}
		n := ns[nSel%6]
		if o := OwnerOf(addr, n); o < 0 || o >= n {
			return false
		}
		if c := InstCore(int(instID)%128, n); c < 0 || c >= n {
			return false
		}
		if b := DataBank(addr, 64, n); b < 0 || b >= n {
			return false
		}
		if r := RegBank(reg%128, n); r < 0 || r >= n {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstInterleavingPartition(t *testing.T) {
	// The instruction IDs of a block are dealt evenly: every core of a
	// power-of-two composition holds 128/n of them.
	for _, n := range Sizes() {
		perCore := map[int]int{}
		for id := 0; id < isa.MaxBlockInsts; id++ {
			perCore[InstCore(id, n)]++
		}
		want := isa.MaxBlockInsts / n
		if len(perCore) != n {
			t.Fatalf("n=%d: instructions land on %d cores", n, len(perCore))
		}
		for c, got := range perCore {
			if got != want {
				t.Fatalf("n=%d core %d holds %d instructions, want %d", n, c, got, want)
			}
		}
	}
}

func TestDataBankLineStable(t *testing.T) {
	// All addresses within a cache line map to the same bank.
	for _, n := range Sizes() {
		for line := uint64(0); line < 64; line++ {
			base := line * 64
			b0 := DataBank(base, 64, n)
			for off := uint64(1); off < 64; off += 7 {
				if DataBank(base+off, 64, n) != b0 {
					t.Fatalf("n=%d: line %d not bank-stable", n, line)
				}
			}
		}
	}
}

func TestDataBankSpreads(t *testing.T) {
	// Sequential lines should hit all banks roughly evenly.
	n := 8
	counts := make([]int, n)
	for line := 0; line < 8000; line++ {
		counts[DataBank(uint64(line)*64, 64, n)]++
	}
	for b, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("bank %d count %d far from uniform", b, c)
		}
	}
}

func TestOwnerSpreads(t *testing.T) {
	n := 8
	counts := make([]int, n)
	for i := 0; i < 800; i++ {
		addr := uint64(0x10000) + uint64(i)*uint64(isa.BlockBytes)
		counts[OwnerOf(addr, n)]++
	}
	for b, c := range counts {
		if c != 100 {
			t.Fatalf("owner %d count %d, want exactly 100 for sequential blocks", b, c)
		}
	}
}

func TestRectShapes(t *testing.T) {
	for _, k := range Sizes() {
		p, err := Rect(0, 0, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.N() != k {
			t.Fatalf("k=%d: got %d cores", k, p.N())
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	if _, err := Rect(0, 0, 3); err == nil {
		t.Fatal("size 3 should be unsupported")
	}
	if _, err := Rect(3, 0, 2); err == nil {
		t.Fatal("2x1 at x=3 should not fit a 4-wide array")
	}
}

func TestPartitionCMPConfigs(t *testing.T) {
	for _, c := range []struct{ k, n int }{{1, 32}, {2, 16}, {4, 8}, {8, 4}, {16, 2}, {32, 1}} {
		procs, err := Partition(c.k, c.n)
		if err != nil {
			t.Fatalf("k=%d: %v", c.k, err)
		}
		if len(procs) != c.n {
			t.Fatalf("k=%d: %d procs", c.k, len(procs))
		}
		seen := map[int]bool{}
		for _, p := range procs {
			for _, core := range p.Cores {
				if seen[core] {
					t.Fatalf("k=%d: core %d assigned twice", c.k, core)
				}
				seen[core] = true
			}
		}
		if len(seen) != c.k*c.n {
			t.Fatalf("k=%d: %d cores covered", c.k, len(seen))
		}
	}
	if _, err := Partition(16, 3); err == nil {
		t.Fatal("3x16 cores should not fit")
	}
}

func TestPackAsymmetric(t *testing.T) {
	procs, err := PackAsymmetric([]int{16, 8, 4, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i, p := range procs {
		if err := p.Validate(); err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
		for _, c := range p.Cores {
			if seen[c] {
				t.Fatalf("core %d double-assigned", c)
			}
			seen[c] = true
		}
	}
	if _, err := PackAsymmetric([]int{32, 1}); err == nil {
		t.Fatal("33 cores should not fit")
	}
}

func TestProcessorValidate(t *testing.T) {
	if err := (Processor{}).Validate(); err == nil {
		t.Error("empty processor should fail")
	}
	if err := (Processor{Cores: []int{0, 0}}).Validate(); err == nil {
		t.Error("duplicate cores should fail")
	}
	if err := (Processor{Cores: []int{99}}).Validate(); err == nil {
		t.Error("out-of-range core should fail")
	}
}

func TestStrip(t *testing.T) {
	for _, k := range []int{1, 3, 5, 7, 11, 32} {
		p, err := Strip(0, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.N() != k {
			t.Fatalf("k=%d: got %d cores", k, p.N())
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	if _, err := Strip(30, 5); err == nil {
		t.Fatal("strip past array end should fail")
	}
	if _, err := Strip(0, 0); err == nil {
		t.Fatal("empty strip should fail")
	}
}
