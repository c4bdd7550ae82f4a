package critpath

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestAttributeALUChainReconciles hand-builds a three-stage chain
// (register read -> alu -> alu -> register write) and checks both the
// reconciliation invariant and the exact per-category placement.
func TestAttributeALUChainReconciles(t *testing.T) {
	b := ResetBlock(nil, 2, 1, 1, 0)
	b.FetchStart = 100
	b.ConstLat = 4
	b.ICacheStall = 2
	b.BcastLat = 3
	b.DispatchLat = 1 // floor = 110
	b.CompleteAt = 180
	b.RetiredAt = 200

	b.Reads[0] = Read{DispatchAt: 110}
	b.Insts[0] = Inst{
		Arm:     Edge{Kind: SrcRegRead, Valid: true, Src: 0, SendAt: 115, HopIdeal: 2, ArriveAt: 118},
		ReadyAt: 118, Issued: true,
	}
	b.Insts[1] = Inst{
		Arm:     Edge{Kind: SrcInst, Valid: true, Src: 0, SendAt: 121, HopIdeal: 1, ArriveAt: 123},
		ReadyAt: 123, Issued: true, ArmSlot: 1,
	}
	b.Writes[0] = WriteOut{
		Edge:   Edge{Kind: SrcInst, Valid: true, Src: 1, SendAt: 128, HopIdeal: 0, ArriveAt: 128},
		SendAt: 128, BankAt: 133, BankIdeal: 2,
	}
	b.LastOut, b.LastIdx = OutWrite, 0

	bd := Attribute(b)
	want := Breakdown{}
	want[FetchDispatch] = 8
	want[CacheMiss] = 2
	want[NoCHop] = 5
	want[NoCContention] = 5
	want[ALUOccupancy] = 8
	want[RegRW] = 5
	want[Commit] = 67
	if bd != want {
		t.Fatalf("breakdown = %v, want %v", bd, want)
	}
	if bd.Total() != b.RetiredAt-b.FetchStart {
		t.Fatalf("total = %d, want block latency %d", bd.Total(), b.RetiredAt-b.FetchStart)
	}
}

// TestAttributeLoadChain checks the memory-pipeline decomposition of a
// critical load (agen, bank hop, LSQ wait, access, miss fill).
func TestAttributeLoadChain(t *testing.T) {
	b := ResetBlock(nil, 2, 1, 0, 0)
	b.FetchStart = 0
	b.ConstLat = 4 // floor = 4
	b.CompleteAt = 30
	b.RetiredAt = 40

	b.Insts[0] = Inst{
		ReadyAt: 5, Issued: true, // dispatch armed it
		IsMem: true, AgenDone: 7, BankIdeal: 2, BankArrive: 10,
		SvcAt: 14, AccessDone: 16, DataAt: 22,
	}
	b.Insts[1] = Inst{
		Arm:     Edge{Kind: SrcInst, Valid: true, Src: 0, SendAt: 22, HopIdeal: 1, ArriveAt: 23},
		ReadyAt: 23, Issued: true,
	}
	b.Writes[0] = WriteOut{
		Edge:   Edge{Kind: SrcInst, Valid: true, Src: 1, SendAt: 24, ArriveAt: 24},
		SendAt: 24, BankAt: 25, BankIdeal: 1,
	}
	b.LastOut, b.LastIdx = OutWrite, 0

	bd := Attribute(b)
	want := Breakdown{}
	want[FetchDispatch] = 5 // 4 const + 1 dispatch-root residue
	want[NoCHop] = 4
	want[NoCContention] = 1
	want[ALUOccupancy] = 3
	want[LSQWait] = 6
	want[CacheMiss] = 6
	want[Commit] = 15
	if bd != want {
		t.Fatalf("breakdown = %v, want %v", bd, want)
	}
	if bd.Total() != 40 {
		t.Fatalf("total = %d, want 40", bd.Total())
	}
}

// TestAttributeStoreRoot checks a block whose last output is a store
// slot: no DataAt/AccessDone stamps, LSQ wait from bank arrival to
// service.
func TestAttributeStoreRoot(t *testing.T) {
	b := ResetBlock(nil, 1, 0, 0, 1)
	b.FetchStart = 10
	b.ConstLat = 4 // floor = 14
	b.CompleteAt = 25
	b.RetiredAt = 30

	b.Insts[0] = Inst{
		ReadyAt: 15, Issued: true,
		IsMem: true, AgenDone: 18, BankArrive: 18, SvcAt: 20,
	}
	b.Slots[0] = SlotOut{Kind: SrcInst, Src: 0, ResolvedAt: 21, Valid: true}
	b.LastOut, b.LastIdx = OutStore, 0

	bd := Attribute(b)
	want := Breakdown{}
	want[FetchDispatch] = 5
	want[LSQWait] = 3
	want[ALUOccupancy] = 3
	want[Commit] = 9
	if bd != want {
		t.Fatalf("breakdown = %v, want %v", bd, want)
	}
	if bd.Total() != 20 {
		t.Fatalf("total = %d, want 20", bd.Total())
	}
}

// TestAttributeBranchRoot roots the walk at the block's branch.
func TestAttributeBranchRoot(t *testing.T) {
	b := ResetBlock(nil, 1, 0, 0, 0)
	b.FetchStart = 0
	b.ConstLat = 4
	b.CompleteAt = 12
	b.RetiredAt = 20
	b.Insts[0] = Inst{ReadyAt: 5, Issued: true}
	b.Branch = SlotOut{Kind: SrcInst, Src: 0, ResolvedAt: 7, Valid: true}
	b.LastOut = OutBranch

	bd := Attribute(b)
	if bd.Total() != 20 {
		t.Fatalf("total = %d, want 20", bd.Total())
	}
	if bd[Commit] != 13 { // 20-12 protocol + 12-7 signal
		t.Fatalf("commit = %d, want 13", bd[Commit])
	}
	if bd[ALUOccupancy] != 2 { // [5, 7]
		t.Fatalf("alu = %d, want 2", bd[ALUOccupancy])
	}
}

// TestAttributeDegenerate: inverted or truncated records never break
// the invariant.
func TestAttributeDegenerate(t *testing.T) {
	// Retired before (or at) fetch: nothing to attribute.
	b := ResetBlock(nil, 0, 0, 0, 0)
	b.FetchStart, b.RetiredAt = 50, 50
	if got := Attribute(b).Total(); got != 0 {
		t.Fatalf("inverted record total = %d, want 0", got)
	}

	// Fetch components exceed the block interval (early flush): the
	// take() clamp must stop at the ceiling.
	b = ResetBlock(b, 0, 0, 0, 0)
	b.FetchStart, b.RetiredAt = 0, 5
	b.ConstLat, b.ICacheStall = 4, 10
	bd := Attribute(b)
	if bd.Total() != 5 {
		t.Fatalf("clamped total = %d, want 5", bd.Total())
	}
	if bd[FetchDispatch] != 4 || bd[CacheMiss] != 1 {
		t.Fatalf("clamped breakdown = %v", bd)
	}

	// No recorded outputs at all: everything above the fetch floor is
	// residue plus commit.
	b = ResetBlock(b, 0, 0, 0, 0)
	b.FetchStart, b.ConstLat, b.CompleteAt, b.RetiredAt = 0, 4, 30, 40
	bd = Attribute(b)
	if bd.Total() != 40 {
		t.Fatalf("no-output total = %d, want 40", bd.Total())
	}
	if bd[Commit] != 10 || bd[FetchDispatch] != 30 {
		t.Fatalf("no-output breakdown = %v", bd)
	}
}

// TestAttributeFuzzReconciles throws deterministic garbage records at
// the walker: the invariant must hold structurally no matter what is in
// the record.
func TestAttributeFuzzReconciles(t *testing.T) {
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	var b *Block
	for iter := 0; iter < 5000; iter++ {
		nInsts := int(next() % 6)
		b = ResetBlock(b, nInsts, int(next()%3), int(next()%3), int(next()%3))
		b.FetchStart = next() % 1000
		b.RetiredAt = next() % 2000
		b.ConstLat = next() % 20
		b.ICacheStall = next() % 50
		b.BcastLat = next() % 10
		b.DispatchLat = next() % 10
		b.CompleteAt = next() % 2000
		b.LastOut = OutKind(next() % 4)
		b.LastIdx = int32(next() % 4)
		b.Branch = SlotOut{Kind: SrcKind(next() % 3), Src: int32(next() % 8), ResolvedAt: next() % 2000, Valid: next()%2 == 0}
		for i := range b.Insts {
			b.Insts[i] = Inst{
				Arm: Edge{
					Kind: SrcKind(next() % 3), Valid: next()%2 == 0,
					Src: int32(next() % 8), SendAt: next() % 2000,
					HopIdeal: next() % 8, ArriveAt: next() % 2000,
				},
				ReadyAt: next() % 2000, Issued: next()%4 != 0, ArmSlot: uint8(next() % 3),
				IsMem: next()%2 == 0, AgenDone: next() % 2000,
				BankIdeal: next() % 8, BankArrive: next() % 2000,
				SvcAt: next() % 2000, AccessDone: next() % 2000, DataAt: next() % 2000,
			}
		}
		for i := range b.Reads {
			b.Reads[i] = Read{DispatchAt: next() % 2000}
		}
		for i := range b.Writes {
			b.Writes[i] = WriteOut{
				Edge:   Edge{Kind: SrcKind(next() % 3), Valid: next()%2 == 0, Src: int32(next() % 8), SendAt: next() % 2000, ArriveAt: next() % 2000},
				Null:   next()%4 == 0,
				SendAt: next() % 2000, BankAt: next() % 2000, BankIdeal: next() % 8,
			}
		}
		for i := range b.Slots {
			b.Slots[i] = SlotOut{Kind: SrcKind(next() % 3), Src: int32(next() % 8), ResolvedAt: next() % 2000, Valid: next()%2 == 0}
		}

		want := uint64(0)
		if b.RetiredAt > b.FetchStart {
			want = b.RetiredAt - b.FetchStart
		}
		if got := Attribute(b).Total(); got != want {
			t.Fatalf("iter %d: total = %d, want %d (record %+v)", iter, got, want, b)
		}
	}
}

// TestResetBlockRecycles checks the kept-record recycle contract:
// every field and every array entry comes back zeroed, whether the
// record shrinks below a stamped entry or grows back over it within its
// capacity, and growing past capacity reallocates.
func TestResetBlockRecycles(t *testing.T) {
	b := ResetBlock(nil, 4, 2, 2, 2)
	insts := &b.Insts[0]
	stamp := func(b *Block) {
		for i := range b.Insts {
			b.Insts[i] = Inst{Arm: Edge{Valid: true, ArriveAt: 9}, Issued: true, DataAt: 99}
		}
		for i := range b.Writes {
			b.Writes[i] = WriteOut{Null: true, BankAt: 99}
		}
		for i := range b.Reads {
			b.Reads[i].DispatchAt = 99
		}
		for i := range b.Slots {
			b.Slots[i] = SlotOut{Valid: true, ResolvedAt: 99}
		}
		b.Branch.Valid = true
		b.LastOut, b.LastIdx = OutStore, 1
		b.Result[Commit] = 7
		b.FetchStart, b.RetiredAt = 3, 123
	}
	zero := func(b *Block, nInsts, nWrites, nReads, nSlots int) {
		t.Helper()
		want := Block{
			Insts: make([]Inst, nInsts), Writes: make([]WriteOut, nWrites),
			Reads: make([]Read, nReads), Slots: make([]SlotOut, nSlots),
		}
		if !reflect.DeepEqual(*b, want) {
			t.Fatalf("reset to %d/%d/%d/%d left %+v", nInsts, nWrites, nReads, nSlots, *b)
		}
	}
	stamp(b)
	b2 := ResetBlock(b, 2, 1, 1, 1)
	if b2 != b {
		t.Fatalf("reset reallocated the record")
	}
	zero(b2, 2, 1, 1, 1)
	stamp(b2)
	// Grow back over entries stamped before the shrink, within capacity.
	b3 := ResetBlock(b2, 4, 2, 2, 2)
	if &b3.Insts[0] != insts {
		t.Fatalf("reset within capacity reallocated Insts")
	}
	zero(b3, 4, 2, 2, 2)
	stamp(b3)
	// Growing past capacity reallocates zeroed storage.
	zero(ResetBlock(b3, 8, 4, 4, 4), 8, 4, 4, 4)
}

// TestCritRecordSize holds the instruction record's diet: ResetBlock
// clears one Inst per live instruction on every fetch.
func TestCritRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n > 96 {
		t.Errorf("Inst is %d bytes, want <= 96", n)
	}
}

// TestOfferKeepsArmingEdge: whatever order the three operand deliveries
// are offered in, the record keeps the last arrival, and among arrivals
// in the same cycle the lowest operand slot (left, right, predicate).
func TestOfferKeepsArmingEdge(t *testing.T) {
	edge := func(src int32, at uint64) Edge { return Edge{Kind: SrcInst, Valid: true, Src: src, ArriveAt: at} }
	for _, tc := range []struct {
		at   [3]uint64 // arrival per slot
		want int32     // slot whose edge arms
	}{
		{[3]uint64{5, 7, 6}, 1},
		{[3]uint64{7, 7, 7}, 0},
		{[3]uint64{4, 7, 7}, 1},
		{[3]uint64{3, 2, 9}, 2},
	} {
		for _, order := range [][3]uint8{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			var in Inst
			for _, slot := range order {
				in.Offer(edge(int32(slot), tc.at[slot]), slot)
			}
			if in.Arm.Src != tc.want || in.ArmSlot != uint8(tc.want) {
				t.Errorf("arrivals %v offered in order %v: slot %d arms, want %d", tc.at, order, in.Arm.Src, tc.want)
			}
		}
	}
}

// TestSummaryAndRolling covers aggregation, JSON and concurrent use of
// the rolling aggregate (exercised under -race in CI).
func TestSummaryAndRolling(t *testing.T) {
	var bd Breakdown
	bd[FetchDispatch] = 3
	bd[Commit] = 7

	var s Summary
	s.Add(bd)
	s.Add(bd)
	if s.Blocks != 2 || s.Cycles != 20 || s.Cats[Commit] != 14 {
		t.Fatalf("summary = %+v", s)
	}
	var m Summary
	m.Merge(s)
	m.Merge(s)
	if m.Blocks != 4 || m.Cycles != 40 {
		t.Fatalf("merged = %+v", m)
	}
	if got := s.PerBlock(Commit); got != 7 {
		t.Fatalf("per-block commit = %v, want 7", got)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var js struct {
		Blocks     uint64             `json:"blocks"`
		Categories map[string]uint64  `json:"categories"`
		PerBlock   map[string]float64 `json:"per_block"`
	}
	if err := json.Unmarshal(buf.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	if js.Blocks != 2 || js.Categories["commit"] != 14 || js.PerBlock["fetch_dispatch"] != 3 {
		t.Fatalf("json = %+v", js)
	}
	if !strings.Contains(s.String(), "cycles/block") {
		t.Fatalf("String() = %q", s.String())
	}

	var r Rolling
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(bd)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if snap := r.Snapshot(); snap.Blocks != 400 || snap.Cycles != 4000 {
		t.Fatalf("rolling = %+v", snap)
	}
	var nilR *Rolling
	nilR.Add(bd) // nil-safe
	if nilR.Snapshot().Blocks != 0 {
		t.Fatal("nil rolling snapshot")
	}
}

// TestCategoryNames pins the metric-name mapping used by the telemetry
// registry and the JSON exports.
func TestCategoryNames(t *testing.T) {
	want := []string{"fetch_dispatch", "noc_hop", "noc_contention",
		"alu_occupancy", "lsq_wait", "cache_miss", "reg_rw", "commit"}
	for c := Category(0); c < NumCategories; c++ {
		if c.String() != want[c] {
			t.Fatalf("category %d = %q, want %q", c, c.String(), want[c])
		}
		if c.Short() == "" {
			t.Fatalf("category %d has empty short label", c)
		}
	}
}
