package flight

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/clp-sim/tflex/internal/telemetry"
)

func TestRecIs32Bytes(t *testing.T) {
	if s := unsafe.Sizeof(Rec{}); s != 32 {
		t.Fatalf("Rec is %d bytes, want 32", s)
	}
}

func TestNilRingIsSafe(t *testing.T) {
	var r *Ring
	r.Add(KCommit, 1, 0, 0, 2, 3) // must not panic
	if r.Written() != 0 {
		t.Fatalf("nil ring reports Written=%d", r.Written())
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 100; i++ {
		r.Add(KCommit, uint64(i), 1, 2, uint64(i), 0)
	}
	d := r.Dump()
	if len(d.Recs) != 64 || d.Written != 100 || d.Events != 64 {
		t.Fatalf("dump holds %d of %d records written in %d slots, want 64/100/64", len(d.Recs), d.Written, d.Events)
	}
	// Oldest surviving record is write #36, newest #99, in order.
	for i, rc := range d.Recs {
		if want := uint64(36 + i); rc.Cycle != want {
			t.Fatalf("record %d has cycle %d, want %d", i, rc.Cycle, want)
		}
		if rc.Proc != 1 || rc.Core != 2 {
			t.Fatalf("record %d misattributed: %+v", i, rc)
		}
	}
}

// TestNewRingClampsAbsurdSizes pins the MaxEvents bound: rounding an
// unbounded size up to a power of two overflowed int (a loop that never
// ended) or asked make for more than it can give (a panic).
func TestNewRingClampsAbsurdSizes(t *testing.T) {
	done := make(chan int, 1)
	go func() { done <- len(NewRing(math.MaxInt).rec) }()
	select {
	case n := <-done:
		if n > MaxEvents {
			t.Fatalf("NewRing(math.MaxInt) holds %d records, want at most MaxEvents = %d", n, MaxEvents)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NewRing(math.MaxInt) did not return within 5s")
	}
}

// sampleDump is a dump of both halves: a ring of every kind and two
// blocks in flight, one of them complete.
func sampleDump() *Dump {
	r := NewRing(0)
	r.Add(KCompose, 0, 0, 2, 0, 2)
	r.Add(KCommit, 9, 0, 2, 0, 0x80)
	r.Add(KFlush, 12, 0, 3, 2, 0x100)
	r.Add(KStall, 15, -1, -1, 5000, 0)
	d := r.Dump()
	d.InFlight = []InFlight{
		{BlockRecord: telemetry.BlockRecord{Seq: 1, Name: "loop", Addr: 0x80, OwnerCore: 2, FetchStart: 4, DispatchDone: 8, CompleteAt: 14}},
		{BlockRecord: telemetry.BlockRecord{Seq: 3, Name: "loop", Addr: 0x80, OwnerCore: 2, FetchStart: 13, DispatchDone: 17}, OutputsPending: 2},
	}
	return d
}

func TestDumpJSONRoundTrip(t *testing.T) {
	d := sampleDump()

	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ParseDump(&buf)
	if err != nil {
		t.Fatalf("ParseDump: %v", err)
	}
	a, _ := json.Marshal(d)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("round trip mismatch:\n%s\n%s", a, b)
	}
}

func TestParseDumpRejectsBadKind(t *testing.T) {
	for _, src := range []string{
		`{"events":64,"written":1,"records":[{"cycle":1,"kind":200}]}`,
		`{"events":64,"written":1,"records":[{"cycle":1,"kind":0},{"cycle":2,"kind":0}]}`, // more kept than written
		`{"events":64,"rings":[{"written":1,"records":[{"cycle":1,"kind":3}]}]}`,          // the one-ring-per-domain shape
		`{"events":64,"written":1,"records":[],"in_flight":[{"seq":1,"phase":2}]}`,        // a field no dump has
	} {
		if d, err := ParseDump(strings.NewReader(src)); err == nil {
			t.Errorf("ParseDump(%s) = %+v, want an error", src, d)
		}
	}
}

func TestWriteText(t *testing.T) {
	var text bytes.Buffer
	if err := sampleDump().WriteText(&text); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{
		"ring records=4 written=4", "commit    proc=0 core=2 a=0 b=0x80", "compose", "flush", "stall",
		"in flight blocks=2",
		`proc=0 seq=1 addr=0x80 "loop" core=2 fetch@4 dispatched@8 complete@14 commit@0 pending=0`,
		`proc=0 seq=3 addr=0x80 "loop" core=2 fetch@13 dispatched@17 complete@0 commit@0 pending=2`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text dump lacks %q:\n%s", want, text.String())
		}
	}
}

func TestRecordsFilter(t *testing.T) {
	d := sampleDump()
	if got := d.Records(KStall); len(got) != 1 || got[0].A != 5000 {
		t.Fatalf("Records(KStall) = %+v", got)
	}
	if got := d.Records(KFlush); len(got) != 1 || got[0].B != 0x100 {
		t.Fatalf("Records(KFlush) = %+v", got)
	}
}
