package flight

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestRecIs32Bytes(t *testing.T) {
	if s := unsafe.Sizeof(Rec{}); s != 32 {
		t.Fatalf("Rec is %d bytes, want 32", s)
	}
}

func TestNilRingIsSafe(t *testing.T) {
	var r *Ring
	r.Add(KFetch, 1, 0, 0, 2, 3) // must not panic
	if r.Len() != 0 || r.Written() != 0 {
		t.Fatalf("nil ring reports Len=%d Written=%d", r.Len(), r.Written())
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 100; i++ {
		r.Add(KCommit, uint64(i), 1, 2, uint64(i), 0)
	}
	if r.Len() != 64 || r.Written() != 100 {
		t.Fatalf("Len=%d Written=%d, want 64/100", r.Len(), r.Written())
	}
	d := r.Dump()
	if len(d.Rings) != 1 {
		t.Fatalf("dump has %d rings, want 1", len(d.Rings))
	}
	recs := d.Rings[0].Recs
	if len(recs) != 64 {
		t.Fatalf("dump holds %d records, want 64", len(recs))
	}
	// Oldest surviving record is write #36, newest #99, in order.
	for i, rc := range recs {
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

func TestDumpJSONRoundTrip(t *testing.T) {
	r := NewRing(0)
	r.Add(KCompose, 0, 0, 2, 0, 2)
	r.Add(KFetch, 3, 0, 2, 0x80, 7)
	r.Add(KStall, 15, -1, -1, 5000, 0)
	d := r.Dump()

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
	src := `{"events":64,"rings":[{"written":1,"records":[{"cycle":1,"kind":200}]}]}`
	if _, err := ParseDump(strings.NewReader(src)); err == nil {
		t.Fatal("ParseDump accepted an unknown record kind")
	}
}

func TestWriteText(t *testing.T) {
	r := NewRing(0)
	r.Add(KCompose, 0, 0, 1, 0, 2)
	r.Add(KCommit, 5, 0, 1, 42, 9)
	d := r.Dump()

	var text bytes.Buffer
	if err := d.WriteText(&text); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{"ring records=2", "commit", "compose"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text dump lacks %q:\n%s", want, text.String())
		}
	}
}

func TestRecordsFilter(t *testing.T) {
	r := NewRing(0)
	r.Add(KFetch, 1, 0, 0, 0, 0)
	r.Add(KStall, 2, -1, -1, 99, 0)
	d := r.Dump()
	if got := d.Records(KStall); len(got) != 1 || got[0].A != 99 {
		t.Fatalf("Records(KStall) = %+v", got)
	}
	if got := d.Records(); len(got) != 2 {
		t.Fatalf("Records() = %d records, want 2", len(got))
	}
}
