package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestChunksGrowWithoutCopying: chunks double from firstChunk up to
// maxChunk, every chunk but the last is full, a full chunk is never
// reallocated, and the elements read back in push order.
func TestChunksGrowWithoutCopying(t *testing.T) {
	var c chunks[int]
	var firsts []*int // each chunk's first element, as pushed
	const n = 5*maxChunk + 7
	for i := 0; i < n; i++ {
		c.push(i)
		if last := c.list[len(c.list)-1]; len(last) == 1 {
			firsts = append(firsts, &last[0])
		}
	}
	if c.n != n {
		t.Fatalf("n = %d, want %d", c.n, n)
	}
	want := firstChunk
	for k, ch := range c.list {
		if cap(ch) != want {
			t.Errorf("chunk %d holds %d, want %d", k, cap(ch), want)
		}
		if k < len(c.list)-1 && len(ch) != cap(ch) {
			t.Errorf("chunk %d is not full (%d of %d) but is not the last", k, len(ch), cap(ch))
		}
		if &ch[0] != firsts[k] {
			t.Errorf("chunk %d moved after it was started", k)
		}
		want = min(2*want, maxChunk)
	}
	got := c.appendTo(nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("element %d reads %d", i, v)
		}
	}
	if len(got) != n {
		t.Fatalf("appendTo returned %d elements, want %d", len(got), n)
	}
}

// TestTraceAcrossChunks: a trace whose records span many chunks renders
// exactly what the same records render from one flat slice — the Chrome
// JSON (with directly recorded spans and track names sorted among the
// blocks' spans), the timeline CSV with and without the processor
// column, and Len.
func TestTraceAcrossChunks(t *testing.T) {
	tr := &Trace{}
	var events []chromeEvent
	var blocks []BlockRecord
	tr.NameProcess(0, "proc0")
	tr.NameThread(0, 3, "core3")
	events = append(events,
		chromeEvent{Name: "process_name", Ph: "M", Args: map[string]string{"name": "proc0"}},
		chromeEvent{Name: "thread_name", Ph: "M", TID: 3, Args: map[string]string{"name": "core3"}})
	const n = 3*maxChunk + 100
	for i := 0; i < n; i++ {
		start := uint64(i * 7)
		r := BlockRecord{
			Seq: uint64(i), Name: fmt.Sprintf("b%d", i%5), Addr: 0x1000 + uint64(i%5)*0x80,
			Proc: i % 2, Owner: i % 4, OwnerCore: 3 + i%4,
			FetchStart: start, DispatchDone: start + 4, CompleteAt: start + 9,
			CommitStart: start + 10, RetiredAt: start + 12, Useful: i % 11,
		}
		if i%13 == 0 { // flushed mid-execution
			r.CompleteAt, r.CommitStart, r.Flushed, r.Useful = 0, 0, true, 0
		}
		tr.Block(r)
		blocks = append(blocks, r)
		if i%500 == 0 {
			tr.Span(1, 0, "job", "suite", start, start+3)
			events = append(events, span(1, 0, "job", "suite", start, start+3))
		}
	}
	if len(tr.blocks.list) < 5 {
		t.Fatalf("%d records fill only %d chunks", n, len(tr.blocks.list))
	}
	if got, want := tr.Len(), len(events)+spansPerBlock*n; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}

	var got, want bytes.Buffer
	if err := tr.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	flat := slices.Clone(events)
	for i := range blocks {
		flat = blocks[i].appendSpans(flat)
	}
	if err := writeEvents(&want, flat); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("WriteJSON over %d chunks differs from the flat rendering (%d vs %d bytes)", len(tr.blocks.list), got.Len(), want.Len())
	}
	for _, procColumn := range []bool{false, true} {
		got.Reset()
		want.Reset()
		if err := tr.WriteTimeline(&got, procColumn); err != nil {
			t.Fatal(err)
		}
		if err := writeTimeline(&want, blocks, procColumn); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("WriteTimeline(procColumn %t) over %d chunks differs from the flat rendering", procColumn, len(tr.blocks.list))
		}
	}
}

// TestSamplerAcrossChunks: a sampler whose rows span many chunks gives
// the series a row per sample would: a series tracked mid-run reads 0
// for the rows before it, re-tracking a name keeps its column and
// earlier rows, every series shares the one cycle list, and the notify
// hook sees each row as it is taken.
func TestSamplerAcrossChunks(t *testing.T) {
	const rows, addC, swapA = 3 * maxChunk, 700, 2000
	s := NewSampler(16)
	j := 0 // the row being taken
	s.Track("a", func() float64 { return float64(j) })
	s.Track("b", func() float64 { return -float64(j) })
	var notified [][]float64
	s.SetNotify(func(cycle uint64, names []string, row []float64) {
		if cycle != uint64(16*(j+1)) || len(names) != len(row) {
			t.Fatalf("row %d: notify saw cycle %d, %d names, %d values", j, cycle, len(names), len(row))
		}
		notified = append(notified, slices.Clone(row))
	})
	want := []Series{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	var cycles []uint64
	for ; j < rows; j++ {
		if j == addC {
			s.Track("c", func() float64 { return float64(j * j) })
		}
		if j == swapA {
			s.Track("a", func() float64 { return 0.5 })
		}
		s.Sample(uint64(16 * (j + 1)))
		cycles = append(cycles, uint64(16*(j+1)))
		a, c := float64(j), 0.0
		if j >= swapA {
			a = 0.5
		}
		if j >= addC {
			c = float64(j * j)
		}
		want[0].Values = append(want[0].Values, a)
		want[1].Values = append(want[1].Values, -float64(j))
		want[2].Values = append(want[2].Values, c)
		row := []float64{a, -float64(j), c}
		if j < addC {
			row = row[:2]
		}
		if !slices.Equal(notified[j], row) {
			t.Fatalf("row %d: notify saw %v, want %v", j, notified[j], row)
		}
	}
	for i := range want {
		want[i].Cycles = cycles
	}
	if len(s.values.list) < 5 || len(s.cycles.list) < 3 {
		t.Fatalf("%d rows fill only %d value and %d cycle chunks", rows, len(s.values.list), len(s.cycles.list))
	}
	if s.Len() != rows {
		t.Errorf("Len = %d, want %d", s.Len(), rows)
	}
	got := s.Series()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Series over chunks differs from a row per sample")
	}
	if &got[0].Cycles[0] != &got[2].Cycles[0] {
		t.Error("the series do not share one cycle list")
	}
	var gotJSON, wantJSON bytes.Buffer
	if err := s.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&wantJSON)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Interval uint64   `json:"interval"`
		Series   []Series `json:"series"`
	}{16, want}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Error("WriteJSON over chunks differs from a row per sample")
	}

	// No row taken: the cycle list is null in JSON, each series' values [].
	empty := NewSampler(4)
	empty.Track("a", func() float64 { return 1 })
	if ser := empty.Series(); ser[0].Cycles != nil || ser[0].Values == nil {
		t.Errorf("a sampler with no rows gives %#v", ser[0])
	}
}
