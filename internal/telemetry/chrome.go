package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Trace collects a run's timeline: one BlockRecord per retired block,
// plus directly recorded spans and track names.  It renders late — as Chrome
// trace-event JSON (WriteJSON, the format loaded by chrome://tracing
// and Perfetto) or as the per-block timeline CSV (WriteTimeline) — so
// both views come from the same stored records and cannot disagree.
// The simulator maps one simulated cycle to one microsecond of trace
// time, so cycle counts read directly off the viewer's time axis; the
// experiment suite uses real microseconds for its job spans.
//
// A Trace is safe for concurrent use: suite workers append job spans
// from many goroutines.  The zero value is ready to use, and all methods
// are nil-safe so a disabled trace costs one nil check at each call
// site.
type Trace struct {
	mu     sync.Mutex
	events []chromeEvent
	blocks chunks[BlockRecord]
}

// BlockRecord is the lifetime of one dynamic block, written once when
// it retires (commit or flush), or read off it in flight (RetiredAt 0)
// for a flight dump.  It is pointer-free apart from the block's name and
// carries every phase boundary, so renderers need no simulator internals.
type BlockRecord struct {
	Seq  uint64 `json:"seq"`
	Name string `json:"name"`
	Addr uint64 `json:"addr"`
	// Proc is the logical processor's ID — the "proc<id>" of the metric
	// names and the pid of the Chrome tracks.
	Proc  int `json:"proc"`
	Owner int `json:"owner"` // participating-core index
	// OwnerCore is the physical core ID of the owner — the track a
	// per-core visualization files this block under.
	OwnerCore int `json:"owner_core"`
	// FetchStart is the cycle the fetch pipeline began working on the
	// block at its owner (prediction + hand-off receipt).
	FetchStart uint64 `json:"fetch_start"`
	// DispatchDone is when the last instruction was dispatched into the
	// window: FetchStart plus the prediction/I-tag constant, I-cache
	// stall, fetch-command broadcast and per-core dispatch latencies.
	DispatchDone uint64 `json:"dispatch_done"`
	// CompleteAt is when the owner detected completion (0 if flushed
	// before completing).
	CompleteAt uint64 `json:"complete_at"`
	// CommitStart is when the four-phase commit protocol launched
	// (0 if the block never began committing).
	CommitStart uint64 `json:"commit_start"`
	// RetiredAt is the deallocation time for committed blocks, or the
	// flush time for squashed ones.
	RetiredAt uint64 `json:"retired_at"`
	Flushed   bool   `json:"flushed"`
	// Useful counts committed useful instructions (0 for flushed blocks).
	Useful int `json:"useful"`
}

type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	TS   uint64 `json:"ts"`
	Dur  uint64 `json:"dur,omitempty"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
	Args any    `json:"args,omitempty"`
}

// blockArgs is what a block's fetch span carries.  The keys are in
// alphabetical order, the order existing trace files have them in.
type blockArgs struct {
	Addr   uint64 `json:"addr"`
	Seq    uint64 `json:"seq"`
	Useful int    `json:"useful"`
}

// span builds a complete ("ph":"X") event covering [start, end] ticks.
// Spans with end <= start are clamped to a one-tick minimum: trace
// viewers drop or render zero-duration complete events invisibly, and
// legitimate same-cycle phases (a block whose FetchStart equals its
// CommitStart after a flush) would silently vanish from the timeline.
func span(pid, tid int, name, cat string, start, end uint64) chromeEvent {
	dur := uint64(1)
	if end > start {
		dur = end - start
	}
	return chromeEvent{Name: name, Cat: cat, Ph: "X", TS: start, Dur: dur, PID: pid, TID: tid}
}

// appendSpans expands the record into its Chrome spans on track (Proc,
// OwnerCore): fetch (FetchStart→DispatchDone), execute (→CompleteAt)
// and commit (CommitStart→RetiredAt).  Flushed blocks end in a
// "flushed" span instead of a commit.
func (r *BlockRecord) appendSpans(evs []chromeEvent) []chromeEvent {
	fetch := span(r.Proc, r.OwnerCore, r.Name, "fetch", r.FetchStart, r.DispatchDone)
	fetch.Args = blockArgs{Addr: r.Addr, Seq: r.Seq, Useful: r.Useful}
	execEnd := r.CompleteAt
	if execEnd == 0 { // flushed mid-execution
		execEnd = r.RetiredAt
	}
	execStart := r.DispatchDone
	if execEnd < execStart { // outputs can finish before the last dispatch
		execStart = execEnd
	}
	last := span(r.Proc, r.OwnerCore, r.Name, "commit", r.CommitStart, r.RetiredAt)
	if r.Flushed {
		last = span(r.Proc, r.OwnerCore, r.Name, "flushed", execEnd, r.RetiredAt)
	}
	return append(evs, fetch, span(r.Proc, r.OwnerCore, r.Name, "execute", execStart, execEnd), last)
}

// spansPerBlock is how many events appendSpans adds.
const spansPerBlock = 3

// Block stores one retired block's record.  Records go into fixed
// chunks, so storing one never copies the records before it.  Safe on
// nil.
func (t *Trace) Block(r BlockRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.blocks.push(r)
	t.mu.Unlock()
}

// Span records a complete event covering [start, end] ticks on the
// (pid, tid) track, one tick at least.  Safe on nil.
func (t *Trace) Span(pid, tid int, name, cat string, start, end uint64) {
	t.add(span(pid, tid, name, cat, start, end))
}

// NameProcess labels a pid track group in the viewer.  Safe on nil.
func (t *Trace) NameProcess(pid int, name string) {
	t.metadata("process_name", pid, 0, name)
}

// NameThread labels one (pid, tid) track in the viewer.  Safe on nil.
func (t *Trace) NameThread(pid, tid int, name string) {
	t.metadata("thread_name", pid, tid, name)
}

func (t *Trace) metadata(kind string, pid, tid int, name string) {
	t.add(chromeEvent{
		Name: kind, Ph: "M", PID: pid, TID: tid,
		Args: map[string]string{"name": name},
	})
}

func (t *Trace) add(ev chromeEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Len returns the number of events WriteJSON would emit: the recorded
// spans and track names, and three spans per stored block.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events) + spansPerBlock*t.blocks.n
}

// WriteJSON emits the trace as {"traceEvents":[...]} — the JSON Object
// Format accepted by chrome://tracing and Perfetto.  Events are emitted
// in (ts, pid, tid, name) order rather than append order: concurrent
// recorders (suite workers) interleave their appends
// nondeterministically, and sorting keeps the file byte-stable across
// runs of the same simulation.  The sort is stable and ties between the
// spans of one block, and between consecutive dynamic instances of one
// static block, are common; blocks are therefore expanded in retirement
// order, fetch, execute, commit within each.
func (t *Trace) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := make([]chromeEvent, len(t.events), len(t.events)+spansPerBlock*t.blocks.n)
	copy(events, t.events)
	for _, ch := range t.blocks.list {
		for i := range ch {
			events = ch[i].appendSpans(events)
		}
	}
	t.mu.Unlock()
	return writeEvents(w, events)
}

// writeEvents sorts events by (ts, pid, tid, name), stably, and encodes
// them as a {"traceEvents":[...]} document.
func writeEvents(w io.Writer, events []chromeEvent) error {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}

// WriteTimeline renders the stored block records as CSV, one row per
// retired block in retirement order.  procColumn prepends the
// processor ID, for runs with more than one processor.
func (t *Trace) WriteTimeline(w io.Writer, procColumn bool) error {
	t.mu.Lock()
	blocks := t.blocks.appendTo(make([]BlockRecord, 0, t.blocks.n))
	t.mu.Unlock()
	return writeTimeline(w, blocks, procColumn)
}

// writeTimeline renders blocks as WriteTimeline's CSV.
func writeTimeline(w io.Writer, blocks []BlockRecord, procColumn bool) error {
	skip := 1
	if procColumn {
		skip = 0
	}
	cw := csv.NewWriter(w)
	header := []string{"proc", "seq", "block", "owner_core", "fetch_start", "dispatch_done", "complete", "commit_start", "retired", "flushed", "useful"}
	if err := cw.Write(header[skip:]); err != nil {
		return err
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for i := range blocks {
		r := &blocks[i]
		row := []string{
			strconv.Itoa(r.Proc), u(r.Seq), r.Name, strconv.Itoa(r.OwnerCore),
			u(r.FetchStart), u(r.DispatchDone), u(r.CompleteAt), u(r.CommitStart), u(r.RetiredAt),
			strconv.FormatBool(r.Flushed), strconv.Itoa(r.Useful),
		}
		if err := cw.Write(row[skip:]); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
