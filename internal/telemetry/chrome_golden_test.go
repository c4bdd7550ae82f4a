package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestChromeExporterGolden pins the exporter's exact JSON byte stream,
// including the one-tick minimum duration for degenerate spans: a span
// whose end equals (or precedes) its start must serialize with "dur":1,
// never as a zero-duration event that trace viewers drop.  One stored
// block record pins the late expansion: three spans on the owner core's
// track, the fetch span carrying the block's args, sorted in among the
// directly recorded events.
func TestChromeExporterGolden(t *testing.T) {
	tr := &Trace{}
	tr.NameProcess(7, "chip")
	tr.NameThread(7, 2, "core2")
	tr.Span(7, 2, "blk@0x100", "fetch", 100, 140)
	// FetchStart == CommitStart edge case: zero-length phase clamps to 1.
	tr.Span(7, 2, "blk@0x120", "commit", 140, 140)
	// Inverted span (end < start) clamps to 1 as well.
	tr.Span(7, 2, "blk@0x140", "flushed", 50, 40)
	tr.Block(BlockRecord{
		Seq: 9, Name: "loop", Addr: 0x10080, Proc: 7, Owner: 1, OwnerCore: 2,
		FetchStart: 60, DispatchDone: 71, CompleteAt: 90, CommitStart: 92, RetiredAt: 105,
		Useful: 12,
	})
	if got := tr.Len(); got != 8 {
		t.Fatalf("Len = %d, want 5 recorded events + 3 spans of the stored block", got)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exporter JSON drifted from golden file\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}
