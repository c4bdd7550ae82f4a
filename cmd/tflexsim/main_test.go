package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/flight"
)

func TestValidateFlags(t *testing.T) {
	tests := []struct {
		name     string
		cores    int
		scale    int
		procs    int
		fuzzN    int
		fuzzSeed int64
		sample   uint64 // -sample-every
		flight   int    // -flight-events
		trips    bool
		sweep    bool
		perRun   string // a flag only a kernel run reads (perRunFlag)
		wantErr  string // substring of the error; "" means valid
	}{
		{"defaults", 8, 2, 1, 0, -1, 256, 0, false, false, "", ""},
		{"full-chip partition", 8, 1, 4, 0, -1, 256, 0, false, false, "", ""},
		{"single-core partition", 1, 1, 32, 0, -1, 256, 0, false, false, "", ""},
		{"trips baseline", 8, 2, 1, 0, -1, 256, 0, true, false, "", ""},
		{"trips ignores cores", 3, 2, 1, 0, -1, 256, 0, true, false, "", ""},
		{"fuzz seed replay", 8, 2, 1, 0, 42, 256, 0, false, false, "", ""},
		{"fuzz range", 8, 2, 1, 500, -1, 256, 0, false, false, "", ""},
		{"zero scale", 8, 0, 1, 0, -1, 256, 0, false, false, "", "-scale"},
		{"zero procs", 8, 1, 0, 0, -1, 256, 0, false, false, "", "-procs"},
		{"zero sampling interval", 8, 1, 1, 0, -1, 0, 0, false, false, "", "-sample-every"},
		{"trips multiprogram", 8, 1, 2, 0, -1, 256, 0, true, false, "", "-procs"},
		{"negative fuzz range", 8, 1, 1, -5, -1, 256, 0, false, false, "", "-fuzz-n"},
		{"fuzz seed and range", 8, 1, 1, 10, 42, 256, 0, false, false, "", "-fuzz-seed"},
		{"fuzz with trips", 8, 1, 1, 10, -1, 256, 0, true, false, "", "-trips"},
		{"bad composition size", 3, 1, 1, 0, -1, 256, 0, false, false, "", "-cores"},
		{"partition too large", 8, 1, 5, 0, -1, 256, 0, false, false, "", "exceeds"},
		{"sweep", 8, 1, 1, 0, -1, 256, 0, false, true, "", ""},
		{"sweep multiprogram", 8, 1, 2, 0, -1, 256, 0, false, true, "", "-procs"},
		{"fuzz multiprogram", 8, 1, 2, 10, -1, 256, 0, false, false, "", "-procs"},
		{"kernel run with artefacts", 8, 1, 1, 0, -1, 256, 0, false, false, "-metrics", ""},
		{"trips with artefacts", 8, 1, 1, 0, -1, 256, 0, true, false, "-critpath", ""},
		{"fuzz seed with flight", 8, 1, 1, 0, 7, 256, 0, false, false, "-flight", ""},
		{"sweep with trips", 8, 1, 1, 0, -1, 256, 0, true, true, "", "-trips"},
		{"sweep with metrics", 8, 1, 1, 0, -1, 256, 0, false, true, "-metrics", "-metrics"},
		{"sweep with flight", 8, 1, 1, 0, -1, 256, 0, false, true, "-flight", "-flight"},
		{"fuzz seed with json", 8, 1, 1, 0, 7, 256, 0, false, false, "-json", "-json"},
		{"fuzz range with flight", 8, 1, 1, 10, -1, 256, 0, false, false, "-flight", "-flight"},
		{"flight ring at its bound", 8, 1, 1, 0, -1, 256, flight.MaxEvents, false, false, "-flight", ""},
		{"flight ring past its bound", 8, 1, 1, 0, -1, 256, 1 << 59, false, false, "-flight", "-flight-events"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := validateFlags(tt.cores, tt.scale, tt.procs, tt.fuzzN, tt.fuzzSeed, tt.sample, tt.flight, tt.trips, tt.sweep, tt.perRun)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%d, %d, %d, %d, %d, %t, %t, %q) = %v, want nil",
						tt.cores, tt.scale, tt.procs, tt.fuzzN, tt.fuzzSeed, tt.trips, tt.sweep, tt.perRun, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("validateFlags(%d, %d, %d, %d, %d, %d, %d, %t, %t, %q) = %v, want error containing %q",
					tt.cores, tt.scale, tt.procs, tt.fuzzN, tt.fuzzSeed, tt.sample, tt.flight, tt.trips, tt.sweep, tt.perRun, err, tt.wantErr)
			}
		})
	}
}

// runFuzz on a small clean seed range must succeed; the corpus gate in
// internal/fuzz covers the full range.
func TestRunFuzzCleanRange(t *testing.T) {
	if err := runFuzz(-1, 5, "", 0); err != nil {
		t.Fatalf("runFuzz(-1, 5) = %v", err)
	}
	if err := runFuzz(3, 0, "", 0); err != nil {
		t.Fatalf("runFuzz(3, 0) = %v", err)
	}
}

// TestMultiprogramObserverFlags runs -procs 2 with every observer flag
// (at the parent commit all six were dropped with exit 0 and no file)
// and parses every artefact: one file of each kind, rows of both
// processors in each, and on stdout one JSON object per processor.
func TestMultiprogramObserverFlags(t *testing.T) {
	dir := t.TempDir()
	f := simFlags{
		kernel: "conv", cores: 8, scale: 1, procs: 2,
		jsonOut: true, critPath: true,
		timeline:    filepath.Join(dir, "t.csv"),
		metrics:     filepath.Join(dir, "m.json"),
		chromeTrace: filepath.Join(dir, "c.json"),
		sample:      filepath.Join(dir, "s.json"), sampleEvery: 64,
		flight: filepath.Join(dir, "f.json"),
	}
	var stdout bytes.Buffer
	if err := runSim(f, nil, &stdout); err != nil {
		t.Fatal(err)
	}

	// stdout: one object per processor, critical path reconciled.
	type procObj struct {
		Proc     int
		Cycles   uint64
		Stats    struct{ BlocksCommitted, BlocksFlushed uint64 }
		CritPath *struct {
			Blocks uint64 `json:"blocks"`
		}
	}
	var objs []procObj
	for dec := json.NewDecoder(&stdout); dec.More(); {
		var o procObj
		if err := dec.Decode(&o); err != nil {
			t.Fatalf("-json: %v", err)
		}
		objs = append(objs, o)
	}
	if len(objs) != 2 || objs[0].Proc != 0 || objs[1].Proc != 1 {
		t.Fatalf("-json printed %+v, want one object per processor", objs)
	}
	for _, o := range objs {
		if o.Cycles == 0 || o.CritPath == nil || o.CritPath.Blocks != o.Stats.BlocksCommitted {
			t.Errorf("proc %d: cycles %d, critpath %+v, committed %d", o.Proc, o.Cycles, o.CritPath, o.Stats.BlocksCommitted)
		}
	}

	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %d bytes, err %v", filepath.Base(path), len(data), err)
		}
		return data
	}

	// -metrics: both processors' counters, equal to the printed stats.
	var metrics struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(read(f.metrics), &metrics); err != nil {
		t.Fatalf("-metrics: %v", err)
	}
	for _, o := range objs {
		name := fmt.Sprintf("proc%d.blocks.committed", o.Proc)
		if got := metrics.Counters[name]; got == 0 || got != o.Stats.BlocksCommitted {
			t.Errorf("-metrics %s = %d, -json says %d", name, got, o.Stats.BlocksCommitted)
		}
	}

	// -timeline: a leading proc column, one row per retired block.
	rows, err := csv.NewReader(bytes.NewReader(read(f.timeline))).ReadAll()
	if err != nil {
		t.Fatalf("-timeline: %v", err)
	}
	if rows[0][0] != "proc" || rows[0][1] != "seq" || len(rows[0]) != 11 {
		t.Fatalf("-timeline header = %v", rows[0])
	}
	retired := map[string]uint64{}
	for _, r := range rows[1:] {
		retired[r[0]]++
	}
	for _, o := range objs {
		if got, want := retired[strconv.Itoa(o.Proc)], o.Stats.BlocksCommitted+o.Stats.BlocksFlushed; got != want {
			t.Errorf("-timeline has %d rows of proc %d, want %d retired blocks", got, o.Proc, want)
		}
	}

	// -chrome-trace: three spans per timeline row, on both pid tracks.
	var chrome struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(read(f.chromeTrace), &chrome); err != nil {
		t.Fatalf("-chrome-trace: %v", err)
	}
	spans := map[int]int{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.PID]++
		}
	}
	if spans[0]+spans[1] != 3*(len(rows)-1) || spans[0] == 0 || spans[1] == 0 {
		t.Errorf("-chrome-trace spans by pid = %v, want 3 per row of %d rows over two processors", spans, len(rows)-1)
	}

	// -sample: series of both processors.
	var sample struct {
		Series []struct {
			Name   string    `json:"name"`
			Values []float64 `json:"values"`
		} `json:"series"`
	}
	if err := json.Unmarshal(read(f.sample), &sample); err != nil {
		t.Fatalf("-sample: %v", err)
	}
	sampled := map[string]int{}
	for _, s := range sample.Series {
		sampled[s.Name] = len(s.Values)
	}
	for _, name := range []string{"proc0.insts.committed", "proc1.insts.committed"} {
		if sampled[name] == 0 {
			t.Errorf("-sample has no rows of %s (series %v)", name, sampled)
		}
	}

	// -flight: one ring holding both processors' records.
	dump, err := flight.ParseDump(bytes.NewReader(read(f.flight)))
	if err != nil {
		t.Fatalf("-flight: %v", err)
	}
	procs := map[int16]bool{}
	for _, rc := range dump.Records(flight.KCommit) {
		procs[rc.Proc] = true
	}
	if len(procs) != 2 {
		t.Errorf("-flight holds commit records of %d processors, want 2", len(procs))
	}
}
