package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	tests := []struct {
		name     string
		cores    int
		scale    int
		procs    int
		fuzzN    int
		fuzzSeed int64
		trips    bool
		wantErr  string // substring of the error; "" means valid
	}{
		{"defaults", 8, 2, 1, 0, -1, false, ""},
		{"full-chip partition", 8, 1, 4, 0, -1, false, ""},
		{"single-core partition", 1, 1, 32, 0, -1, false, ""},
		{"trips baseline", 8, 2, 1, 0, -1, true, ""},
		{"trips ignores cores", 3, 2, 1, 0, -1, true, ""},
		{"fuzz seed replay", 8, 2, 1, 0, 42, false, ""},
		{"fuzz range", 8, 2, 1, 500, -1, false, ""},
		{"zero scale", 8, 0, 1, 0, -1, false, "-scale"},
		{"zero procs", 8, 1, 0, 0, -1, false, "-procs"},
		{"trips multiprogram", 8, 1, 2, 0, -1, true, "-procs"},
		{"negative fuzz range", 8, 1, 1, -5, -1, false, "-fuzz-n"},
		{"fuzz seed and range", 8, 1, 1, 10, 42, false, "-fuzz-seed"},
		{"fuzz with trips", 8, 1, 1, 10, -1, true, "-trips"},
		{"bad composition size", 3, 1, 1, 0, -1, false, "-cores"},
		{"partition too large", 8, 1, 5, 0, -1, false, "exceeds"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := validateFlags(tt.cores, tt.scale, tt.procs, tt.fuzzN, tt.fuzzSeed, tt.trips)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%d, %d, %d, %d, %d, %t) = %v, want nil",
						tt.cores, tt.scale, tt.procs, tt.fuzzN, tt.fuzzSeed, tt.trips, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("validateFlags(%d, %d, %d, %d, %d, %t) = %v, want error containing %q",
					tt.cores, tt.scale, tt.procs, tt.fuzzN, tt.fuzzSeed, tt.trips, err, tt.wantErr)
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
