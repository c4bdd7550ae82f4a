package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/clp-sim/tflex/internal/experiments"
)

func TestValidateFlags(t *testing.T) {
	tests := []struct {
		name      string
		exp       string
		scale     int
		workloads int
		serve     string
		wantErr   string // substring of the error; "" means valid
	}{
		{"defaults", "all", 2, 10, "", ""},
		{"named experiment", "fig6", 1, 1, "", ""},
		{"serve host:port", "all", 2, 10, "127.0.0.1:18573", ""},
		{"serve wildcard port", "all", 2, 10, ":8080", ""},
		{"zero scale", "all", 0, 10, "", "-scale"},
		{"zero workloads", "all", 2, 0, "", "-workloads"},
		{"serve missing port", "all", 2, 10, "localhost", "-serve"},
		{"serve garbage", "all", 2, 10, "not an address", "-serve"},
		{"unknown experiment", "fig99", 2, 10, "", "unknown experiment"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := validateFlags(tt.exp, tt.scale, tt.workloads, tt.serve)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%q, %d, %d, %q) = %v, want nil", tt.exp, tt.scale, tt.workloads, tt.serve, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("validateFlags(%q, %d, %d, %q) = %v, want error containing %q", tt.exp, tt.scale, tt.workloads, tt.serve, err, tt.wantErr)
			}
		})
	}
}

// TestGoldenScale2 renders what `tflexexp -exp all -scale 2` prints and
// compares it byte for byte with the committed capture, so "stdout is
// unchanged" is a test and not a claim.  After an intended model change,
// regenerate the capture with
//
//	go run ./cmd/tflexexp -exp all -scale 2 > results_scale2.txt
func TestGoldenScale2(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment at scale 2")
	}
	want, err := os.ReadFile("../../results_scale2.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.NewSuite(2)
	var got bytes.Buffer
	for _, e := range experiments.Evaluation() {
		if err := render(&got, s, e, 10); err != nil { // the flag defaults: -scale 2 -workloads 10
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("output differs from results_scale2.txt at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, results_scale2.txt has %d", len(gl), len(wl))
}
