package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	tests := []struct {
		name    string
		scale   int
		reps    int
		only    string
		wantErr string // substring of the error; "" means valid
	}{
		{"defaults", 1, 8, "", ""},
		{"single pass", 4, 2, "critpath", ""},
		{"every pass name", 1, 1, "reference", ""},
		{"multiprogram pass", 1, 1, "multiprog", ""},
		{"zero reps", 1, 0, "", "-reps"},
		{"negative reps", 1, -3, "", "-reps"},
		{"zero scale", 0, 8, "", "-scale"},
		{"unknown pass", 1, 8, "fastest", "-only"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := validateFlags(tt.scale, tt.reps, tt.only)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%d, %d, %q) = %v, want nil", tt.scale, tt.reps, tt.only, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("validateFlags(%d, %d, %q) = %v, want error containing %q", tt.scale, tt.reps, tt.only, err, tt.wantErr)
			}
		})
	}
}
