package sim

import (
	"testing"
	"unsafe"
)

// TestEventRecordSize holds the record's diet: an event carries no
// closure, no processor pointer and no stamp (the queue keeps the cycle
// and sequence), so its slab node is 48 bytes (evq.TestNodeSize).
func TestEventRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 40 {
		t.Errorf("event is %d bytes, want <= 40", n)
	}
}

// TestInstStateSize holds the in-flight window's diet: resetIFB makes or
// rewrites one instTS per live instruction per fetch.
func TestInstStateSize(t *testing.T) {
	if n := unsafe.Sizeof(instTS{}); n > 64 {
		t.Errorf("instTS is %d bytes, want <= 64", n)
	}
}
