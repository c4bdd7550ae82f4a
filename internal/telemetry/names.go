package telemetry

import (
	"strconv"
	"sync"
)

// Every chip registers the same few hundred metric names — "proc0.cycles",
// "core3.lsq.nacks", "noc.opnd.link.3.4.flits" — and an evaluation builds
// hundreds of chips.  Name and Indexed format each name once per process
// and hand out the same string ever after, so registering a chip's metrics
// and snapshotting its histograms concatenate nothing in steady state.
//
// The memo is append-only and read-mostly: a lookup takes the read lock
// and hashes a plain struct key (nothing is boxed); only the first request
// for a name takes the write lock.  Names are bounded by the shapes of the
// chips a process builds, so the memo stays small.

// nameKey identifies one memoized name: base, then the decimal index when
// index >= 0, then "." and leaf when leaf is set.
type nameKey struct {
	base  string
	index int
	leaf  string
}

var names = struct {
	sync.RWMutex
	m map[nameKey]string
}{m: map[nameKey]string{}}

// Name returns the hierarchical name prefix.leaf.
func Name(prefix, leaf string) string { return lookup(nameKey{prefix, -1, leaf}) }

// Indexed returns base followed by the decimal i and then .leaf — "core3.lsq"
// — or, with an empty leaf, base and i alone: "proc0".  i must not be
// negative.
func Indexed(base string, i int, leaf string) string { return lookup(nameKey{base, i, leaf}) }

func lookup(k nameKey) string {
	names.RLock()
	s, ok := names.m[k]
	names.RUnlock()
	if ok {
		return s
	}
	s = k.base
	if k.index >= 0 {
		s += strconv.Itoa(k.index)
	}
	if k.leaf != "" {
		s += "." + k.leaf
	}
	names.Lock()
	if prev, ok := names.m[k]; ok {
		s = prev // a concurrent first request won: hand out one string
	} else {
		names.m[k] = s
	}
	names.Unlock()
	return s
}
