package sim

// Stats accumulates per-processor simulation statistics.
type Stats struct {
	// Cycles runs from the processor's launch to its halt, so for one
	// composed after a Run (AddProcShared) it excludes the earlier run.
	Cycles uint64

	BlocksFetched   uint64
	BlocksCommitted uint64
	BlocksFlushed   uint64

	InstsCommitted uint64 // useful instructions in committed blocks
	InstsFired     uint64 // all fired instructions (incl. movs/nulls, wrong path)
	FPFired        uint64 // floating-point instructions fired

	Loads  uint64
	Stores uint64

	BranchFlushes      uint64 // flushes from next-block mispredictions
	ViolationFlushes   uint64 // flushes from memory dependence violations
	LSQNACKs           uint64
	LSQOverflowFlushes uint64 // younger-block flushes to unblock the oldest
	ICacheMisses       uint64

	RegReads  uint64
	RegWrites uint64

	// IssuedByCore counts instructions issued per participating core —
	// the utilization profile of the composition.
	IssuedByCore []uint64

	// Distributed-fetch latency components (sums over committed blocks,
	// Figure 9a).
	FetchBlocks      uint64
	FetchConstSum    uint64 // prediction + I-tag + fetch initiation
	FetchHandOffSum  uint64 // control hand-off between owner cores
	FetchBcastSum    uint64 // fetch-command distribution
	FetchDispatchSum uint64 // I-cache read into the window
	FetchIStallSum   uint64 // I-cache miss stalls

	// Distributed-commit latency components (Figure 9b).
	CommitBlocks       uint64
	CommitArchSum      uint64 // architectural state update
	CommitHandshakeSum uint64 // completion/commit/ack/dealloc messaging
}

// Utilization returns each participating core's issued-instructions per
// cycle — how evenly the composition's issue capacity is used.
func (s *Stats) Utilization() []float64 {
	if s.Cycles == 0 {
		return nil
	}
	out := make([]float64, len(s.IssuedByCore))
	for i, n := range s.IssuedByCore {
		out[i] = float64(n) / float64(s.Cycles)
	}
	return out
}

// IPC returns committed useful instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.InstsCommitted) / float64(s.Cycles)
}

// FetchLatency reports the average per-block fetch-pipeline components.
func (s *Stats) FetchLatency() (constant, handOff, bcast, dispatch, istall float64) {
	if s.FetchBlocks == 0 {
		return
	}
	n := float64(s.FetchBlocks)
	return float64(s.FetchConstSum) / n, float64(s.FetchHandOffSum) / n,
		float64(s.FetchBcastSum) / n, float64(s.FetchDispatchSum) / n,
		float64(s.FetchIStallSum) / n
}

// CommitLatency reports the average per-block commit components.
func (s *Stats) CommitLatency() (arch, handshake float64) {
	if s.CommitBlocks == 0 {
		return
	}
	n := float64(s.CommitBlocks)
	return float64(s.CommitArchSum) / n, float64(s.CommitHandshakeSum) / n
}
