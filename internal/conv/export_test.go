package conv

import "github.com/clp-sim/tflex/internal/exec"

// State is one Core2 model's storage, exported to the external tests.
type State = state

// NewState returns the state a run on a fresh model starts from.
func NewState(cfg Config) *State { return newState(cfg) }

// Run simulates a trace on s and then resets s, as Run does to the
// states it keeps.
func (s *State) Run(entries []exec.TraceEntry) Result {
	res := s.run(entries)
	s.reset()
	return res
}
