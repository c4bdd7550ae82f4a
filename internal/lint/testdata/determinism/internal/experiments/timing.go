// Fixture: internal/experiments is on the wall-clock allowlist — timing
// its jobs is the suite's bookkeeping — so this import must NOT be
// flagged.
package experiments

import "time"

func wall(start time.Time) time.Duration { return time.Since(start) }
