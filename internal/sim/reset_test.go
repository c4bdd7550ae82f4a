package sim

import (
	"reflect"
	"testing"
)

// TestRegistryReuseIsInvisible: a reset chip's kept registry, first asked
// for after an unarmed run (the root package's invariant harness arms it
// before each run), reads as a new chip's, without the 32-core job's
// proc0.core17.issued; a registry frozen before a reset is neither handed
// out again nor changed by the next job.  Both engines.
func TestRegistryReuseIsInvisible(t *testing.T) {
	p := sumProgram(t)
	for _, reference := range []bool{false, true} {
		t.Run(map[bool]string{false: "opt", true: "ref"}[reference], func(t *testing.T) {
			opts := DefaultOptions()
			opts.Reference = reference
			chip, fresh := New(opts), New(opts)
			armedJob(t, chip, p, 32)
			chip.Reset()
			setupJob(t, chip, p, 1)
			setupJob(t, fresh, p, 1)
			snap := chip.Telemetry().Snapshot()
			if _, ok := snap["proc0.core17.issued"]; ok || !reflect.DeepEqual(snap, fresh.Telemetry().Snapshot()) {
				t.Errorf("a reset chip's registry built after the run differs from a new chip's:\n%v", snap)
			}
			frozen := chip.Telemetry()
			frozen.Freeze()
			want := frozen.Snapshot()
			chip.Reset()
			if armedJob(t, chip, p, 8); chip.Telemetry() == frozen || !reflect.DeepEqual(frozen.Snapshot(), want) {
				t.Errorf("a registry frozen before a reset serves the next job or changed under it")
			}
		})
	}
}
