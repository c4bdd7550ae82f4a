package predictor

import "github.com/clp-sim/tflex/internal/telemetry"

// Register exposes the composed predictor's counters under prefix
// (e.g. "proc0.pred") as views over its own stats fields, plus a derived
// accuracy gauge, whose func the first Register binds and every later
// one passes again, so re-registering allocates nothing.
func (c *Composed) Register(r *telemetry.Registry, prefix string) {
	if c.accuracyGauge == nil {
		c.accuracyGauge = func() float64 { return c.Stats.Accuracy() }
	}
	r.CounterView(telemetry.Name(prefix, "predictions"), &c.Stats.Predictions)
	r.CounterView(telemetry.Name(prefix, "hits"), &c.Stats.Hits)
	r.CounterView(telemetry.Name(prefix, "exit_miss"), &c.Stats.ExitMiss)
	r.CounterView(telemetry.Name(prefix, "target_miss"), &c.Stats.TargetMiss)
	r.CounterView(telemetry.Name(prefix, "mispredicts"), &c.Stats.Mispredicts)
	r.CounterView(telemetry.Name(prefix, "flushes"), &c.Stats.Flushes)
	r.CounterView(telemetry.Name(prefix, "ras.pushes"), &c.Stats.RASPushes)
	r.CounterView(telemetry.Name(prefix, "ras.pops"), &c.Stats.RASPops)
	r.CounterView(telemetry.Name(prefix, "ras.underflows"), &c.Stats.RASUnderflows)
	r.Gauge(telemetry.Name(prefix, "accuracy"), c.accuracyGauge)
}
