package sim

import (
	"slices"
	"sync"
)

// The chip pool, the module's only one: idle reset chips in one plain
// list, last released first acquired, so reuse depends on neither the
// collector nor the race detector.  A chip serves only options equal to
// its own, compared field by field: Options holds two slices and so is no
// map key.  Idle chips live until the process exits.
var (
	poolMu sync.Mutex
	pool   []*Chip
)

// Acquire returns the idle chip last released with options equal to opts,
// or New(opts) when none is idle.  The chip is in the state New returns.
// A new chip owns copies of opts' slices, so a caller that edits DBanks
// or RegBanks afterwards changes neither the chip nor what it serves.
func Acquire(opts Options) *Chip {
	poolMu.Lock()
	for i := len(pool) - 1; i >= 0; i-- {
		if c := pool[i]; c.Opts.equal(&opts) {
			pool = slices.Delete(pool, i, i+1)
			poolMu.Unlock()
			return c
		}
	}
	poolMu.Unlock()
	return New(opts.clone())
}

// Release resets c and files it for the next Acquire of equal options.
// Every *Proc, registry, trace or sampler obtained from c is invalid
// after it, as after Reset; the caller must hold none.
func Release(c *Chip) {
	c.Reset()
	poolMu.Lock()
	pool = append(pool, c)
	poolMu.Unlock()
}

// equal reports whether chips built with o and with q behave alike.
func (o *Options) equal(q *Options) bool {
	return o.Params == q.Params && o.ZeroHandshake == q.ZeroHandshake &&
		o.CentralPredictor == q.CentralPredictor && o.ParallelDomains == q.ParallelDomains &&
		o.Reference == q.Reference &&
		slices.Equal(o.DBanks, q.DBanks) && slices.Equal(o.RegBanks, q.RegBanks)
}

// clone returns o with slices of its own.
func (o Options) clone() Options {
	o.DBanks, o.RegBanks = slices.Clone(o.DBanks), slices.Clone(o.RegBanks)
	return o
}
