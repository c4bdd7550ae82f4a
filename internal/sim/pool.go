package sim

import (
	"slices"
	"sync"
)

// The chip pool: idle chips, reset, filed under the options they were
// built with.  tflex.RunMulti and arch.Sim take their chips from it, and
// a reset chip keeps one processor of each size it ran
// (keptStorage.procs), so one pooled chip serves every composition.  A
// sync.Pool per options lets the collector take idle chips back and
// serves concurrent callers.  Options holds two slices and so is no map
// key: a lookup compares field by field, over a list that only grows, one
// entry per distinct Options a process runs.
var (
	poolsMu sync.Mutex
	pools   []*chipPool
)

type chipPool struct {
	opts Options // owns its slices
	sync.Pool
}

// Acquire returns an idle chip built with options equal to opts, or
// New(opts) when none is idle.  The chip is in the state New returns.  A
// new chip owns copies of opts' slices, so a caller that edits DBanks or
// RegBanks afterwards changes neither the chip nor where Release files it.
func Acquire(opts Options) *Chip {
	if c, _ := poolFor(&opts).Get().(*Chip); c != nil {
		return c
	}
	return New(opts.clone())
}

// Release resets c and files it for the next Acquire of equal options.
// Every *Proc, registry, trace or sampler obtained from c is invalid
// after it, as after Reset; the caller must hold none.
func Release(c *Chip) {
	c.Reset()
	poolFor(&c.Opts).Put(c)
}

// poolFor returns the pool of chips built with options equal to o,
// making one on first use.
func poolFor(o *Options) *chipPool {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	for _, p := range pools {
		if p.opts.equal(o) {
			return p
		}
	}
	p := &chipPool{opts: o.clone()}
	pools = append(pools, p)
	return p
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
