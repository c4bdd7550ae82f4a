// Fixture: the per-domain queue.  Ownership is structural — any struct
// with a queue-typed field (plain or pointer) is an owner — so the
// analyzer names no engine type.
package sim

type domain struct {
	cal *calQueue
	now uint64
	seq uint64
}

func (d *domain) scheduleEv(at uint64, e event) {
	if at < d.now {
		at = d.now
	}
	d.seq++
	e.at = at
	e.seq = d.seq
	d.cal.push(e) // ok: the owner's stamping entry point
}

func (d *domain) runWindow(limit uint64) {
	for len(d.cal.evs) > 0 {
		e := d.cal.popMin() // ok: an owner method draining its queue
		if e.at >= limit {
			return
		}
		d.now = e.at
	}
}

func (d *domain) sneak(e event) {
	d.cal.push(e) // want "bypasses the owner's scheduleEv"
}

// arbiter owns no queue: it may not drain one, even reached through a
// domain it holds.
type arbiter struct{ cur *domain }

func (a *arbiter) steal() event {
	return a.cur.cal.popMin() // want "outside a queue-owner method"
}

func drain(q *calQueue) event {
	return q.popMin() // want "outside a queue-owner method"
}
