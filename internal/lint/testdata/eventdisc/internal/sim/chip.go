// Fixture: the chip owns the event queue.  Ownership is structural — any
// struct with a queue-typed field (plain or pointer) is an owner — so the
// analyzer names no engine type.  Pops are confined to owner methods,
// pushes to the owner's scheduleEv, and nothing may compute a target
// cycle by subtracting from now.
package sim

type Chip struct {
	cal *calQueue
	now uint64
	seq uint64
}

func (c *Chip) scheduleEv(at uint64, e event) {
	if at < c.now {
		at = c.now
	}
	c.seq++
	e.at = at
	e.seq = c.seq
	c.cal.push(e) // ok: the owner's stamping entry point
}

func (c *Chip) run() {
	for len(c.cal.evs) > 0 {
		e := c.cal.popMin() // ok: an owner method draining its queue
		c.now = e.at
	}
}

func (c *Chip) sneak(e event) {
	c.cal.push(e) // want "bypasses the owner's scheduleEv"
}

func (c *Chip) retro(e event) {
	c.scheduleEv(c.now-1, e) // want "schedules before Now()"
	c.scheduleEv(c.now+2, e) // ok: forward delay
}

func (c *Chip) forward(t uint64, e event) {
	c.scheduleEv(t-1, e) // ok: t is not the current cycle
}

// Proc owns no queue: it may not touch one, even reached through the
// chip it runs on.
type Proc struct{ chip *Chip }

func (p *Proc) steal() event {
	return p.chip.cal.popMin() // want "outside a queue-owner method"
}

func (p *Proc) sneak(e event) {
	p.chip.cal.push(e) // want "bypasses the owner's scheduleEv"
}

func drain(q *calQueue) event {
	return q.popMin() // want "outside a queue-owner method"
}
