// Fixture: nothing may compute an event queue's target cycle by
// subtracting from the current cycle.  The rule follows the type
// evq.Queue, whatever the field or the payload is called.
package sim

import "example.com/fix/internal/evq"

type event struct{ kind uint8 }

type Chip struct {
	q evq.Queue[event]
}

func (c *Chip) retro(e event) {
	c.q.Schedule(c.q.Now()-1, e) // want "cycle argument c.q.Now() - 1 schedules before Now()"
	c.q.Schedule(c.q.Now()+2, e) // ok: forward delay
	now := c.q.Now()
	c.q.Schedule(now-3+5, e) // want "cycle argument now - 3 schedules"
}

func (c *Chip) forward(t uint64, e event) {
	c.q.Schedule(t-1, e) // ok: t is not the current cycle
}

// Proc reaches the queue through its chip; the rule holds there too.
type Proc struct{ chip *Chip }

func (p *Proc) retro(e event) {
	p.chip.q.Schedule(p.chip.q.Now()-1, e) // want "cycle argument p.chip.q.Now() - 1 schedules"
}

// diary is not the event queue: a Schedule method of another type
// is not held to the rule.
type diary struct{ now uint64 }

func (diary) Schedule(at uint64, e event) {}

func (d diary) meeting(e event) {
	d.Schedule(d.now-1, e) // ok: not an evq.Queue
}
