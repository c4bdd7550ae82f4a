// Fixture: pops are confined to queue-owner methods, pushes to the
// owner's scheduleEv, and nothing may compute a target cycle by
// subtracting from now.  The chip holds no queue of its own: it owns
// its domains (a slice of owners), and through them their queues.
package sim

type Chip struct {
	domains []*domain
	now     uint64
}

func (c *Chip) Run() {
	for _, d := range c.domains {
		for len(d.cal.evs) > 0 {
			e := d.cal.popMin() // ok: the chip draining a domain it owns
			c.now = e.at
		}
	}
}

func (c *Chip) sneak(e event) {
	c.domains[0].cal.push(e) // want "bypasses the owner's scheduleEv"
}

func (c *Chip) retro(e event) {
	c.domains[0].scheduleEv(c.now-1, e) // want "schedules before Now()"
	c.domains[0].scheduleEv(c.now+2, e) // ok: forward delay
}

func (c *Chip) forward(t uint64, e event) {
	c.domains[0].scheduleEv(t-1, e) // ok: t is not the current cycle
}
