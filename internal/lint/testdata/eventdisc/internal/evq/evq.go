// Fixture event queue: the one way in is Schedule, on any payload type.
package evq

type Queue[P any] struct {
	now uint64
	evs []P
}

func (q *Queue[P]) Now() uint64 { return q.now }

func (q *Queue[P]) Schedule(at uint64, p P) {
	if at < q.now {
		at = q.now
	}
	q.evs = append(q.evs, p)
}
