package mem

// groupSets is the number of sets in one lazily allocated group of a tag
// array.  A tag array costs what the jobs run on it fill: a group is
// allocated by the first fill that lands in it, and a lookup in a group
// never filled misses without allocating.  A reset zeroes the groups
// filled since the last reset, so it costs what the last job touched, and
// keeps their storage for the next fill that lands in them.
const groupSets = 64

// tagArray is the storage of a set-associative tag array of line state T:
// sets*ways lines, held as groups of groupSets consecutive sets.
type tagArray[T any] struct {
	sets, ways int
	// groups[g] holds sets [g*groupSets, (g+1)*groupSets): empty until a
	// fill lands in it since the array was built or reset, its capacity
	// the zeroed storage a reset kept.
	groups [][]T
}

func newTagArray[T any](sets, ways int) tagArray[T] {
	return tagArray[T]{sets: sets, ways: ways, groups: make([][]T, (sets+groupSets-1)/groupSets)}
}

// setOf returns the set index of line address la.
func (a *tagArray[T]) setOf(la uint64) uint { return uint(la % uint64(a.sets)) }

// peek returns the ways of set s, or nil when nothing was filled in its
// group since the array was built or reset.
func (a *tagArray[T]) peek(s uint) []T {
	g := a.groups[s/groupSets]
	if len(g) == 0 {
		return nil
	}
	o := int(s%groupSets) * a.ways
	return g[o : o+a.ways]
}

// touch returns the ways of set s, making its group on first use: from
// the storage a reset kept, or allocated.
func (a *tagArray[T]) touch(s uint) []T {
	gi := s / groupSets
	if g := a.groups[gi]; len(g) == 0 {
		if cap(g) > 0 {
			a.groups[gi] = g[:cap(g)]
		} else {
			n := a.sets - int(gi)*groupSets // the last group may be short
			if n > groupSets {
				n = groupSets
			}
			a.groups[gi] = make([]T, n*a.ways)
		}
	}
	return a.peek(s)
}

// reset empties the array: each group filled since the last reset is
// zeroed and kept, at length zero, for the next fill that lands in it.
// The group headers are a few hundred words at most; the lines zeroed are
// the ones the last job filled.
func (a *tagArray[T]) reset() {
	for gi, g := range a.groups {
		if len(g) > 0 {
			clear(g)
			a.groups[gi] = g[:0]
		}
	}
}
