package mem

// groupSets is the number of sets in one lazily allocated group of a tag
// array.  A fresh chip is built per simulation job, so a tag array costs
// what the job fills: a group is allocated by the first fill that lands
// in it, and a lookup in a group never filled misses without allocating.
const groupSets = 64

// tagArray is the storage of a set-associative tag array of line state T:
// sets*ways lines, held as groups of groupSets consecutive sets.
type tagArray[T any] struct {
	sets, ways int
	groups     [][]T // groups[g] holds sets [g*groupSets, (g+1)*groupSets); nil until filled
}

func newTagArray[T any](sets, ways int) tagArray[T] {
	return tagArray[T]{sets: sets, ways: ways, groups: make([][]T, (sets+groupSets-1)/groupSets)}
}

// setOf returns the set index of line address la.
func (a *tagArray[T]) setOf(la uint64) uint { return uint(la % uint64(a.sets)) }

// peek returns the ways of set s, or nil when nothing was ever filled in
// its group.
func (a *tagArray[T]) peek(s uint) []T {
	g := a.groups[s/groupSets]
	if g == nil {
		return nil
	}
	o := int(s%groupSets) * a.ways
	return g[o : o+a.ways]
}

// touch returns the ways of set s, allocating its group on first use.
func (a *tagArray[T]) touch(s uint) []T {
	gi := s / groupSets
	if a.groups[gi] == nil {
		n := a.sets - int(gi)*groupSets // the last group may be short
		if n > groupSets {
			n = groupSets
		}
		a.groups[gi] = make([]T, n*a.ways)
	}
	return a.peek(s)
}
