package telemetry

// chunks is an append-only list stored in fixed chunks: the first holds
// firstChunk elements and each next one twice its predecessor's, up to
// maxChunk.  A full chunk is never copied, so a list allocates what it
// keeps plus the unfilled tail of its last chunk, where a slice grown by
// append allocates several times what it finally holds.  Readers walk
// list in order.
type chunks[T any] struct {
	list [][]T // every chunk, oldest first; only the last has room
	n    int   // elements stored
}

const (
	firstChunk = 16
	maxChunk   = 1024
)

// push appends v.
func (c *chunks[T]) push(v T) {
	last := len(c.list) - 1
	if last < 0 || len(c.list[last]) == cap(c.list[last]) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(c.list[last]), maxChunk)
		}
		c.list = append(c.list, make([]T, 0, size))
		last++
	}
	c.list[last] = append(c.list[last], v)
	c.n++
}

// appendTo appends every element to dst, in push order.
func (c *chunks[T]) appendTo(dst []T) []T {
	for _, ch := range c.list {
		dst = append(dst, ch...)
	}
	return dst
}
