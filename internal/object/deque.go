package object

// chunkCap is the fan-out of the chunked deque: Clone copies one
// pointer per chunkCap elements, and a copy-on-write PushBack copies at
// most one chunk.
const chunkCap = 64

// chunk is one fixed-size block of deque storage. Chunks are shared
// between clones and treated as immutable once shared; only a chunk the
// deque exclusively owns (ownBack) is written in place.
type chunk[T any] struct {
	vals [chunkCap]T
}

// Deque is a copy-on-write chunked FIFO deque. Clone is O(len/chunkCap)
// — it copies the chunk-pointer spine, never the elements — so a
// resilient queue's per-Apply clone stops being O(len): PushBack
// copies at most one chunk (amortized O(1)) and PopFront is O(1).
//
// The zero value is an empty deque. After Clone, mutate only the clone;
// the receiver is treated as the immutable committed copy (the usage
// contract of resilient.Shared's clone hook).
type Deque[T any] struct {
	// chunks is the spine. Element i lives at linear position head+i:
	// chunk (head+i)/chunkCap, slot (head+i)%chunkCap.
	chunks []*chunk[T]
	// head indexes the first element within chunks[0]; 0 ≤ head < chunkCap.
	head int
	// tail counts filled slots in the last chunk; 1 ≤ tail ≤ chunkCap
	// when size > 0.
	tail int
	// size is the element count. size == 0 implies chunks == nil.
	size int
	// ownBack is true while the last chunk is exclusively owned and may
	// be appended to in place. Clone clears it on the copy, forcing the
	// first PushBack after a clone to copy the shared chunk.
	ownBack bool
}

// Len reports the number of elements.
func (d *Deque[T]) Len() int { return d.size }

// Clone copies the deque sharing all chunks. It never writes the
// receiver, so concurrent Clones of one committed deque are safe. The
// spine copy has exact capacity: a later PushBack that grows the spine
// reallocates instead of writing a backing array a sibling shares.
func (d Deque[T]) Clone() Deque[T] {
	c := d
	c.ownBack = false
	if d.chunks != nil {
		spine := make([]*chunk[T], len(d.chunks))
		copy(spine, d.chunks)
		c.chunks = spine
	}
	return c
}

// Seal gives up the back chunk before the deque is published: the next
// PushBack, on a clone, copies it. A deque pushed to and sealed is then
// equal in memory whether it was cloned before every push or only once.
func (d *Deque[T]) Seal() { d.ownBack = false }

// PushBack appends v.
func (d *Deque[T]) PushBack(v T) {
	if len(d.chunks) == 0 || d.tail == chunkCap {
		c := new(chunk[T])
		c.vals[0] = v
		d.chunks = append(d.chunks, c)
		d.tail = 1
		d.ownBack = true
		d.size++
		return
	}
	if !d.ownBack {
		// The back chunk is shared with a clone: copy before writing.
		last := len(d.chunks) - 1
		c := *d.chunks[last]
		spine := make([]*chunk[T], len(d.chunks))
		copy(spine, d.chunks)
		spine[last] = &c
		d.chunks = spine
		d.ownBack = true
	}
	d.chunks[len(d.chunks)-1].vals[d.tail] = v
	d.tail++
	d.size++
}

// PopFront removes and returns the head; ok is false if the deque is
// empty. Popped slots are not zeroed while their chunk is shared; a
// chunk's storage is released when the spine drops it.
func (d *Deque[T]) PopFront() (v T, ok bool) {
	if d.size == 0 {
		return v, false
	}
	v = d.chunks[0].vals[d.head]
	d.size--
	if d.size == 0 {
		d.chunks, d.head, d.tail, d.ownBack = nil, 0, 0, false
		return v, true
	}
	d.head++
	if d.head == chunkCap {
		d.chunks = d.chunks[1:]
		d.head = 0
	}
	return v, true
}

// At returns element i (0 ≤ i < Len) without bounds checking beyond
// the underlying array's.
func (d *Deque[T]) At(i int) T {
	pos := d.head + i
	return d.chunks[pos/chunkCap].vals[pos%chunkCap]
}
