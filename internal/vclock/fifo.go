package vclock

// fifo is a queue that reuses its backing array: popping the last item
// rewinds it, so a queue that drains between uses stops allocating, and
// a full array at least half popped is compacted instead of grown.
type fifo[T comparable] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int  { return len(q.items) - q.head }
func (q *fifo[T]) peek() T   { return q.items[q.head] }
func (q *fifo[T]) rest() []T { return q.items[q.head:] }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && 2*q.head >= len(q.items) && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	q.rewind()
	return v
}

// remove deletes the first occurrence of v, if any.
func (q *fifo[T]) remove(v T) {
	for i := q.head; i < len(q.items); i++ {
		if q.items[i] == v {
			copy(q.items[i:], q.items[i+1:])
			var zero T
			q.items[len(q.items)-1] = zero
			q.items = q.items[:len(q.items)-1]
			q.rewind()
			return
		}
	}
}

func (q *fifo[T]) rewind() {
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}
