package vclock

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFifoModel drives a fifo and a plain slice with the same random
// push, pop and remove steps and compares them after every step.  The
// fifo starts in a one-element array of its owner, as a mailbox's
// queues do, so the runs cross the move to the heap, pops that drain
// the queue and rewind it, and compactions of a full, half-popped
// backing.  Values repeat, so remove must take the first occurrence;
// and no slot outside the queued span, nor the inline slot once left,
// may still hold a value, since a popped message is the receiver's
// alone to keep alive.
func TestFifoModel(t *testing.T) {
	var moves, compactions int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var inline [1]int
		q := fifo[int]{items: inline[:0]}
		var model []int
		onHeap := false
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				v := 1 + rng.Intn(5)
				head, backing := q.head, cap(q.items)
				q.push(v)
				model = append(model, v)
				if head > 0 && q.head == 0 && cap(q.items) == backing {
					compactions++
				}
			case op < 8:
				if len(model) == 0 {
					continue
				}
				if got := q.pop(); got != model[0] {
					t.Fatalf("seed %d step %d: pop = %d, want %d", seed, step, got, model[0])
				}
				model = model[1:]
			default:
				v := 1 + rng.Intn(6) // 6 is never pushed: a remove of an absent value
				q.remove(v)
				if i := slices.Index(model, v); i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
			}
			if q.len() != len(model) || !slices.Equal(q.rest(), model) {
				t.Fatalf("seed %d step %d: fifo holds %v, want %v", seed, step, q.rest(), model)
			}
			if len(model) > 0 && q.peek() != model[0] {
				t.Fatalf("seed %d step %d: peek = %d, want %d", seed, step, q.peek(), model[0])
			}
			if inBacking := &q.items[:1][0] == &inline[0]; !inBacking && !onHeap {
				onHeap = true
				moves++
				if len(model) < 2 {
					t.Fatalf("seed %d step %d: the queue left its inline slot holding %d", seed, step, len(model))
				}
			} else if inBacking && onHeap {
				t.Fatalf("seed %d step %d: the queue went back to its inline slot", seed, step)
			}
			if onHeap && inline[0] != 0 {
				t.Fatalf("seed %d step %d: the inline slot left behind still holds %d", seed, step, inline[0])
			}
			full := q.items[:cap(q.items)]
			for i, v := range full {
				if (i < q.head || i >= len(q.items)) && v != 0 {
					t.Fatalf("seed %d step %d: slot %d outside [%d, %d) still holds %d", seed, step, i, q.head, len(q.items), v)
				}
			}
		}
	}
	if moves == 0 || compactions == 0 {
		t.Fatalf("the runs made %d moves to the heap and %d compactions; want some of each", moves, compactions)
	}
}
