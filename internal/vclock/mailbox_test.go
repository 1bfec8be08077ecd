package vclock

import (
	"testing"
	"time"
)

func TestMailboxLatency(t *testing.T) {
	c := New()
	box := NewMailbox(c, "box")
	var recvAt Time
	c.Spawn("recv", func(a *Actor) {
		v, ok := a.Get(box)
		if !ok || v.(string) != "hello" {
			t.Errorf("Get = %v, %v", v, ok)
		}
		recvAt = a.Now()
	})
	c.Spawn("send", func(a *Actor) {
		a.Sleep(5 * time.Millisecond)
		box.Put("hello", 3*time.Millisecond)
	})
	c.Run()
	if recvAt != Time(8*time.Millisecond) {
		t.Fatalf("received at %v, want 8ms", time.Duration(recvAt))
	}
}

func TestMailboxOrdering(t *testing.T) {
	c := New()
	box := NewMailbox(c, "box")
	var got []int
	c.Spawn("send", func(a *Actor) {
		// Sent in one order, delivered in delay order.
		box.Put(3, 30*time.Millisecond)
		box.Put(1, 10*time.Millisecond)
		box.Put(2, 20*time.Millisecond)
	})
	c.Spawn("recv", func(a *Actor) {
		for i := 0; i < 3; i++ {
			v, _ := a.Get(box)
			got = append(got, v.(int))
		}
	})
	c.Run()
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("got %v, want [1 2 3]", got)
		}
	}
}

func TestMailboxTieBreakByPutOrder(t *testing.T) {
	c := New()
	box := NewMailbox(c, "box")
	var got []int
	c.Spawn("send", func(a *Actor) {
		for i := 0; i < 5; i++ {
			box.Put(i, time.Millisecond) // identical delivery instants
		}
	})
	c.Spawn("recv", func(a *Actor) {
		for i := 0; i < 5; i++ {
			v, _ := a.Get(box)
			got = append(got, v.(int))
		}
	})
	c.Run()
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("same-instant messages reordered: %v", got)
		}
	}
}

func TestGetTimeoutExpires(t *testing.T) {
	c := New()
	box := NewMailbox(c, "box")
	var ok bool
	var at Time
	c.Spawn("recv", func(a *Actor) {
		_, ok = a.GetTimeout(box, 7*time.Millisecond)
		at = a.Now()
	})
	// A second actor keeps the simulation alive past the timeout.
	c.Spawn("other", func(a *Actor) {
		a.Sleep(20 * time.Millisecond)
	})
	c.Run()
	if ok {
		t.Fatal("GetTimeout returned ok on empty mailbox")
	}
	if at != Time(7*time.Millisecond) {
		t.Fatalf("timed out at %v, want 7ms", time.Duration(at))
	}
}

func TestGetTimeoutReceives(t *testing.T) {
	c := New()
	box := NewMailbox(c, "box")
	var got any
	var ok bool
	c.Spawn("recv", func(a *Actor) {
		got, ok = a.GetTimeout(box, 10*time.Millisecond)
	})
	c.Spawn("send", func(a *Actor) {
		box.Put(99, 4*time.Millisecond)
	})
	c.Run()
	if !ok || got.(int) != 99 {
		t.Fatalf("GetTimeout = %v, %v", got, ok)
	}
	if c.Now() != Time(4*time.Millisecond) {
		t.Fatalf("final time %v, want 4ms", time.Duration(c.Now()))
	}
}

func TestGetTimeoutDeliveryAtDeadline(t *testing.T) {
	// Delivery and timeout at the same instant: the delivery wins because
	// Get checks the ready queue before the deadline.
	c := New()
	box := NewMailbox(c, "box")
	var ok bool
	c.Spawn("recv", func(a *Actor) {
		_, ok = a.GetTimeout(box, 5*time.Millisecond)
	})
	c.Spawn("send", func(a *Actor) {
		box.Put(1, 5*time.Millisecond)
	})
	c.Run()
	if !ok {
		t.Fatal("message delivered exactly at deadline was lost")
	}
}

func TestMailboxClose(t *testing.T) {
	c := New()
	box := NewMailbox(c, "box")
	var results []bool
	c.Spawn("recv", func(a *Actor) {
		for {
			_, ok := a.Get(box)
			results = append(results, ok)
			if !ok {
				return
			}
		}
	})
	c.Spawn("send", func(a *Actor) {
		box.Put(1, time.Millisecond)
		a.Sleep(2 * time.Millisecond)
		box.Close()
	})
	c.Run()
	if len(results) != 2 || !results[0] || results[1] {
		t.Fatalf("results = %v, want [true false]", results)
	}
}

func TestMailboxCloseDrainsInFlight(t *testing.T) {
	// Messages already in flight at Close time must still be delivered.
	c := New()
	box := NewMailbox(c, "box")
	var vals []int
	c.Spawn("send", func(a *Actor) {
		box.Put(1, 5*time.Millisecond)
		box.Put(2, 6*time.Millisecond)
		box.Close()
	})
	c.Spawn("recv", func(a *Actor) {
		for {
			v, ok := a.Get(box)
			if !ok {
				return
			}
			vals = append(vals, v.(int))
		}
	})
	c.Run()
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("vals = %v, want [1 2]", vals)
	}
}

func TestPutOnClosedDropped(t *testing.T) {
	c := New()
	box := NewMailbox(c, "box")
	box.Close()
	box.Put(1, 0) // must not panic
	if box.Len() != 0 || box.InFlight() != 0 {
		t.Fatalf("message accepted on closed mailbox: len=%d inflight=%d", box.Len(), box.InFlight())
	}
	a := c.Adopt("r")
	defer a.Done()
	if _, ok := a.Get(box); ok {
		t.Fatal("Get returned a dropped message")
	}
}

func TestLenAndInFlight(t *testing.T) {
	c := New()
	box := NewMailbox(c, "box")
	a := c.Adopt("main")
	box.Put(1, time.Millisecond)
	if box.Len() != 0 || box.InFlight() != 1 {
		t.Fatalf("len=%d inflight=%d, want 0/1", box.Len(), box.InFlight())
	}
	a.Sleep(2 * time.Millisecond)
	if box.Len() != 1 || box.InFlight() != 0 {
		t.Fatalf("len=%d inflight=%d, want 1/0", box.Len(), box.InFlight())
	}
	a.Done()
}

func TestMultipleReceivers(t *testing.T) {
	// Each message goes to exactly one receiver.
	c := New()
	box := NewMailbox(c, "box")
	const n = 20
	counts := make(chan int, 4)
	for w := 0; w < 4; w++ {
		c.Spawn("worker", func(a *Actor) {
			got := 0
			for {
				_, ok := a.Get(box)
				if !ok {
					counts <- got
					return
				}
				got++
				a.Sleep(time.Millisecond)
			}
		})
	}
	c.Spawn("send", func(a *Actor) {
		for i := 0; i < n; i++ {
			box.Put(i, time.Duration(i)*100*time.Microsecond)
		}
		a.Sleep(time.Second)
		box.Close()
	})
	c.Run()
	close(counts)
	total := 0
	for g := range counts {
		total += g
	}
	if total != n {
		t.Fatalf("workers received %d messages total, want %d", total, n)
	}
}

// TestDeadlockDetection pins the deadlock panic and the dump text of
// every actor state.  Only a receiver without a deadline can be part of
// a real deadlock (every other state has an event pending), so the other
// rows take the dump while the adopted main actor holds the run token.
func TestDeadlockDetection(t *testing.T) {
	dump := func(c *Clock) string {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.dumpLocked()
	}
	for _, row := range []struct {
		name string
		run  func(c *Clock, main *Actor, box *Mailbox) string
		want string
	}{
		{"deadlocked", func(c *Clock, main *Actor, box *Mailbox) (msg string) {
			main.Sleep(5 * time.Millisecond)
			defer func() { msg, _ = recover().(string) }()
			main.Get(box) // no sender, no events: deadlock
			return "deadlocked Get did not panic"
		}, "vclock: deadlock — all actors blocked with no pending events\nat virtual time 5ms:\n" +
			`  actor "main": receiving on mailbox box`},
		{"sleeping", func(c *Clock, main *Actor, box *Mailbox) string {
			c.Spawn("x", func(x *Actor) { x.Sleep(time.Second) })
			main.Sleep(0)
			return dump(c)
		}, "at virtual time 0s:\n" + `  actor "main": running` + "\n" + `  actor "x": sleeping until 1s`},
		{"receiving", func(c *Clock, main *Actor, box *Mailbox) string {
			c.Spawn("x", func(x *Actor) { x.Get(box) })
			main.Sleep(time.Millisecond)
			return dump(c)
		}, "at virtual time 1ms:\n" + `  actor "main": running` + "\n" + `  actor "x": receiving on mailbox box`},
		{"receiving with timeout", func(c *Clock, main *Actor, box *Mailbox) string {
			c.Spawn("x", func(x *Actor) { x.GetTimeout(box, 2*time.Second) })
			main.Sleep(0)
			return dump(c)
		}, "at virtual time 0s:\n" + `  actor "main": running` + "\n" + `  actor "x": receiving on mailbox box (timeout at 2s)`},
		{"starting", func(c *Clock, main *Actor, box *Mailbox) string {
			c.Spawn("x", func(*Actor) {})
			return dump(c)
		}, "at virtual time 0s:\n" + `  actor "main": running` + "\n" + `  actor "x": starting`},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := New()
			box := NewMailbox(c, "box")
			main := c.Adopt("main")
			if got := row.run(c, main, box); got != row.want {
				t.Fatalf("got\n%s\nwant\n%s", got, row.want)
			}
			if c.dead {
				return // poisoned: do not reuse
			}
			box.Close()
			main.Done()
			c.Run()
		})
	}
}

func TestPingPongTiming(t *testing.T) {
	// Two actors exchanging N messages with latency L each way must take
	// exactly 2*N*L of virtual time.
	const n = 10
	const lat = time.Millisecond
	c := New()
	ping := NewMailbox(c, "ping")
	pong := NewMailbox(c, "pong")
	c.Spawn("b", func(a *Actor) {
		for i := 0; i < n; i++ {
			v, _ := a.Get(ping)
			pong.Put(v, lat)
		}
	})
	c.Spawn("a", func(a *Actor) {
		for i := 0; i < n; i++ {
			ping.Put(i, lat)
			a.Get(pong)
		}
	})
	c.Run()
	if c.Now() != Time(2*n*lat) {
		t.Fatalf("final time %v, want %v", time.Duration(c.Now()), 2*n*lat)
	}
}
