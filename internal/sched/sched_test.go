package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jsymphony/internal/vclock"
)

// harness runs one test body against both scheduler implementations.  The
// body receives the sched and a "join" function that blocks until all
// spawned procs are finished.
func harness(t *testing.T, body func(t *testing.T, s Sched, spawn func(string, func(Proc)), join func())) {
	t.Run("real", func(t *testing.T) {
		s := Real()
		var wg sync.WaitGroup
		spawn := func(name string, fn func(Proc)) {
			wg.Add(1)
			s.Spawn(name, func(p Proc) {
				defer wg.Done()
				fn(p)
			})
		}
		body(t, s, spawn, wg.Wait)
	})
	t.Run("virtual", func(t *testing.T) {
		c := vclock.New()
		s := Virtual(c)
		body(t, s, s.Spawn, c.Run)
	})
}

func TestQueueFIFO(t *testing.T) {
	harness(t, func(t *testing.T, s Sched, spawn func(string, func(Proc)), join func()) {
		q := s.NewQueue("q")
		var got []int
		spawn("recv", func(p Proc) {
			for i := 0; i < 5; i++ {
				v, ok := p.Recv(q)
				if !ok {
					t.Error("queue closed early")
					return
				}
				got = append(got, v.(int))
			}
		})
		spawn("send", func(p Proc) {
			for i := 0; i < 5; i++ {
				q.Put(i, 0)
			}
		})
		join()
		for i := 0; i < 5; i++ {
			if got[i] != i {
				t.Fatalf("out of order: %v", got)
			}
		}
	})
}

func TestQueueClose(t *testing.T) {
	harness(t, func(t *testing.T, s Sched, spawn func(string, func(Proc)), join func()) {
		q := s.NewQueue("q")
		q.Put(1, 0)
		q.Close()
		var first, second bool
		spawn("recv", func(p Proc) {
			_, first = p.Recv(q)
			_, second = p.Recv(q)
		})
		join()
		if !first || second {
			t.Fatalf("close semantics wrong: first=%v second=%v", first, second)
		}
	})
}

func TestRecvTimeout(t *testing.T) {
	harness(t, func(t *testing.T, s Sched, spawn func(string, func(Proc)), join func()) {
		q := s.NewQueue("q")
		var ok bool
		spawn("recv", func(p Proc) {
			_, ok = p.RecvTimeout(q, 20*time.Millisecond)
		})
		if !s.Virtual() {
			// Real time: nothing arrives, timer must fire.
		} else {
			// Virtual time: a second proc keeps the clock moving.
			spawn("tick", func(p Proc) { p.Sleep(100 * time.Millisecond) })
		}
		join()
		if ok {
			t.Fatal("RecvTimeout returned ok on empty queue")
		}
	})
}

func TestRecvTimeoutDelivery(t *testing.T) {
	harness(t, func(t *testing.T, s Sched, spawn func(string, func(Proc)), join func()) {
		q := s.NewQueue("q")
		var got any
		var ok bool
		spawn("recv", func(p Proc) {
			got, ok = p.RecvTimeout(q, time.Second)
		})
		spawn("send", func(p Proc) {
			p.Sleep(5 * time.Millisecond)
			q.Put("x", 0)
		})
		join()
		if !ok || got.(string) != "x" {
			t.Fatalf("RecvTimeout = %v, %v", got, ok)
		}
	})
}

func TestDelayedPut(t *testing.T) {
	harness(t, func(t *testing.T, s Sched, spawn func(string, func(Proc)), join func()) {
		q := s.NewQueue("q")
		var elapsed time.Duration
		start := s.Now()
		q.Put("late", 30*time.Millisecond)
		spawn("recv", func(p Proc) {
			_, ok := p.Recv(q)
			if !ok {
				t.Error("recv failed")
			}
			elapsed = p.Sched().Now() - start
		})
		join()
		if elapsed < 30*time.Millisecond {
			t.Fatalf("delayed message arrived after %v, want >= 30ms", elapsed)
		}
		if s.Virtual() && elapsed != 30*time.Millisecond {
			t.Fatalf("virtual delay inexact: %v", elapsed)
		}
	})
}

func TestSleepAdvancesNow(t *testing.T) {
	harness(t, func(t *testing.T, s Sched, spawn func(string, func(Proc)), join func()) {
		var before, after time.Duration
		spawn("p", func(p Proc) {
			before = s.Now()
			p.Sleep(10 * time.Millisecond)
			after = s.Now()
		})
		join()
		if after-before < 10*time.Millisecond {
			t.Fatalf("Sleep advanced clock by %v", after-before)
		}
	})
}

func TestManyProducersOneConsumer(t *testing.T) {
	harness(t, func(t *testing.T, s Sched, spawn func(string, func(Proc)), join func()) {
		q := s.NewQueue("q")
		const producers, per = 8, 25
		var sum atomic.Int64
		for i := 0; i < producers; i++ {
			spawn("prod", func(p Proc) {
				for j := 0; j < per; j++ {
					q.Put(1, 0)
				}
			})
		}
		spawn("cons", func(p Proc) {
			for i := 0; i < producers*per; i++ {
				v, ok := p.Recv(q)
				if !ok {
					t.Error("closed early")
					return
				}
				sum.Add(int64(v.(int)))
			}
		})
		join()
		if sum.Load() != producers*per {
			t.Fatalf("sum = %d, want %d", sum.Load(), producers*per)
		}
	})
}

func TestManyConsumers(t *testing.T) {
	harness(t, func(t *testing.T, s Sched, spawn func(string, func(Proc)), join func()) {
		q := s.NewQueue("q")
		const n = 40
		var got atomic.Int64
		for i := 0; i < 4; i++ {
			spawn("cons", func(p Proc) {
				for {
					_, ok := p.Recv(q)
					if !ok {
						return
					}
					got.Add(1)
				}
			})
		}
		spawn("prod", func(p Proc) {
			for i := 0; i < n; i++ {
				q.Put(i, 0)
			}
			p.Sleep(50 * time.Millisecond)
			q.Close()
		})
		join()
		if got.Load() != n {
			t.Fatalf("consumed %d, want %d", got.Load(), n)
		}
	})
}

func TestVirtualFlag(t *testing.T) {
	if Real().Virtual() {
		t.Error("Real sched claims to be virtual")
	}
	if !Virtual(vclock.New()).Virtual() {
		t.Error("Virtual sched claims to be real")
	}
}

func TestActorAccessor(t *testing.T) {
	c := vclock.New()
	s := Virtual(c)
	s.Spawn("p", func(p Proc) {
		if Actor(p) == nil {
			t.Error("Actor(virtual proc) = nil")
		}
	})
	c.Run()
	rs := Real()
	if Actor(RealProc(rs)) != nil {
		t.Error("Actor(real proc) != nil")
	}
}

func TestAdoptVirtual(t *testing.T) {
	c := vclock.New()
	s := Virtual(c)
	p, stop := AdoptVirtual(s, "main")
	p.Sleep(time.Millisecond)
	if s.Now() != time.Millisecond {
		t.Fatalf("Now = %v", s.Now())
	}
	stop()
	c.Run()
}

func TestRealProcHelper(t *testing.T) {
	s := Real()
	p := RealProc(s)
	q := s.NewQueue("q")
	q.Put(7, 0)
	v, ok := p.Recv(q)
	if !ok || v.(int) != 7 {
		t.Fatalf("Recv = %v %v", v, ok)
	}
}

func TestQueueLen(t *testing.T) {
	s := Real()
	q := s.NewQueue("q")
	if q.Len() != 0 {
		t.Fatal("new queue not empty")
	}
	q.Put(1, 0)
	q.Put(2, 0)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestRealDeliveryAfterCloseDropped(t *testing.T) {
	s := Real()
	q := s.NewQueue("q")
	q.Put("late", 10*time.Millisecond)
	q.Close()
	p := RealProc(s)
	if _, ok := p.RecvTimeout(q, 50*time.Millisecond); ok {
		t.Fatal("delayed delivery on closed queue was not dropped")
	}
}

// TestRealQueueReleasesReceived: a value taken off a real queue is the
// receiver's alone, so once the receiver drops it the collector can
// free it, even while the queue lives on holding later messages.
func TestRealQueueReleasesReceived(t *testing.T) {
	s := Real()
	q, p := s.NewQueue("q"), RealProc(s)
	freed := make(chan struct{})
	func() {
		big := &[1 << 16]byte{}
		runtime.SetFinalizer(big, func(*[1 << 16]byte) { close(freed) })
		q.Put(big, 0)
		q.Put("later", 0)
		if v, ok := p.Recv(q); !ok || v != any(big) {
			t.Fatalf("Recv = %v, %v", v, ok)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(q)
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("a received value stayed reachable from its queue")
}

// TestRealQueueOrder drives a real queue through patterns that rewind
// its ring (drained to empty) and compact it (refilled while partly
// drained): every row must come out in FIFO order, with Len right after
// each partial drain.
func TestRealQueueOrder(t *testing.T) {
	for _, row := range []struct {
		name  string
		steps [][2]int // {puts, recvs}
	}{
		{"drain to empty, twice", [][2]int{{3, 3}, {3, 3}}},
		{"partial drains", [][2]int{{5, 2}, {0, 1}, {4, 3}, {0, 3}}},
		{"refill while half drained", [][2]int{{4, 3}, {1, 0}, {6, 2}, {0, 6}}},
		{"grow past the ring", [][2]int{{2, 1}, {64, 30}, {8, 43}}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := Real()
			q, p := s.NewQueue("q"), RealProc(s)
			next, want := 0, 0
			for i, st := range row.steps {
				for k := 0; k < st[0]; k++ {
					q.Put(next, 0)
					next++
				}
				for k := 0; k < st[1]; k++ {
					v, ok := p.Recv(q)
					if !ok || v.(int) != want {
						t.Fatalf("step %d: Recv = %v, %v, want %d", i, v, ok, want)
					}
					want++
				}
				if got := q.Len(); got != next-want {
					t.Fatalf("step %d: Len = %d, want %d", i, got, next-want)
				}
			}
		})
	}
}

// TestRecvTimeoutReusesTimer runs timed receives in sequence on one real
// proc, which serves them all with one timer: one that times out, one
// whose message lands just as its deadline passes, so that the tick
// fires and is not consumed, and a long one, which must neither return
// before its deadline from that stale tick nor miss the message that
// ends it.  After every receive the timer's channel must be empty.
func TestRecvTimeoutReusesTimer(t *testing.T) {
	s := Real()
	q, p := s.NewQueue("q"), RealProc(s)
	rq := q.(*realQueue)
	const short, long = time.Millisecond, 20 * time.Millisecond
	// The last receive only has to show that a late message is not
	// missed, so its deadline is lateSlack times the put's delay: an
	// oversubscribed CPU cannot end it before the put lands.  The long
	// receive before it keeps the exact check on the stale tick.
	const lateDelay, lateSlack = long / 4, 400
	drained := func(round int, what string) {
		if n := len(p.(*realProc).timer.C); n != 0 {
			t.Fatalf("round %d, %s: %d stale ticks left in the timer", round, what, n)
		}
	}
	for i := 0; i < 5; i++ {
		if v, ok := p.RecvTimeout(q, short); ok {
			t.Fatalf("round %d: empty queue gave %v", i, v)
		}
		drained(i, "timeout")

		// The receive waits for the queue's lock while its deadline
		// passes; the message is in the queue when it gets the lock.
		rq.mu.Lock()
		go func() {
			time.Sleep(5 * short)
			rq.pushLocked(i)
			rq.mu.Unlock()
		}()
		if v, ok := p.RecvTimeout(q, short); !ok || v.(int) != i {
			t.Fatalf("round %d: message at the deadline: %v, %v", i, v, ok)
		}
		drained(i, "message at the deadline")

		start := s.Now()
		if v, ok := p.RecvTimeout(q, long); ok {
			t.Fatalf("round %d: long receive on an empty queue gave %v", i, v)
		}
		if waited := s.Now() - start; waited < long {
			t.Fatalf("round %d: long receive timed out after %v, deadline %v", i, waited, long)
		}
		q.Put("late", lateDelay)
		if v, ok := p.RecvTimeout(q, lateSlack*lateDelay); !ok || v.(string) != "late" {
			t.Fatalf("round %d: long receive: %v, %v", i, v, ok)
		}
		drained(i, "long receive")
	}
}

// TestSpawnPoolsVirtualProcs: a virtual proc goes back to its scheduler
// when its function returns, and the next Spawn takes it again, so the
// pool never holds more procs than were once live together.
func TestSpawnPoolsVirtualProcs(t *testing.T) {
	c := vclock.New()
	s := Virtual(c).(*virtualSched)
	main, done := s.Adopt("main")
	defer c.Run()
	defer done()
	seen := map[Proc]bool{}
	for i := 0; i < 3; i++ {
		s.Spawn("sleeper", func(p Proc) {
			seen[p] = true
			p.Sleep(time.Millisecond)
		})
	}
	main.Sleep(2 * time.Millisecond)
	if len(s.free) != 3 || len(seen) != 3 {
		t.Fatalf("%d pooled after 3 live procs (%d distinct), want 3", len(s.free), len(seen))
	}
	for i := 0; i < 10; i++ {
		s.Spawn("one at a time", func(p Proc) {
			if !seen[p] {
				t.Error("Spawn made a proc while the pool held some")
			}
			if Actor(p) == nil {
				t.Error("a pooled proc has no actor")
			}
		})
		main.Sleep(0)
	}
	if len(s.free) != 3 {
		t.Fatalf("%d pooled after procs one at a time, want 3", len(s.free))
	}
}
