package sched

import (
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
