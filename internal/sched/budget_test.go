package sched

import (
	"testing"
	"time"

	"jsymphony/internal/vclock"
)

// TestSchedAllocBudget pins the scheduler's own allocations in steady
// state: a virtual Spawn beyond the kernel's, a single-use virtual
// queue made, fed and drained, a real queue's Put and Recv, and a RecvTimeout on a real proc that has timed receives
// before.  Each row names the BENCHMARK.json ledger row it feeds; the
// ceiling is this test's count, and a change that lowers a count lowers
// its ceiling.
func TestSchedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account, so allocation budgets do not hold under it")
	}
	for _, row := range []struct {
		name, ledger string
		ceiling      float64
		run          func() float64
	}{
		{"virtual Spawn, beyond the kernel's own", "vclock.spawn_ns", 0, func() float64 {
			c := vclock.New()
			s := Virtual(c)
			a := c.Adopt("main")
			defer c.Run()
			defer a.Done()
			ran := 0
			kernel := func(*vclock.Actor) { ran++ }
			proc := func(Proc) { ran++ }
			spawnKernel := func() { c.Spawn("child", kernel); a.Sleep(0) }
			spawnProc := func() { s.Spawn("child", proc); a.Sleep(0) }
			for i := 0; i < 100; i++ { // warm: parked coroutines, free lists
				spawnKernel()
				spawnProc()
			}
			own := testing.AllocsPerRun(1000, spawnKernel)
			got := testing.AllocsPerRun(1000, spawnProc) - own
			if want := 200 + 2*1001; ran != want {
				t.Errorf("%d children ran, want %d", ran, want)
			}
			return got
		}},
		// A result handle's or a group-commit waiter's queue: the
		// mailbox is the queue, and holds its first message and its
		// first waiter inline.
		{"NewQueue, Put, Recv of a single-use virtual queue", "sched.virtual_putget_ns", 1, func() float64 {
			c := vclock.New()
			s := Virtual(c)
			p, done := AdoptVirtual(s, "main")
			defer c.Run()
			defer done()
			var v any = 7
			once := func() {
				q := s.NewQueue("once")
				q.Put(v, 0)
				if got, ok := p.Recv(q); !ok || got != v {
					t.Fatalf("Recv = %v, %v; want %v", got, ok, v)
				}
			}
			once() // warm: the clock's free delivery event
			return testing.AllocsPerRun(1000, once)
		}},
		{"real queue Put and Recv", "sched.real_putget_ns", 0, func() float64 {
			s := Real()
			q, p := s.NewQueue("q"), RealProc(s)
			var v any = 7
			return testing.AllocsPerRun(1000, func() {
				q.Put(v, 0)
				p.Recv(q)
			})
		}},
		{"RecvTimeout on a reused real proc", "rmi.call_tcp_allocs", 0, func() float64 {
			s := Real()
			q, p := s.NewQueue("q"), RealProc(s)
			var v any = 7
			recv := func() {
				q.Put(v, 0)
				if _, ok := p.RecvTimeout(q, time.Minute); !ok {
					t.Fatal("RecvTimeout missed a waiting message")
				}
			}
			recv()
			return testing.AllocsPerRun(1000, recv)
		}},
	} {
		if got := row.run(); got > row.ceiling {
			t.Errorf("%s (%s): %.1f allocs, ceiling %.1f", row.name, row.ledger, got, row.ceiling)
		} else {
			t.Logf("%s (%s): %.1f allocs, ceiling %.1f", row.name, row.ledger, got, row.ceiling)
		}
	}
}
