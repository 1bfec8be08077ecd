package vclock

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"jsymphony/internal/budget"
)

// TestKernelAllocBudget pins the allocations of the kernel's hot paths.
// Each row names the BENCHMARK.json ledger row it mirrors; the ceiling
// is today's count, and a change that lowers a count lowers its ceiling.
// Messages are boxed once up front, so no row counts the boxing of an
// int into any (the ledger probes do).
func TestKernelAllocBudget(t *testing.T) {
	if budget.RaceEnabled {
		t.Skip("the race runtime allocates on its own account, so allocation budgets do not hold under it")
	}
	var msg any = "m"
	for _, row := range []struct {
		name, ledger string
		ceiling      float64
		perOp        float64 // kernel operations in one measured call
		op           func(c *Clock, a *Actor, box *Mailbox) func()
	}{
		{"adopted Sleep", "vclock.sleep_allocs", 0, 1, func(c *Clock, a *Actor, box *Mailbox) func() {
			return func() { a.Sleep(time.Microsecond) }
		}},
		{"ping-pong, per hand-off", "vclock.switch_allocs", 0, 2, func(c *Clock, a *Actor, box *Mailbox) func() {
			pong := NewMailbox(c, "pong")
			c.Spawn("ponger", func(b *Actor) {
				for {
					v, ok := b.Get(box)
					if !ok {
						return
					}
					pong.Put(v, 0)
				}
			})
			return func() {
				box.Put(msg, 0)
				a.Get(pong)
			}
		}},
		{"Spawn of a no-op actor on a warm pool, then Sleep(0)", "vclock.spawn_ns", 0, 1, func(c *Clock, a *Actor, box *Mailbox) func() {
			return func() {
				c.Spawn("child", func(*Actor) {})
				a.Sleep(0)
			}
		}},
		{"self Put+Get", "sched.virtual_putget_ns", 0, 1, func(c *Clock, a *Actor, box *Mailbox) func() {
			return func() {
				box.Put(msg, 0)
				a.Get(box)
			}
		}},
		{"GetTimeout answered before its deadline", "none: the deadline every Station.Call arms", 0, 1, func(c *Clock, a *Actor, box *Mailbox) func() {
			return func() {
				box.Put(msg, time.Microsecond)
				a.GetTimeout(box, time.Millisecond)
			}
		}},
	} {
		c := New()
		box := NewMailbox(c, "box")
		a := c.Adopt("main")
		got := testing.AllocsPerRun(1000, row.op(c, a, box)) / row.perOp
		box.Close()
		a.Done()
		c.Run()
		if got > row.ceiling {
			t.Errorf("%s (%s): %.1f allocs, ceiling %.1f", row.name, row.ledger, got, row.ceiling)
		} else {
			t.Logf("%s (%s): %.1f allocs, ceiling %.1f", row.name, row.ledger, got, row.ceiling)
		}
	}
}

// twinScenario runs one mixed simulation and returns its trace of
// (virtual time, actor, step).  It has two adopted goroutines, eight
// workers spawned before Run and children spawned by the workers, Sleep(0)
// yields, GetTimeouts that time out and that are answered in time, a
// Close, and Spawn and Put from the setup goroutine.  jitter, when
// non-nil, runs before and after every kernel call made by an actor body
// or an adopted goroutine.
func twinScenario(jitter func()) []string {
	j := func() {
		if jitter != nil {
			jitter()
		}
	}
	c := New()
	box, ctl := NewMailbox(c, "box"), NewMailbox(c, "ctl")
	var trace []string // appended only by the holder of the run token
	rec := func(a *Actor, step string, args ...any) {
		j()
		now := a.Now()
		j()
		trace = append(trace, fmt.Sprintf("%v %s %s", time.Duration(now), a.name, fmt.Sprintf(step, args...)))
	}
	for i := 0; i < 8; i++ {
		c.Spawn(fmt.Sprintf("w%d", i), func(a *Actor) {
			for step := 0; step < 10; step++ {
				j()
				v, ok := a.GetTimeout(box, time.Duration(1+i%3)*time.Millisecond)
				j()
				rec(a, "get %v %v", v, ok)
				if n, isInt := v.(int); isInt && n%3 == 0 {
					j()
					c.Spawn(fmt.Sprintf("child%d", n), func(b *Actor) {
						j()
						b.Sleep(500 * time.Microsecond)
						j()
						ctl.Put(n+100, 100*time.Microsecond)
						j()
						rec(b, "put %d", n+100)
					})
					j()
				}
				j()
				if i%2 == 0 {
					a.Sleep(0)
				} else {
					a.Sleep(time.Duration(i) * 100 * time.Microsecond)
				}
				j()
			}
		})
	}
	box.Put("s0", 0)
	box.Put("s1", 50*time.Microsecond)

	var wg sync.WaitGroup
	adopted, start := make(chan struct{}), make(chan struct{})
	wg.Add(2)
	go func() { // adopts the token reserved by New
		defer wg.Done()
		j()
		a := c.Adopt("main1")
		j()
		close(adopted)
		<-start
		for k := 0; k < 20; k++ {
			j()
			a.Sleep(300 * time.Microsecond)
			j()
			box.Put(k, time.Duration(k%4)*100*time.Microsecond)
			rec(a, "put %d", k)
		}
		j()
		a.Done()
		j()
	}()
	<-adopted
	go func() { // queues behind the workers
		defer wg.Done()
		j()
		a := c.Adopt("main2")
		j()
		for k := 0; k < 10; k++ {
			j()
			v, ok := a.GetTimeout(ctl, 2*time.Millisecond)
			j()
			rec(a, "ctl %v %v", v, ok)
		}
		j()
		a.Sleep(3 * time.Millisecond)
		j()
		box.Close()
		rec(a, "closed")
		j()
		a.Done()
		j()
	}()
	for c.Actors() < 10 { // main2 has queued for the token
		runtime.Gosched()
	}
	close(start)
	c.Run()
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.timers) != 0 {
		trace = append(trace, fmt.Sprintf("%d timers left", len(c.timers)))
	}
	return trace
}

// TestDeadlinesSaturate checks that a deadline past the end of virtual
// time saturates there instead of wrapping into the past: each row runs
// at t = 1ms with a message Put for 5ms and reports what its adopted
// actor saw.
func TestDeadlinesSaturate(t *testing.T) {
	const forever = Duration(math.MaxInt64)
	for _, row := range []struct {
		name string
		op   func(a *Actor, box *Mailbox) string
		want string
	}{
		{"GetTimeout(forever) waits for the Put", func(a *Actor, box *Mailbox) string {
			v, ok := a.GetTimeout(box, forever)
			return fmt.Sprintf("%v %v", v, ok)
		}, "5ms m true"},
		{"Sleep(forever) sleeps to the end of time", func(a *Actor, box *Mailbox) string {
			a.Sleep(forever)
			return fmt.Sprint(a.Now() == Time(math.MaxInt64))
		}, "2562047h47m16.854775807s true"},
		{"Put(forever) is not delivered at once", func(a *Actor, box *Mailbox) string {
			box.Put("late", forever)
			a.Get(box)
			v, ok := a.GetTimeout(box, time.Second)
			return fmt.Sprintf("%v %v", v, ok)
		}, "1.005s <nil> false"},
	} {
		c := New()
		box := NewMailbox(c, "box")
		a := c.Adopt("main")
		a.Sleep(time.Millisecond)
		box.Put("m", 4*time.Millisecond)
		got := row.op(a, box)
		got = fmt.Sprintf("%v %s", time.Duration(a.Now()), got)
		a.Done()
		c.Run()
		if got != row.want {
			t.Errorf("%s: got %q, want %q", row.name, got, row.want)
		}
	}
}

// TestPerturbedTwin checks that a simulation is a function of its inputs
// and not of the Go scheduler: the same scenario, run again with seeded
// Gosched calls and sub-millisecond real sleeps around every kernel call,
// at GOMAXPROCS 1 and 8, gives the same trace.
func TestPerturbedTwin(t *testing.T) {
	want := twinScenario(nil)
	var timedOut, answered bool
	for _, line := range want {
		var at, name, v, ok string
		fmt.Sscan(line, &at, &name, &v, &v, &ok)
		timedOut = timedOut || ok == "false"
		answered = answered || ok == "true"
	}
	if !timedOut || !answered {
		t.Fatalf("scenario lost its coverage: timed out %v, answered %v\n%v", timedOut, answered, want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(int64(procs)))
		got := twinScenario(func() {
			mu.Lock()
			n, us := rng.Intn(8), rng.Intn(500)
			mu.Unlock()
			switch {
			case n == 0:
				time.Sleep(time.Duration(us) * time.Microsecond)
			case n < 4:
				runtime.Gosched()
			}
		})
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d trace lines, want %d", procs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS %d: trace differs at line %d: %q, want %q", procs, i, got[i], want[i])
			}
		}
	}
}

// TestRunReleasesParkedActors checks that the coroutines parked for
// reuse do not outlive Run.
func TestRunReleasesParkedActors(t *testing.T) {
	before := runtime.NumGoroutine()
	c := New()
	for i := 0; i < 1000; i++ {
		c.Spawn("short", func(a *Actor) { a.Sleep(time.Duration(i%7) * time.Microsecond) })
	}
	c.Run()
	// Not !=: a goroutine of an earlier test may still be exiting.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Run, %d before the clock", after, before)
	}
}

// TestAnsweredDeadlinesLeaveHeap checks that a GetTimeout answered before
// its deadline removes its timer.
func TestAnsweredDeadlinesLeaveHeap(t *testing.T) {
	c := New()
	box := NewMailbox(c, "box")
	a := c.Adopt("main")
	for i := 0; i < 10000; i++ {
		box.Put(i, time.Microsecond)
		if _, ok := a.GetTimeout(box, time.Second); !ok {
			t.Fatalf("GetTimeout %d timed out", i)
		}
	}
	c.mu.Lock()
	n := len(c.timers)
	c.mu.Unlock()
	a.Done()
	if n != 0 {
		t.Fatalf("%d timers in the heap, want 0", n)
	}
}

// TestSpawnedPanicSurfacesFromRun checks that a panic in a spawned actor
// reaches the caller of Run with its original value.
func TestSpawnedPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ n int }
	c := New()
	c.Spawn("bad", func(a *Actor) {
		a.Sleep(time.Millisecond)
		panic(boom{7})
	})
	defer func() {
		if got := recover(); got != (boom{7}) {
			t.Fatalf("Run panicked with %v, want boom{7}", got)
		}
	}()
	c.Run()
	t.Fatal("Run returned")
}
