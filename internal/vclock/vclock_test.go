package vclock

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSingleActorSleep(t *testing.T) {
	c := New()
	var end Time
	c.Spawn("a", func(a *Actor) {
		a.Sleep(10 * time.Millisecond)
		a.Sleep(20 * time.Millisecond)
		end = a.Now()
	})
	c.Run()
	if end != Time(30*time.Millisecond) {
		t.Fatalf("end = %v, want 30ms", time.Duration(end))
	}
	if c.Now() != end {
		t.Fatalf("clock at %v after run, want %v", c.Now(), end)
	}
}

func TestTwoActorsInterleave(t *testing.T) {
	c := New()
	var mu sync.Mutex
	var order []string
	log := func(a *Actor, tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
	}
	c.Spawn("slow", func(a *Actor) {
		a.Sleep(30 * time.Millisecond)
		log(a, "slow@30")
	})
	c.Spawn("fast", func(a *Actor) {
		a.Sleep(10 * time.Millisecond)
		log(a, "fast@10")
		a.Sleep(10 * time.Millisecond)
		log(a, "fast@20")
	})
	c.Run()
	want := []string{"fast@10", "fast@20", "slow@30"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if c.Now() != Time(30*time.Millisecond) {
		t.Fatalf("final time %v, want 30ms", time.Duration(c.Now()))
	}
}

func TestSleepZeroYields(t *testing.T) {
	c := New()
	ran := false
	c.Spawn("a", func(a *Actor) {
		a.Sleep(0)
		ran = true
	})
	c.Run()
	if !ran || c.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, c.Now())
	}
}

func TestNegativeSleepClamped(t *testing.T) {
	c := New()
	c.Spawn("a", func(a *Actor) {
		a.Sleep(-time.Second)
	})
	c.Run()
	if c.Now() != 0 {
		t.Fatalf("negative sleep advanced time to %v", c.Now())
	}
}

func TestSpawnFromActor(t *testing.T) {
	c := New()
	var childTime Time
	c.Spawn("parent", func(a *Actor) {
		a.Sleep(5 * time.Millisecond)
		c.Spawn("child", func(b *Actor) {
			b.Sleep(5 * time.Millisecond)
			childTime = b.Now()
		})
		a.Sleep(1 * time.Millisecond)
	})
	c.Run()
	if childTime != Time(10*time.Millisecond) {
		t.Fatalf("child finished at %v, want 10ms", time.Duration(childTime))
	}
}

func TestAdoptAndDone(t *testing.T) {
	c := New()
	a := c.Adopt("main")
	a.Sleep(time.Millisecond)
	if a.Now() != Time(time.Millisecond) {
		t.Fatalf("now = %v", a.Now())
	}
	if c.Actors() != 1 {
		t.Fatalf("actors = %d, want 1", c.Actors())
	}
	a.Done()
	if c.Actors() != 0 {
		t.Fatalf("actors = %d after Done, want 0", c.Actors())
	}
	c.Run() // must return immediately
}

func TestDoubleDonePanics(t *testing.T) {
	c := New()
	a := c.Adopt("main")
	a.Done()
	defer func() {
		if recover() == nil {
			t.Fatal("second Done did not panic")
		}
	}()
	a.Done()
}

// Property: with a single actor, total virtual time equals the sum of its
// sleeps, independent of how the durations are split.
func TestSleepSumProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		c := New()
		var total time.Duration
		c.Spawn("a", func(a *Actor) {
			for _, r := range raw {
				d := time.Duration(r) * time.Microsecond
				total += d
				a.Sleep(d)
			}
		})
		c.Run()
		return c.Now() == Time(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: with N independent sleeping actors, final time is the maximum
// of the per-actor totals (parallel composition).
func TestParallelMaxProperty(t *testing.T) {
	f := func(raw [][]uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		c := New()
		var max time.Duration
		for i, durs := range raw {
			var total time.Duration
			for _, r := range durs {
				total += time.Duration(r) * time.Microsecond
			}
			if total > max {
				max = total
			}
			durs := durs
			c.Spawn("a", func(a *Actor) {
				_ = i
				for _, r := range durs {
					a.Sleep(time.Duration(r) * time.Microsecond)
				}
			})
		}
		c.Run()
		return c.Now() == Time(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: virtual time never goes backwards as observed by any actor.
func TestMonotonicTime(t *testing.T) {
	c := New()
	var mu sync.Mutex
	bad := false
	for i := 0; i < 10; i++ {
		seed := int64(i)
		c.Spawn("a", func(a *Actor) {
			rng := rand.New(rand.NewSource(seed))
			last := a.Now()
			for j := 0; j < 100; j++ {
				a.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
				now := a.Now()
				if now < last {
					mu.Lock()
					bad = true
					mu.Unlock()
				}
				last = now
			}
		})
	}
	c.Run()
	if bad {
		t.Fatal("observed time going backwards")
	}
}

// Determinism: the same simulation program yields the same final time and
// the same per-event timestamps across runs.
func TestDeterminism(t *testing.T) {
	run := func() (Time, []Time) {
		c := New()
		var mu sync.Mutex
		var stamps []Time
		box := NewMailbox(c, "box")
		c.Spawn("producer", func(a *Actor) {
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 50; i++ {
				a.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
				box.Put(i, time.Duration(rng.Intn(200))*time.Microsecond)
			}
			// Drain marker.
			box.Put(-1, time.Millisecond)
		})
		c.Spawn("consumer", func(a *Actor) {
			for {
				v, ok := a.Get(box)
				if !ok || v.(int) == -1 {
					return
				}
				mu.Lock()
				stamps = append(stamps, a.Now())
				mu.Unlock()
			}
		})
		c.Run()
		return c.Now(), stamps
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("final times differ: %v vs %v", t1, t2)
	}
	if len(s1) != len(s2) {
		t.Fatalf("event counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("stamp %d differs: %v vs %v", i, s1[i], s2[i])
		}
	}
}

// TestSerializedExecution checks the run-token discipline: at most one
// actor executes user code at any real-time moment, even when many are
// runnable at the same virtual instant.
func TestSerializedExecution(t *testing.T) {
	c := New()
	var running atomic.Int32
	for i := 0; i < 8; i++ {
		c.Spawn("worker", func(a *Actor) {
			for step := 0; step < 50; step++ {
				if n := running.Add(1); n != 1 {
					t.Errorf("%d actors running at once", n)
				}
				running.Add(-1)
				// Everyone sleeps to the same instants: maximal contention
				// for the token on every wake.
				a.Sleep(time.Millisecond)
			}
		})
	}
	c.Run()
}

// TestHoldDeterministicOrder checks that with the run token reserved
// through the spawn phase, the complete execution order of same-instant
// actors is a pure function of spawn order — run twice, compare the full
// interleaving.
func TestHoldDeterministicOrder(t *testing.T) {
	run := func() []int {
		c := New()
		var mu sync.Mutex
		var order []int
		for i := 0; i < 6; i++ {
			i := i
			c.Spawn("w", func(a *Actor) {
				for step := 0; step < 20; step++ {
					a.Sleep(time.Millisecond) // all collide at every tick
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
				}
			})
		}
		a := c.Adopt("main")
		a.Sleep(50 * time.Millisecond)
		a.Done()
		c.Run()
		return order
	}
	o1, o2 := run(), run()
	if len(o1) != len(o2) {
		t.Fatalf("lengths differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("interleaving differs at %d: %v vs %v", i, o1[:i+1], o2[:i+1])
		}
	}
}

// TestSpawnBeforeRun is the plainest way to use a clock — spawn from a
// non-actor goroutine, then Run — with the setup made slow on purpose.
// The receiver is spawned first and would block on its empty mailbox with
// no event pending; if it could start before its sender is registered the
// kernel would declare a deadlock.  A clock is born held, so it cannot.
func TestSpawnBeforeRun(t *testing.T) {
	for i := 0; i < 50; i++ {
		c := New()
		box := NewMailbox(c, "box")
		var order []string // written only under the run token
		var got any
		c.Spawn("receiver", func(a *Actor) {
			order = append(order, "receiver")
			got, _ = a.Get(box)
		})
		time.Sleep(time.Millisecond) // setup may be arbitrarily slow
		c.Spawn("sender", func(a *Actor) {
			order = append(order, "sender")
			box.Put(i, time.Microsecond)
		})
		c.Run()
		if got != i {
			t.Fatalf("clock %d: receiver got %v", i, got)
		}
		if len(order) != 2 || order[0] != "receiver" || order[1] != "sender" {
			t.Fatalf("clock %d: first-run order %v, want spawn order", i, order)
		}
	}
}

func BenchmarkSleepWake(b *testing.B) {
	c := New()
	a := c.Adopt("bench")
	defer a.Done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sleep(time.Microsecond)
	}
}

func BenchmarkPingPong(b *testing.B) {
	c := New()
	ping := NewMailbox(c, "ping")
	pong := NewMailbox(c, "pong")
	n := b.N
	c.Spawn("ponger", func(a *Actor) {
		for i := 0; i < n; i++ {
			v, _ := a.Get(ping)
			pong.Put(v, time.Microsecond)
		}
	})
	a := c.Adopt("pinger")
	b.ResetTimer()
	for i := 0; i < n; i++ {
		ping.Put(i, time.Microsecond)
		a.Get(pong)
	}
	a.Done()
	c.Run()
}
