// Package vclock is a virtual-time discrete-event kernel.
//
// The paper evaluates JavaSymphony on a non-dedicated heterogeneous
// cluster of 13 Sun workstations (Section 6).  This repository reproduces
// that environment as a deterministic simulation: the full JRS protocol
// stack runs on real goroutines, but *time* is virtual.  Goroutines that
// participate in the simulation register as actors; virtual time advances
// only when every actor is quiescent (sleeping or blocked on a mailbox),
// and then jumps directly to the earliest pending event.  A multi-minute
// matrix-multiplication run on the simulated cluster therefore completes
// in milliseconds of wall time while preserving every ordering and
// duration relationship.
//
// The kernel provides three primitives:
//
//   - Actors (Spawn/Adopt): goroutines enrolled in the simulation.
//   - Sleep: advance an actor through d units of virtual time (this is
//     how simulated computation and transmission delays are charged).
//   - Mailboxes: delayed-delivery message queues; Put schedules a
//     delivery event, Get blocks the actor in virtual time.
//
// If every actor is blocked and no event is pending the simulation can
// never progress; the kernel panics with a per-actor diagnostic rather
// than deadlocking silently.
//
// # Determinism
//
// Actors execute one at a time: a single run token passes between them,
// in FIFO order of becoming runnable.  Without this, two actors runnable
// at the same virtual instant would race in *real* time to schedule
// their next events, the event sequence numbers that break same-instant
// ties would differ from run to run, and simulations would diverge by
// microseconds between identically-seeded executions.  With it, a
// simulation is a deterministic function of its inputs — byte-identical
// metrics snapshots across runs.  The setup phase is covered too: a
// clock is born with its run token reserved for the goroutine that made
// it, so actors spawned during setup queue in spawn order and none runs
// (and no event order is decided) until that goroutine calls Adopt and
// enters the simulation itself, or calls Run and waits for it.
package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Duration re-exports time.Duration for callers' convenience; virtual
// durations use the ordinary time package units.
type Duration = time.Duration

// event is one entry in the timer heap.  fire runs with the clock lock
// held and must not block.
type event struct {
	when     Time
	seq      uint64 // insertion order; breaks ties deterministically
	fire     func()
	canceled bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Clock is a virtual clock shared by a set of actors.
type Clock struct {
	mu       sync.Mutex
	now      Time
	seq      uint64
	runnable int
	held     bool     // run token reserved for the setup goroutine, until Adopt or Run
	cur      *Actor   // actor currently holding the run token
	runq     []*Actor // runnable actors awaiting the run token, FIFO
	actors   map[*Actor]struct{}
	timers   eventHeap
	wg       sync.WaitGroup
	dead     bool   // set on deadlock; poisons further use
	deadMsg  string // diagnostic captured when the deadlock was detected
}

// New returns a clock at virtual time zero with no actors.  Its run token
// is reserved for the calling (non-actor) goroutine: actors spawned before
// that goroutine calls Adopt or Run are queued and do not start running.
// The order in which actors first run — and with it every event tie-break
// in the simulation — is therefore a function of the spawn order, not of
// the Go scheduler, and an early actor cannot block on a mailbox before
// the actor that will feed it is registered.
func New() *Clock {
	return &Clock{held: true, actors: make(map[*Actor]struct{})}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Actors returns the number of live actors.
func (c *Clock) Actors() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.actors)
}

// Actor is a goroutine enrolled in the simulation.  All methods must be
// called from the goroutine that owns the actor.
type Actor struct {
	c       *Clock
	name    string
	wake    chan struct{}
	state   string // diagnostic: what the actor is currently doing
	waiting bool   // true while blocked; guards against double wake
	done    bool
}

// Name returns the actor's diagnostic name.
func (a *Actor) Name() string { return a.name }

// Clock returns the clock this actor belongs to.
func (a *Actor) Clock() *Clock { return a.c }

// Now returns the current virtual time.
func (a *Actor) Now() Time { return a.c.Now() }

// Hold restates the reservation every clock is born with (see New); on a
// fresh clock it changes nothing.  Its one remaining caller is the
// benchmark harness, and it leaves with the next benchmark PR.
func (c *Clock) Hold() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held = true
}

// Adopt enrolls the calling goroutine as an actor.  The caller must call
// Done when it leaves the simulation.  If the run token is still reserved
// (see New), the reservation is converted into this actor's run token;
// otherwise the caller may block until the token reaches it.
func (c *Clock) Adopt(name string) *Actor {
	a := &Actor{c: c, name: name, wake: make(chan struct{}, 1), state: "running"}
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		panic("vclock: clock is poisoned after a deadlock")
	}
	c.actors[a] = struct{}{}
	c.runnable++
	c.wg.Add(1)
	if c.held {
		c.held = false
		c.cur = a
		c.mu.Unlock()
		return a
	}
	if c.cur == nil && len(c.runq) == 0 {
		c.cur = a
		c.mu.Unlock()
		return a
	}
	a.state = "starting"
	c.runq = append(c.runq, a)
	c.mu.Unlock()
	a.await()
	return a
}

// Spawn starts fn on a new goroutine enrolled as an actor.  The actor is
// registered before Spawn returns, so virtual time cannot advance past
// the spawn point before fn begins; fn itself runs only once the actor
// is granted the run token.  The actor is automatically retired when fn
// returns.
func (c *Clock) Spawn(name string, fn func(*Actor)) {
	a := &Actor{c: c, name: name, wake: make(chan struct{}, 1), state: "starting"}
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		panic("vclock: clock is poisoned after a deadlock")
	}
	c.actors[a] = struct{}{}
	c.runnable++
	c.wg.Add(1)
	c.runq = append(c.runq, a)
	c.dispatchLocked()
	c.mu.Unlock()
	go func() {
		defer a.Done()
		a.await()
		fn(a)
	}()
}

// await blocks until the actor is granted the run token.
func (a *Actor) await() {
	<-a.wake
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checkDeadLocked()
	a.state = "running"
}

// Done retires the actor.  Further use of the actor is a bug.
func (a *Actor) Done() {
	c := a.c
	c.mu.Lock()
	if a.done {
		c.mu.Unlock()
		panic("vclock: Done called twice on actor " + a.name)
	}
	a.done = true
	delete(c.actors, a)
	c.runnable--
	if c.cur == a {
		c.cur = nil
	}
	c.dispatchLocked()
	c.maybeAdvance()
	c.mu.Unlock()
	c.wg.Done()
}

// Run blocks the calling (non-actor) goroutine until every actor has
// retired.  It is the usual way for a test or main function to wait for a
// simulation to finish.  If nobody adopted the run token reserved by New,
// Run releases it first: the queued actors start in spawn order.
func (c *Clock) Run() {
	c.mu.Lock()
	c.held = false
	c.dispatchLocked()
	c.mu.Unlock()
	c.wg.Wait()
}

// Sleep advances the actor d units of virtual time.  Negative durations
// are treated as zero (a yield: the actor re-becomes runnable at the
// current instant, after already-scheduled same-instant events).
func (a *Actor) Sleep(d Duration) {
	c := a.c
	c.mu.Lock()
	if d < 0 {
		d = 0
	}
	when := c.now + Time(d)
	a.state = fmt.Sprintf("sleeping until %v", time.Duration(when))
	c.schedule(when, func() { c.wakeActor(a) })
	c.blockActor(a)
	c.mu.Unlock()
	<-a.wake
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checkDeadLocked()
	a.state = "running"
}

// checkDeadLocked panics with the deadlock diagnostic if the clock has
// been poisoned.  Caller holds the lock; the panic unwinds through the
// caller's deferred unlock.
func (c *Clock) checkDeadLocked() {
	if c.dead {
		panic(c.deadMsg)
	}
}

// schedule inserts an event.  Caller holds the lock.
func (c *Clock) schedule(when Time, fire func()) *event {
	if when < c.now {
		when = c.now
	}
	ev := &event{when: when, seq: c.seq, fire: fire}
	c.seq++
	heap.Push(&c.timers, ev)
	return ev
}

// wakeActor marks a as runnable, queueing it for the run token.  A wake
// of an actor that is not blocked (e.g. a mailbox delivery and a timeout
// firing at the same virtual instant) is a no-op.  Caller holds the
// lock.
func (c *Clock) wakeActor(a *Actor) {
	if !a.waiting {
		return
	}
	a.waiting = false
	c.runnable++
	c.runq = append(c.runq, a)
	c.dispatchLocked()
}

// dispatchLocked hands the run token to the next queued actor, if the
// token is free.  On a poisoned clock it instead releases every queued
// actor so each can observe the deadlock diagnostic.  Caller holds the
// lock.
func (c *Clock) dispatchLocked() {
	if c.dead {
		for _, a := range c.runq {
			a.wake <- struct{}{}
		}
		c.runq = nil
		return
	}
	if c.held || c.cur != nil || len(c.runq) == 0 {
		return
	}
	a := c.runq[0]
	c.runq = c.runq[1:]
	c.cur = a
	a.wake <- struct{}{}
}

// blockActor records that a stopped running, passes the run token on,
// and advances the clock if it was the last runnable actor.  Caller
// holds the lock; the caller must release it and receive on a.wake
// afterwards.
func (c *Clock) blockActor(a *Actor) {
	a.waiting = true
	c.runnable--
	if c.cur == a {
		c.cur = nil
	}
	c.dispatchLocked()
	c.maybeAdvance()
}

// maybeAdvance advances virtual time while nothing is runnable.  Caller
// holds the lock.
//
// If no event is pending the simulation is deadlocked: the clock is
// poisoned and every blocked actor is woken so that it can panic with the
// diagnostic from its own blocking primitive (panicking here, inside an
// arbitrary actor's stack with the lock held, would wedge the rest).
func (c *Clock) maybeAdvance() {
	if c.dead {
		return
	}
	for c.runnable == 0 && len(c.actors) > 0 {
		// Discard canceled events.
		for len(c.timers) > 0 && c.timers[0].canceled {
			heap.Pop(&c.timers)
		}
		if len(c.timers) == 0 {
			c.dead = true
			c.deadMsg = "vclock: deadlock — all actors blocked with no pending events\n" + c.dumpLocked()
			for a := range c.actors {
				c.wakeActor(a)
			}
			return
		}
		next := c.timers[0].when
		if next < c.now {
			panic("vclock: time went backwards")
		}
		c.now = next
		// Fire every event scheduled for this instant, in insertion
		// order, before re-checking runnability.
		for len(c.timers) > 0 && c.timers[0].when == c.now {
			ev := heap.Pop(&c.timers).(*event)
			if !ev.canceled {
				ev.fire()
			}
		}
	}
}

// dumpLocked renders per-actor diagnostics.  Caller holds the lock.
func (c *Clock) dumpLocked() string {
	lines := make([]string, 0, len(c.actors))
	for a := range c.actors {
		lines = append(lines, fmt.Sprintf("  actor %q: %s", a.name, a.state))
	}
	sort.Strings(lines)
	return fmt.Sprintf("at virtual time %v:\n%s", time.Duration(c.now), strings.Join(lines, "\n"))
}
