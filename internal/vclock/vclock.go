// iter.Pull, which runs spawned actors as coroutines, arrived in Go 1.23.
//go:build go1.23

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
//
// # How the token passes
//
// A spawned actor is a coroutine (iter.Pull), not a goroutine of its
// own: passing it the token is a direct switch on the current thread,
// which never goes through the Go scheduler.  Coroutines are resumed by
// a dispatcher — the goroutine of Run, or of an adopted actor while that
// actor is blocked — which runs the queued actors in FIFO order until
// its own actor is next in line.  When the head of the queue is another
// adopted actor, the dispatcher hands the token over through that
// actor's channel and waits for it to come back.  An actor that is
// already next in line when it blocks keeps the token and switches
// nothing.  Done of an adopted actor dispatches whatever is queued
// before it returns, so the last adopted actor's Done may run the tail
// of the simulation.
//
// A panic (or runtime.Goexit) in a spawned actor surfaces from the
// goroutine that resumed it: Run, or the blocking kernel call of the
// adopted actor that was dispatching.  So does a deadlock.
//
// The coroutine of an actor whose function returned parks in a
// per-clock pool, and the next Spawn reuses it, grown stack included.
// Run stops the parked coroutines before it returns.
//
// # Who owns an event
//
// A timer-heap entry is a plain struct with a kind tag, not a closure,
// and blocking allocates none:
//
//   - Each actor owns one deadline event, embedded in it and shared by
//     Sleep (which wakes the actor) and GetTimeout (which takes the actor
//     off the mailbox's waiters, then wakes it).  An actor has at most
//     one of the two pending.  It leaves the heap when it fires, or when
//     GetTimeout returns before its deadline.
//   - A Put's delivery event is the clock's: it is taken from a per-clock
//     free list, and goes back to the list, with its message cleared,
//     as it fires.  The list never holds more events than the timer heap
//     once held at the same time.
//
// Both kinds are touched only under the clock's lock.
package vclock

import (
	"container/heap"
	"fmt"
	"iter"
	"math"
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

// maxTime is the latest instant a deadline can name: a deadline that
// lies further out saturates to it instead of wrapping into the past.
const maxTime = Time(math.MaxInt64)

// eventKind is what an event does when it fires.
type eventKind uint8

const (
	evWake    eventKind = iota // a's Sleep is over
	evDeliver                  // v becomes visible on box
	evTimeout                  // a's GetTimeout on box expired
)

// event is one entry in the timer heap (see "Who owns an event").  It
// fires with the clock lock held.
type event struct {
	when  Time
	seq   uint64 // insertion order; breaks ties deterministically
	index int    // position in the heap; -1 once fired or removed
	kind  eventKind
	a     *Actor   // evWake, evTimeout
	box   *Mailbox // evDeliver, evTimeout
	v     any      // evDeliver
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Clock is a virtual clock shared by a set of actors.
type Clock struct {
	mu       sync.Mutex
	now      Time
	seq      uint64
	runnable int
	held     bool         // run token reserved for the setup goroutine, until Adopt or Run
	busy     bool         // some goroutine holds the run token: running an actor, or dispatching
	runq     fifo[*Actor] // runnable actors awaiting the run token
	idle     []*Actor     // parked coroutines of retired spawned actors, for Spawn to reuse
	actors   map[*Actor]struct{}
	timers   eventHeap
	free     []*event // fired delivery events, for Put to reuse
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
	return &Clock{held: true, busy: true, actors: make(map[*Actor]struct{})}
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

// state is what an actor is doing, for the deadlock dump.
type state uint8

const (
	running state = iota
	starting
	sleeping       // until
	receiving      // on box
	receivingTimed // on box, until
)

// Actor is a goroutine enrolled in the simulation.  All methods must be
// called from the goroutine that owns the actor.
type Actor struct {
	c    *Clock
	name string
	wake chan struct{} // adopted actors: the run token, handed over by another goroutine

	// Spawned actors: the function, and the coroutine that runs it.
	fn     func(*Actor)
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	// What the actor is doing, formatted only by a deadlock dump.
	state state
	box   *Mailbox
	until Time

	deadline event // Sleep's wake-up or GetTimeout's expiry; index -1 when not pending

	waiting bool // true while blocked; guards against double wake
	done    bool
}

// Now returns the current virtual time.
func (a *Actor) Now() Time { return a.c.Now() }

// Hold restates the reservation every clock is born with (see New); on a
// fresh clock it changes nothing.  Its one remaining caller is the
// benchmark harness, and it leaves with the next benchmark PR.
func (c *Clock) Hold() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held, c.busy = true, true
}

// Adopt enrolls the calling goroutine as an actor.  The caller must call
// Done when it leaves the simulation.  If the run token is still reserved
// (see New), the reservation is converted into this actor's run token;
// otherwise the caller may block until the token reaches it.
func (c *Clock) Adopt(name string) *Actor {
	a := &Actor{c: c, name: name, wake: make(chan struct{}, 1)}
	a.deadline = event{index: -1, a: a}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enrollLocked(a)
	if c.held {
		c.held = false
		return a
	}
	a.state = starting
	c.runq.push(a)
	if c.busy {
		c.mu.Unlock()
		<-a.wake // from the dispatcher that reaches a
		c.mu.Lock()
		c.checkDeadLocked()
	} else {
		c.busy = true
		c.dispatchLocked(a)
	}
	return a
}

// Spawn starts fn as a new actor.  The actor is registered before Spawn
// returns, so virtual time cannot advance past the spawn point before fn
// begins; fn itself runs only once the actor is granted the run token.
// With every earlier actor retired, nobody dispatches: the actor waits
// for the next Run or Adopt.  It is retired automatically when fn
// returns.
func (c *Clock) Spawn(name string, fn func(*Actor)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var a *Actor
	if n := len(c.idle); n > 0 {
		a, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		a = &Actor{c: c}
		a.deadline = event{index: -1, a: a}
	}
	c.enrollLocked(a)
	if a.resume == nil {
		a.resume, a.stop = iter.Pull(a.body)
	}
	a.name, a.fn, a.state, a.done = name, fn, starting, false
	c.runq.push(a)
}

// body is a spawned actor's coroutine.  It runs one actor function per
// Spawn and parks in between, until Run stops it.
func (a *Actor) body(yield func(struct{}) bool) {
	a.yield = yield
	for {
		a.fn(a)
		a.fn = nil
		func() {
			a.c.mu.Lock()
			defer a.c.mu.Unlock()
			a.c.retireLocked(a)
		}()
		if !yield(struct{}{}) {
			return
		}
	}
}

// enrollLocked registers a new runnable actor.  Caller holds the lock.
func (c *Clock) enrollLocked(a *Actor) {
	if c.dead {
		panic("vclock: clock is poisoned after a deadlock")
	}
	c.actors[a] = struct{}{}
	c.runnable++
	c.wg.Add(1)
}

// retireLocked removes a from the simulation.  Caller holds the lock.
func (c *Clock) retireLocked(a *Actor) {
	if a.done {
		panic("vclock: Done called twice on actor " + a.name)
	}
	a.done = true
	delete(c.actors, a)
	c.runnable--
	c.maybeAdvance()
}

// Done retires the adopted actor, then runs whatever is queued for the
// run token until the token goes to another adopted actor or nothing is
// left to run.  Further use of the actor is a bug.
func (a *Actor) Done() {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retireLocked(a)
	c.dispatchLocked(nil)
	c.wg.Done()
}

// Run blocks the calling (non-actor) goroutine until every actor has
// retired, running queued actors itself while nobody else holds the run
// token.  It is the usual way for a test or main function to drive a
// simulation to the end.  If nobody adopted the run token reserved by
// New, Run takes it: the queued actors start in spawn order.  Before it
// returns, Run stops the coroutines parked for reuse.
func (c *Clock) Run() {
	func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.held || !c.busy {
			c.held, c.busy = false, true
			c.dispatchLocked(nil)
		}
	}()
	c.wg.Wait()
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, a := range idle {
		a.stop()
	}
}

// Sleep advances the actor d units of virtual time.  Negative durations
// are treated as zero (a yield: the actor re-becomes runnable at the
// current instant, after already-scheduled same-instant events).
func (a *Actor) Sleep(d Duration) {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	a.state, a.until = sleeping, c.after(d)
	a.deadline.kind = evWake
	c.schedule(&a.deadline, a.until)
	c.blockLocked(a)
}

// after returns the instant d from now: negative durations count as
// zero, and an instant past the end of time saturates to maxTime.
// Caller holds the lock.
func (c *Clock) after(d Duration) Time {
	switch {
	case d <= 0:
		return c.now
	case Time(d) > maxTime-c.now:
		return maxTime
	}
	return c.now + Time(d)
}

// checkDeadLocked panics with the deadlock diagnostic if the clock has
// been poisoned.  Caller holds the lock; the panic unwinds through the
// caller's deferred unlock.
func (c *Clock) checkDeadLocked() {
	if c.dead {
		panic(c.deadMsg)
	}
}

// schedule inserts ev, which is not pending, to fire at when.  Caller
// holds the lock.
func (c *Clock) schedule(ev *event, when Time) {
	if when < c.now {
		when = c.now
	}
	ev.when, ev.seq = when, c.seq
	c.seq++
	heap.Push(&c.timers, ev)
}

// cancel takes ev out of the timer heap if it is pending.  Caller holds
// the lock.
func (c *Clock) cancel(ev *event) {
	if ev.index >= 0 {
		heap.Remove(&c.timers, ev.index)
	}
}

// newDelivery returns a delivery event from the free list, or a new one.
// Caller holds the lock.
func (c *Clock) newDelivery(m *Mailbox, v any) *event {
	var ev *event
	if n := len(c.free); n > 0 {
		ev, c.free = c.free[n-1], c.free[:n-1]
	} else {
		ev = &event{kind: evDeliver}
	}
	ev.box, ev.v = m, v
	return ev
}

// fire runs ev, which has just left the heap.  A delivery event goes
// back to the free list.  Caller holds the lock.
func (c *Clock) fire(ev *event) {
	switch ev.kind {
	case evWake:
		c.wakeActor(ev.a)
	case evTimeout:
		// The waiter takes itself off the list on its own wake path
		// too; a delivery may have woken it at this same instant.
		ev.box.waiters.remove(ev.a)
		c.wakeActor(ev.a)
	case evDeliver:
		m, v := ev.box, ev.v
		ev.box, ev.v = nil, nil
		c.free = append(c.free, ev)
		m.pending--
		m.ready.push(v)
		m.wakeOneLocked()
	}
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
	c.runq.push(a)
}

// blockLocked records that a stopped running, advances the clock if a
// was the last runnable actor, and passes the run token on.  It returns
// once a holds the token again.  Caller holds the lock.
func (c *Clock) blockLocked(a *Actor) {
	a.waiting = true
	c.runnable--
	c.maybeAdvance()
	switch {
	case !c.dead && c.runq.len() > 0 && c.runq.peek() == a:
		c.runq.pop() // next in line already: keep the token
		a.state = running
	case a.wake != nil:
		c.dispatchLocked(a)
	default:
		c.mu.Unlock()
		a.yield(struct{}{}) // back to the dispatcher that resumed a
		c.mu.Lock()
	}
	c.checkDeadLocked()
}

// dispatchLocked runs queued actors on the calling goroutine, which holds
// the run token, in FIFO order: a spawned actor is resumed here until it
// blocks or returns.  It returns once me, a blocked adopted actor, holds
// the token again; for me == nil (Run, Done), once the token went to an
// adopted actor or nothing is left to run.  On a poisoned clock it
// releases every queued adopted actor to observe the deadlock and panics
// with the diagnostic.  Caller holds the lock.
func (c *Clock) dispatchLocked(me *Actor) {
	for {
		if c.dead {
			wake := c.runq.rest()
			c.runq = fifo[*Actor]{}
			c.mu.Unlock()
			for _, a := range wake {
				if a.wake != nil && a != me {
					a.wake <- struct{}{}
				}
			}
			c.mu.Lock()
			panic(c.deadMsg)
		}
		// A blocked me leaves the queue non-empty: maybeAdvance has
		// woken someone or poisoned the clock.
		if me == nil && c.runq.len() == 0 {
			c.busy = false
			return
		}
		a := c.runq.pop()
		a.state = running
		switch {
		case a == me:
			return
		case a.wake != nil:
			c.mu.Unlock()
			a.wake <- struct{}{}
			if me != nil {
				<-me.wake
			}
			c.mu.Lock()
			return
		}
		c.resumeLocked(a)
		if a.done {
			c.idle = append(c.idle, a)
			c.wg.Done()
		}
	}
}

// resumeLocked runs the spawned actor a until it blocks or returns, with
// the lock released.  The lock is retaken even if a panics.  Caller holds
// the lock.
func (c *Clock) resumeLocked(a *Actor) {
	c.mu.Unlock()
	defer c.mu.Lock()
	a.resume()
}

// maybeAdvance advances virtual time while nothing is runnable.  Caller
// holds the lock.
//
// If no event is pending the simulation is deadlocked: the clock is
// poisoned and every blocked actor is queued, so that the dispatcher
// panics with the diagnostic and each blocked adopted actor panics from
// its own blocking primitive.
func (c *Clock) maybeAdvance() {
	if c.dead {
		return
	}
	for c.runnable == 0 && len(c.actors) > 0 {
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
			c.fire(heap.Pop(&c.timers).(*event))
		}
	}
}

// dumpLocked renders per-actor diagnostics.  Caller holds the lock.
func (c *Clock) dumpLocked() string {
	lines := make([]string, 0, len(c.actors))
	for a := range c.actors {
		lines = append(lines, fmt.Sprintf("  actor %q: %s", a.name, a.describe()))
	}
	sort.Strings(lines)
	return fmt.Sprintf("at virtual time %v:\n%s", time.Duration(c.now), strings.Join(lines, "\n"))
}

// describe renders what a is doing.  Caller holds the lock.
func (a *Actor) describe() string {
	switch a.state {
	case starting:
		return "starting"
	case sleeping:
		return fmt.Sprintf("sleeping until %v", time.Duration(a.until))
	case receiving:
		return "receiving on mailbox " + a.box.name
	case receivingTimed:
		return fmt.Sprintf("receiving on mailbox %s (timeout at %v)", a.box.name, time.Duration(a.until))
	}
	return "running"
}
