// Package sched abstracts scheduling, blocking, and time so that the
// entire JavaSymphony runtime stack — the RMI protocol, the network and
// object agent systems — is written once and runs in two worlds:
//
//   - real time: plain goroutines, channels and the wall clock, under
//     the in-memory and TCP transports (NewLocalEnv, NewTCPEnv);
//   - virtual time: vclock actors and mailboxes, under the simulated
//     fabric (NewSimEnv), used to reproduce the paper's 13-workstation
//     evaluation deterministically.  Procs spawned before the first
//     AdoptVirtual (or Clock.Run) queue and first run in spawn order.
//
// A Proc is a schedulable context (goroutine or vclock actor); a Queue is
// an unbounded FIFO with optional delayed delivery (the hook transports
// use to model network latency).  The virtual Queue is a *vclock.Mailbox
// as it is, so a mailbox made elsewhere (a simnet machine's inbox) is
// one too.
package sched

import (
	"sync"
	"time"

	"jsymphony/internal/vclock"
)

// Proc is a schedulable execution context.  Methods must be called from
// the goroutine that owns the Proc.  The proc Spawn hands its function
// is pooled: once the function returns, the scheduler may hand the same
// proc to another function, so it must not be used, or kept for use,
// after that.
type Proc interface {
	// Sleep suspends the proc for d.
	Sleep(d time.Duration)
	// Recv blocks until a message is available on q.  ok is false when
	// q is closed and drained.
	Recv(q Queue) (v any, ok bool)
	// RecvTimeout is Recv with a deadline; ok is false on timeout or
	// close-and-drained.
	RecvTimeout(q Queue, d time.Duration) (v any, ok bool)
	// Sched returns the scheduler that owns this proc.
	Sched() Sched
}

// Queue is an unbounded FIFO usable from any goroutine.
type Queue interface {
	// Put schedules v for delivery after delay (>= 0).  It never blocks.
	Put(v any, delay time.Duration)
	// Close marks the queue closed; receivers drain remaining messages
	// and then observe ok == false.
	Close()
	// Len reports the number of immediately deliverable messages.
	Len() int
}

// Sched creates procs and queues and tells time.
type Sched interface {
	// Spawn runs fn on a new proc.  It returns once the proc is
	// registered (virtual time cannot advance past the spawn point
	// before fn starts).
	Spawn(name string, fn func(Proc))
	// NewQueue returns an empty queue; name is used in diagnostics.
	NewQueue(name string) Queue
	// Now returns the time elapsed since the scheduler epoch.
	Now() time.Duration
	// Virtual reports whether this scheduler runs in virtual time.
	Virtual() bool
}

// ---------------------------------------------------------------------
// Virtual implementation over vclock.

type virtualSched struct {
	c    *vclock.Clock
	mu   sync.Mutex
	free []*virtualProc // procs whose functions returned, for Spawn to reuse
}

// virtualProc is a proc on a vclock actor.  A spawned one is pooled: it
// goes back to its scheduler's free list when its function returns, so
// the list never holds more procs than were once live at the same time.
type virtualProc struct {
	s   *virtualSched
	a   *vclock.Actor
	fn  func(Proc)          // the spawned function, until it starts
	run func(*vclock.Actor) // the proc's body method, bound once
}

// Virtual returns a Sched running in virtual time on clock c.
func Virtual(c *vclock.Clock) Sched { return &virtualSched{c: c} }

func (s *virtualSched) Spawn(name string, fn func(Proc)) {
	s.mu.Lock()
	var p *virtualProc
	if n := len(s.free); n > 0 {
		p, s.free = s.free[n-1], s.free[:n-1]
	} else {
		p = &virtualProc{s: s}
		p.run = p.body
	}
	s.mu.Unlock()
	p.fn = fn
	s.c.Spawn(name, p.run)
}

// body runs a spawned proc's function on actor a, then frees the proc.
func (p *virtualProc) body(a *vclock.Actor) {
	fn := p.fn
	p.a, p.fn = a, nil
	fn(p)
	p.a = nil
	p.s.mu.Lock()
	p.s.free = append(p.s.free, p)
	p.s.mu.Unlock()
}

func (s *virtualSched) NewQueue(name string) Queue { return vclock.NewMailbox(s.c, name) }

func (s *virtualSched) Now() time.Duration { return time.Duration(s.c.Now()) }
func (s *virtualSched) Virtual() bool      { return true }

// Adopt enrolls the calling goroutine as a virtual proc.  The caller must
// call the returned stop function when leaving the simulation.
func (s *virtualSched) Adopt(name string) (Proc, func()) {
	a := s.c.Adopt(name)
	return &virtualProc{s: s, a: a}, a.Done
}

func (p *virtualProc) Sleep(d time.Duration)    { p.a.Sleep(d) }
func (p *virtualProc) Recv(q Queue) (any, bool) { return p.a.Get(q.(*vclock.Mailbox)) }
func (p *virtualProc) RecvTimeout(q Queue, d time.Duration) (any, bool) {
	return p.a.GetTimeout(q.(*vclock.Mailbox), d)
}
func (p *virtualProc) Sched() Sched { return p.s }

// Actor exposes the underlying vclock actor of a virtual proc, or nil
// for a real proc.  Transports that charge simulated CPU need it.
func Actor(p Proc) *vclock.Actor {
	if vp, ok := p.(*virtualProc); ok {
		return vp.a
	}
	return nil
}

// AdoptVirtual enrolls the calling goroutine in a virtual scheduler.  It
// panics if s is not virtual.  The stop function must be called when the
// goroutine leaves the simulation.
func AdoptVirtual(s Sched, name string) (Proc, func()) {
	return s.(*virtualSched).Adopt(name)
}

// ---------------------------------------------------------------------
// Real implementation over goroutines and the wall clock.

type realSched struct{ epoch time.Time }

// realProc is a goroutine's proc.  Its one timer serves every
// RecvTimeout: armed by Reset, and left stopped with an empty channel.
type realProc struct {
	s     *realSched
	timer *time.Timer
}

// Real returns a Sched running in real time.
//
// This function and the realSched/realProc/realQueue methods below are
// the repository's only legitimate consumers of the wall clock: they
// ARE the real-time scheduler, the thing the walltime invariant says
// everything else must go through.  Code that runs under simulation
// never reaches them (Virtual() schedulers route to vclock), so the
// jsvet waivers here cannot mask a determinism bug — any other
// time.Now/time.Sleep in the build graph is a finding.
//
//jsvet:allow walltime the real scheduler is the wall-clock escape hatch
func Real() Sched { return &realSched{epoch: time.Now()} }

func (s *realSched) Spawn(name string, fn func(Proc)) {
	go fn(&realProc{s: s})
}

func (s *realSched) NewQueue(name string) Queue { return newRealQueue() }

// Now reports wall time since the scheduler epoch.
//
//jsvet:allow walltime real scheduler: wall time is its clock
func (s *realSched) Now() time.Duration { return time.Since(s.epoch) }

func (s *realSched) Virtual() bool { return false }

// RealProc returns a Proc for the calling goroutine under a real
// scheduler.  It panics if s is not real.
func RealProc(s Sched) Proc { return &realProc{s: s.(*realSched)} }

// Sleep blocks the goroutine on the wall clock.
//
//jsvet:allow walltime real scheduler: sleeping is its job
func (p *realProc) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

func (p *realProc) Recv(q Queue) (any, bool) {
	v, ok, _ := q.(*realQueue).recv(nil)
	return v, ok
}

// RecvTimeout arms the proc's wall-clock timer for the deadline.  The
// module's timer channels are asynchronous (go.mod says go 1.22): a
// tick that fired unconsumed stays in the channel across a Reset, so a
// receive that did not consume the tick stops the timer and drains the
// tick that Stop came too late for.
//
//jsvet:allow walltime real scheduler: deadlines ride the wall clock
func (p *realProc) RecvTimeout(q Queue, d time.Duration) (any, bool) {
	if d < 0 {
		d = 0
	}
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
	v, ok, ticked := q.(*realQueue).recv(p.timer.C)
	if !ticked && !p.timer.Stop() {
		<-p.timer.C
	}
	return v, ok
}

func (p *realProc) Sched() Sched { return p.s }

// realQueue is an unbounded FIFO for real time.  A one-token notify
// channel wakes blocked receivers; receivers loop, so lost or spurious
// wakeups are harmless.
//
// The items reuse one backing array, as vclock's mailbox FIFO does:
// items[head:] are queued, a pop clears its slot (a received message
// is the receiver's alone to keep alive) and rewinds the array once it
// drains, and a full array at least half popped is compacted instead
// of grown.  A queue that drains between uses stops allocating.
type realQueue struct {
	mu     sync.Mutex
	items  []any
	head   int
	closed bool
	notify chan struct{}
}

func newRealQueue() *realQueue {
	return &realQueue{notify: make(chan struct{}, 1)}
}

// Put delivers immediately or after a wall-clock delay.
//
//jsvet:allow walltime real scheduler: delayed delivery uses real timers
func (q *realQueue) Put(v any, delay time.Duration) {
	if delay > 0 {
		time.AfterFunc(delay, func() { q.deliver(v) })
		return
	}
	q.deliver(v)
}

func (q *realQueue) deliver(v any) {
	q.mu.Lock()
	if q.closed {
		// Late delayed delivery after Close: drop, matching the
		// virtual mailbox contract as closely as real time allows.
		q.mu.Unlock()
		return
	}
	q.pushLocked(v)
	q.mu.Unlock()
	q.wake()
}

// pushLocked appends v.  The caller holds q.mu.
func (q *realQueue) pushLocked(v any) {
	if q.head > 0 && 2*q.head >= len(q.items) && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// popLocked takes the oldest item.  The caller holds q.mu and has seen
// lenLocked() > 0.
func (q *realQueue) popLocked() any {
	v := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

func (q *realQueue) lenLocked() int { return len(q.items) - q.head }

func (q *realQueue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

func (q *realQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake()
}

func (q *realQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lenLocked()
}

// recv pops one item, blocking until one arrives, the queue closes, or
// timeout fires (when non-nil).  ticked reports that recv consumed the
// timeout's tick.
func (q *realQueue) recv(timeout <-chan time.Time) (v any, ok, ticked bool) {
	for {
		q.mu.Lock()
		if q.lenLocked() > 0 {
			v = q.popLocked()
			rest := q.lenLocked()
			q.mu.Unlock()
			if rest > 0 {
				q.wake() // other receivers may be waiting
			}
			return v, true, false
		}
		if q.closed {
			q.mu.Unlock()
			// Cascade so every other blocked receiver observes the
			// close too (the notify channel holds a single token).
			q.wake()
			return nil, false, false
		}
		q.mu.Unlock()
		select {
		case <-q.notify:
		case <-timeout:
			// One last race-free check before reporting timeout.
			q.mu.Lock()
			if q.lenLocked() > 0 {
				v = q.popLocked()
				q.mu.Unlock()
				return v, true, true
			}
			q.mu.Unlock()
			return nil, false, true
		}
	}
}
