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
// use to model network latency).
package sched

import (
	"sync"
	"time"

	"jsymphony/internal/vclock"
)

// Proc is a schedulable execution context.  Methods must be called from
// the goroutine that owns the Proc.
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

type virtualSched struct{ c *vclock.Clock }

type virtualProc struct {
	s *virtualSched
	a *vclock.Actor
}

type virtualQueue struct{ m *vclock.Mailbox }

// Virtual returns a Sched running in virtual time on clock c.
func Virtual(c *vclock.Clock) Sched { return &virtualSched{c: c} }

func (s *virtualSched) Spawn(name string, fn func(Proc)) {
	s.c.Spawn(name, func(a *vclock.Actor) { fn(&virtualProc{s: s, a: a}) })
}

func (s *virtualSched) NewQueue(name string) Queue {
	return &virtualQueue{m: vclock.NewMailbox(s.c, name)}
}

func (s *virtualSched) Now() time.Duration { return time.Duration(s.c.Now()) }
func (s *virtualSched) Virtual() bool      { return true }

// Adopt enrolls the calling goroutine as a virtual proc.  The caller must
// call the returned stop function when leaving the simulation.
func (s *virtualSched) Adopt(name string) (Proc, func()) {
	a := s.c.Adopt(name)
	return &virtualProc{s: s, a: a}, a.Done
}

func (p *virtualProc) Sleep(d time.Duration) { p.a.Sleep(d) }
func (p *virtualProc) Recv(q Queue) (any, bool) {
	return p.a.Get(q.(*virtualQueue).m)
}
func (p *virtualProc) RecvTimeout(q Queue, d time.Duration) (any, bool) {
	return p.a.GetTimeout(q.(*virtualQueue).m, d)
}
func (p *virtualProc) Sched() Sched { return p.s }

func (q *virtualQueue) Put(v any, delay time.Duration) { q.m.Put(v, delay) }
func (q *virtualQueue) Close()                         { q.m.Close() }
func (q *virtualQueue) Len() int                       { return q.m.Len() }

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

// WrapMailbox adapts an existing vclock mailbox (for example a simnet
// machine's inbox) into a Queue usable by virtual procs on the same
// clock.
func WrapMailbox(m *vclock.Mailbox) Queue { return &virtualQueue{m: m} }

// ---------------------------------------------------------------------
// Real implementation over goroutines and the wall clock.

type realSched struct{ epoch time.Time }

type realProc struct{ s *realSched }

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
	return q.(*realQueue).recv(nil)
}

// RecvTimeout arms a wall-clock timer for the deadline.
//
//jsvet:allow walltime real scheduler: deadlines ride the wall clock
func (p *realProc) RecvTimeout(q Queue, d time.Duration) (any, bool) {
	if d < 0 {
		d = 0
	}
	t := time.NewTimer(d)
	defer t.Stop()
	return q.(*realQueue).recv(t.C)
}

func (p *realProc) Sched() Sched { return p.s }

// realQueue is an unbounded FIFO for real time.  A one-token notify
// channel wakes blocked receivers; receivers loop, so lost or spurious
// wakeups are harmless.
type realQueue struct {
	mu     sync.Mutex
	items  []any
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
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.wake()
}

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
	return len(q.items)
}

// recv pops one item, blocking until one arrives, the queue closes, or
// timeout fires (when non-nil).
func (q *realQueue) recv(timeout <-chan time.Time) (any, bool) {
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			v := q.items[0]
			q.items = q.items[1:]
			rest := len(q.items)
			q.mu.Unlock()
			if rest > 0 {
				q.wake() // other receivers may be waiting
			}
			return v, true
		}
		if q.closed {
			q.mu.Unlock()
			// Cascade so every other blocked receiver observes the
			// close too (the notify channel holds a single token).
			q.wake()
			return nil, false
		}
		q.mu.Unlock()
		select {
		case <-q.notify:
		case <-timeout:
			// One last race-free check before reporting timeout.
			q.mu.Lock()
			if len(q.items) > 0 {
				v := q.items[0]
				q.items = q.items[1:]
				q.mu.Unlock()
				return v, true
			}
			q.mu.Unlock()
			return nil, false
		}
	}
}
