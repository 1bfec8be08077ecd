package vclock

// Mailbox is a delayed-delivery message queue in virtual time.  Put
// schedules a message to become visible after a delay (modelling network
// latency plus transmission time); Get blocks the calling actor until a
// message is deliverable.  Messages delivered at distinct virtual times
// are received in time order; ties are broken by Put order.
type Mailbox struct {
	c       *Clock
	name    string
	ready   fifo[any]    // delivered, not yet consumed
	waiters fifo[*Actor] // actors blocked in Get
	pending int          // scheduled deliveries not yet fired
	closed  bool
}

// NewMailbox returns an empty mailbox on clock c.  The name is used in
// deadlock diagnostics.
func NewMailbox(c *Clock, name string) *Mailbox {
	return &Mailbox{c: c, name: name}
}

// Len reports the number of deliverable (not in-flight) messages.
func (m *Mailbox) Len() int {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	return m.ready.len()
}

// InFlight reports the number of scheduled, not-yet-delivered messages.
func (m *Mailbox) InFlight() int {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	return m.pending
}

// Put schedules v for delivery after delay.  It never blocks and may be
// called from any goroutine (actor or not).  Put on a closed mailbox
// silently drops the message, which is what a network delivers to a
// closed socket during shutdown.
func (m *Mailbox) Put(v any, delay Duration) {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.closed {
		return
	}
	if delay < 0 {
		delay = 0
	}
	m.pending++
	c.schedule(c.now+Time(delay), func() {
		m.pending--
		m.ready.push(v)
		m.wakeOneLocked()
	})
}

// Close marks the mailbox closed.  Blocked and future Gets return ok ==
// false once no deliverable or in-flight messages remain.
func (m *Mailbox) Close() {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	// Wake everyone so they can observe the close.
	for m.waiters.len() > 0 {
		m.wakeOneLocked()
	}
}

// wakeOneLocked pops the first waiter, if any, and makes it runnable.
// Caller holds the clock lock.
func (m *Mailbox) wakeOneLocked() {
	if m.waiters.len() > 0 {
		m.c.wakeActor(m.waiters.pop())
	}
}

// Get blocks the actor until a message is deliverable and returns it.
// ok is false if the mailbox is closed and drained.
func (a *Actor) Get(m *Mailbox) (v any, ok bool) {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if m.ready.len() > 0 {
			return m.ready.pop(), true
		}
		if m.closed && m.pending == 0 {
			return nil, false
		}
		m.waiters.push(a)
		a.state, a.box = receiving, m
		c.blockLocked(a)
	}
}

// GetTimeout is Get with a virtual-time deadline.  ok is false if the
// timeout elapsed (or the mailbox closed and drained) before a message
// became deliverable.  A deadline that did not fire leaves the timer
// heap when GetTimeout returns.
func (a *Actor) GetTimeout(m *Mailbox, d Duration) (v any, ok bool) {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < 0 {
		d = 0
	}
	deadline := c.now + Time(d)
	var timer *event
	for {
		if m.ready.len() > 0 {
			c.cancel(timer)
			return m.ready.pop(), true
		}
		if m.closed && m.pending == 0 {
			c.cancel(timer)
			return nil, false
		}
		if c.now >= deadline {
			return nil, false
		}
		if timer == nil {
			timer = c.schedule(deadline, func() {
				// Only wake if still waiting; the waiter removes
				// itself from m.waiters on its own wake path.
				m.waiters.remove(a)
				c.wakeActor(a)
			})
		}
		m.waiters.push(a)
		a.state, a.box, a.until = receivingTimed, m, deadline
		c.blockLocked(a)
		// We may have been woken by a delivery while the timer is still
		// pending (it leaves the heap on return), by the timer, or by
		// Close.  Make sure we are off the waiter list.
		m.waiters.remove(a)
	}
}
