package core

import (
	"fmt"
	"sync"

	"jsymphony/internal/sched"
)

// prioLock is a mutex usable while its holder performs blocking RMI in
// virtual time.  A contender blocks *inside* the simulation (p.Recv on a
// sched.Queue), not on a raw channel or sync.Mutex, so the kernel sees
// it as quiescent, keeps advancing virtual time for the holder's RMI,
// and hands the token back deterministically.
//
// Waiters park on per-level queues and unlock hands the token to the
// lowest-level waiter first (FIFO within a level).  The replicated
// primary's write fan lock maps admission ranks onto levels, so a gold
// write admitted to the mailbox overtakes queued bronze instead of
// aging behind it — the write queue enforces the same priority order as
// the mailbox bound (DESIGN.md §12).  Level 0 is the control plane and
// all unranked traffic; a lock only ever taken at level 0 (the static
// manager, replica lease renewal) is a plain FIFO mutex.
type prioLock struct {
	s    sched.Sched
	name string // prefix of the hand-off queues' names

	mu      sync.Mutex
	held    bool
	waiting []int         // waiters per level
	qs      []sched.Queue // one handoff queue per level, grown lazily
}

func newPrioLock(s sched.Sched, name string) *prioLock { return &prioLock{s: s, name: name} }

// lock acquires the token, parking at the given priority level
// (0 = most important) while another proc holds it.
func (l *prioLock) lock(p sched.Proc, level int) {
	l.mu.Lock()
	if !l.held {
		// No holder implies no waiters: unlock hands off directly,
		// leaving held set, so the lock is only ever free when idle.
		l.held = true
		l.mu.Unlock()
		return
	}
	for len(l.qs) <= level {
		l.qs = append(l.qs, l.s.NewQueue(fmt.Sprintf("%s.L%d", l.name, len(l.qs))))
		l.waiting = append(l.waiting, 0)
	}
	l.waiting[level]++
	q := l.qs[level]
	l.mu.Unlock()
	p.Recv(q)
}

// unlock hands the token to the best waiter (lowest level, FIFO within
// it), or frees the lock when nobody waits.
func (l *prioLock) unlock() {
	l.mu.Lock()
	for lvl := range l.qs {
		if l.waiting[lvl] > 0 {
			l.waiting[lvl]--
			q := l.qs[lvl]
			l.mu.Unlock()
			q.Put(struct{}{}, 0)
			return
		}
	}
	l.held = false
	l.mu.Unlock()
}
