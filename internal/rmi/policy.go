package rmi

import "time"

// Policy configures retry behavior for synchronous calls.  The zero
// value is the historical behavior: one attempt, the caller's timeout,
// no dedup state kept anywhere.
//
// With Retries > 0, a call becomes a sequence of attempts: each attempt
// re-sends the *same* request message (same correlation ID, marked
// idempotent) and waits AttemptTimeout for the response; between
// attempts the caller keeps listening for a late response during the
// backoff window, so a slow reply still completes the call.  The
// receiver deduplicates idempotent requests by (sender, ID): a retry of
// a request whose handler already ran gets the cached response re-sent
// instead of a second execution.  Sync calls are therefore exactly-once
// under message loss, duplication, and reordering — the retry loop adds
// at-least-once delivery, the dedup table subtracts the "more than".
type Policy struct {
	// AttemptTimeout bounds one attempt.  It should be set when
	// Retries > 0; otherwise the first attempt consumes the caller's
	// whole timeout and no retry ever fires.  The caller's timeout
	// remains the overall budget across all attempts.
	AttemptTimeout time.Duration
	// Retries is the number of re-sends after the first attempt.
	Retries int
	// Backoff is the initial between-attempt wait (default 2ms).
	Backoff time.Duration
	// BackoffMax caps the grown backoff (0 = uncapped).
	BackoffMax time.Duration
	// Multiplier grows the backoff between attempts (values <= 1 keep it
	// constant).
	Multiplier float64
}

// next returns the backoff following cur.
func (pol Policy) next(cur time.Duration) time.Duration {
	if pol.Multiplier > 1 {
		cur = time.Duration(float64(cur) * pol.Multiplier)
	}
	if pol.BackoffMax > 0 && cur > pol.BackoffMax {
		cur = pol.BackoffMax
	}
	return cur
}

// SetPolicy installs the station's sync-call retry policy.  It may be
// changed at any time; in-flight calls keep the policy they started
// with.
func (st *Station) SetPolicy(pol Policy) {
	st.mu.Lock()
	st.policy = pol
	st.mu.Unlock()
}

// SetRetryHook installs a callback invoked on every retry of a
// synchronous call (the core layer turns it into CallRetry trace
// events).  Call before Start.
func (st *Station) SetRetryHook(hook func(to, service, method string)) {
	st.retryHook = hook
}

// Closed reports whether the station has been shut down.
func (st *Station) Closed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.closed
}

// dedupMax bounds the idempotency table; beyond it the oldest entries
// are evicted FIFO.  A retry arriving after its entry was evicted would
// re-execute, so the cap just needs to exceed the number of calls that
// can plausibly be in retry windows at once.
const dedupMax = 2048

// dedupTTL bounds how long the receiver remembers a (sender, ID) pair:
// entries older than this are garbage-collected even while the table is
// under dedupMax, so a long-lived station under steady idempotent
// traffic holds only the entries from recent retry windows instead of
// the last 2048 calls forever.  It only needs to exceed the longest
// plausible retry window: a retry arriving after its entry expired
// would re-execute.
const dedupTTL = 30 * time.Second

// dedupKey identifies one idempotent request: correlation IDs are
// per-sender, so the pair is unique.
type dedupKey struct {
	from string
	id   uint64
}

// dedupEntry tracks one idempotent request.  resp is nil while the
// handler is still running (a retry arriving then is simply dropped —
// the original execution will answer) and holds the response afterwards
// (a retry gets it re-sent).  at is the scheduler time the request was
// first seen; the TTL sweep measures age from it.
type dedupEntry struct {
	resp *Message
	at   time.Duration
}

// dedupCheck registers an inbound idempotent request.  It returns the
// cached response to re-send (non-nil) or reports dup for an in-flight
// duplicate; fresh requests are entered into the table and return
// (nil, false).
func (st *Station) dedupCheck(msg *Message) (cached *Message, dup bool) {
	key := dedupKey{from: msg.From, id: msg.ID}
	now := st.s.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dedupGC(now)
	if st.dedup == nil {
		st.dedup = make(map[dedupKey]*dedupEntry)
	}
	if e, ok := st.dedup[key]; ok {
		return e.resp, true
	}
	st.dedup[key] = &dedupEntry{at: now}
	st.dedupOrder = append(st.dedupOrder, key)
	for len(st.dedupOrder)-st.dedupHead > dedupMax {
		st.dedupDropHead()
	}
	st.dedupCompact()
	return nil, false
}

// dedupGC expires entries older than dedupTTL.  The order slice is
// insertion-ordered and entry timestamps never decrease, so expiry only
// ever consumes a prefix.
func (st *Station) dedupGC(now time.Duration) {
	for st.dedupHead < len(st.dedupOrder) {
		e := st.dedup[st.dedupOrder[st.dedupHead]]
		if e != nil && now-e.at < dedupTTL {
			break
		}
		st.dedupDropHead()
	}
	st.dedupCompact()
}

// dedupDropHead evicts the oldest entry.  The consumed slot is zeroed
// (releasing the sender-name string) and skipped via dedupHead rather
// than re-slicing the front off: `order = order[1:]` keeps the whole
// backing array reachable, so the dead prefix was never collected.
func (st *Station) dedupDropHead() {
	key := st.dedupOrder[st.dedupHead]
	delete(st.dedup, key)
	st.dedupOrder[st.dedupHead] = dedupKey{}
	st.dedupHead++
}

// dedupCompact reclaims the consumed prefix once it is at least half the
// slice, bounding dead capacity at 2× the live entry count.
func (st *Station) dedupCompact() {
	if st.dedupHead > 0 && st.dedupHead*2 >= len(st.dedupOrder) {
		n := copy(st.dedupOrder, st.dedupOrder[st.dedupHead:])
		st.dedupOrder = st.dedupOrder[:n]
		st.dedupHead = 0
	}
}

// DedupSize reports the number of live entries in the idempotency table
// (after expiring anything past the TTL).
func (st *Station) DedupSize() int {
	now := st.s.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dedupGC(now)
	return len(st.dedup)
}

// dedupStore records the response of an executed idempotent request.
func (st *Station) dedupStore(msg *Message, resp *Message) {
	key := dedupKey{from: msg.From, id: msg.ID}
	st.mu.Lock()
	if e, ok := st.dedup[key]; ok {
		e.resp = resp
	}
	st.mu.Unlock()
}
