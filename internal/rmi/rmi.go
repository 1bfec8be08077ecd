// Package rmi is the remote-method-invocation substrate JavaSymphony is
// built on.
//
// The paper implements JRS directly on Java/RMI (§5): AppOAs and PubOAs
// exchange synchronous RMI calls, and JavaSymphony builds asynchronous
// and one-sided invocation on top by dedicating a thread per outstanding
// call.  This package reproduces that layer from scratch:
//
//   - Message: the wire unit (request / response / one-way); bodies are
//     what Marshal produces — a one-byte format tag, then the pooled
//     binary codec of internal/rmi/wire: a registered protocol struct's
//     tag and layout, a tagged value, or a type's named layout
//     (layout.go).
//   - Network / Endpoint: pluggable transports, one per way of running —
//     in-memory (real time, NewLocalEnv), the simulated fabric of
//     internal/simnet (virtual time, with CPU serialization costs,
//     NIC/link delays and every wire fault: simnet.LinkPolicy;
//     NewSimEnv), and real TCP over loopback (real time, NewTCPEnv).
//   - Station: the per-node protocol engine — service registration,
//     reflection-free dispatch to handler functions, request/response
//     matching, timeouts, and wire statistics.
//   - Methods, Typed, Void, Ask: a service's typed method table and
//     its stub (methods.go), the skeleton and stub Java/RMI generates.
//
// Everything above this package (agents, virtual architectures, the
// object system) addresses peers only by node name through a Station.
package rmi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"jsymphony/internal/metrics"
	"jsymphony/internal/sched"
)

// Kind discriminates wire messages.
type Kind uint8

const (
	// KindRequest expects a KindResponse with the same ID.
	KindRequest Kind = iota + 1
	// KindResponse carries a result or error back to the caller.
	KindResponse
	// KindOneWay is fire-and-forget: no response is ever produced
	// (JavaSymphony's oinvoke, §4.5).
	KindOneWay
)

// Message is the wire unit exchanged between stations.
type Message struct {
	From    string // sender node name
	To      string // receiver node name
	Kind    Kind
	ID      uint64 // request/response correlation
	Service string // target service ("puboa", "nas", ...)
	Method  string // target method within the service
	Body    []byte // payload as Marshal encodes it (format tag first)
	Pad     int    // modeled payload bytes not materialized in Body
	Err     string // non-empty on error responses
	Idem    bool   // request may be retried; receiver must dedup by (From, ID)
}

// tagMessage is Message's struct tag (DESIGN.md §15); msgWire frames
// messages on the TCP transport.
const tagMessage byte = 0x01

var msgWire = registerWire(tagMessage, Message{})

// wireSize estimates the on-the-wire size of m for transports that model
// transmission cost and for statistics.  Pad lets a caller model a large
// transfer (a Java archive, a migrated object's heap) without allocating
// it: simulating transports charge for the bytes, real transports ship
// only the integer.
func (m *Message) wireSize() int {
	return len(m.Body) + m.Pad + len(m.Service) + len(m.Method) + len(m.From) + len(m.To) + 40
}

// Network is a fabric stations attach to.
type Network interface {
	// Attach creates the endpoint for the named node.  Attaching the
	// same name twice is an error.
	Attach(node string) (Endpoint, error)
}

// Endpoint is one node's connection to a network.
type Endpoint interface {
	// Node returns the endpoint's node name.
	Node() string
	// Send transmits msg to the named node.  p is the sending proc;
	// simulating transports charge serialization CPU to it (it may be
	// nil on real transports).  Send never blocks in virtual time
	// beyond the modelled CPU cost.
	Send(p sched.Proc, to string, msg *Message) error
	// Queue is the endpoint's incoming message queue.
	Queue() sched.Queue
	// Close detaches the endpoint.
	Close() error
}

// Errors returned by Station operations.
var (
	ErrTimeout   = errors.New("rmi: call timed out")
	ErrClosed    = errors.New("rmi: station closed")
	ErrNoService = errors.New("rmi: no such service")
	ErrNoRoute   = errors.New("rmi: no route to node")

	// ErrOverload is a load-shed rejection: the receiver answered, it
	// just refused the work (a bounded invoke queue was full, or an
	// admission controller dropped the request's class).  A shed is a
	// response, not a lost message, so the retry machinery never fires
	// for it — retrying into an overloaded server only deepens the
	// collapse.  Callers distinguish "slow" (ErrTimeout, retryable)
	// from "refused" (ErrOverload, report upstream) with errors.Is.
	ErrOverload = errors.New("rmi: overloaded")
)

// RemoteError wraps an error string produced by a remote handler.
type RemoteError struct {
	Node string // node that produced the error
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rmi: remote error from %s: %s", e.Node, e.Msg)
}

// Unwrap surfaces typed sentinels that survive the wire as message
// strings, so errors.Is(err, ErrOverload) works on a caller's side of a
// remote shed exactly as it does on the shedding node.
func (e *RemoteError) Unwrap() error {
	if strings.HasPrefix(e.Msg, ErrOverload.Error()) {
		return ErrOverload
	}
	return nil
}

// IsRemote reports whether err (or anything it wraps) is a RemoteError
// with the given message, used by layers that tunnel typed conditions.
func IsRemote(err error, msg string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Msg == msg
}

// Handler serves one service's methods.  It runs on its own proc; it may
// block, sleep, and issue nested calls.  The returned bytes become the
// response body; a non-nil error is transported as a RemoteError.
type Handler func(p sched.Proc, from, method string, body []byte) ([]byte, error)

// Station is the per-node RMI engine: it owns the endpoint, dispatches
// inbound requests to registered services, and correlates responses to
// outstanding calls.
type Station struct {
	s         sched.Sched
	ep        Endpoint
	replyName string // every reply queue's name, "reply:<node>"

	mu       sync.Mutex
	services map[string]service
	pending  map[uint64]sched.Queue
	replies  []sched.Queue // reply queues of calls that succeeded, for reuse
	requests []*request    // runners of requests whose procs have started, for reuse
	nextID   uint64
	closed   bool
	started  bool
	policy   Policy

	// Idempotency table for retried requests (see Policy).  dedupOrder
	// is a FIFO over the map keys; dedupHead indexes its oldest live
	// slot (evicted slots are zeroed and skipped, and the prefix is
	// compacted away once it dominates the slice).
	dedup      map[dedupKey]*dedupEntry
	dedupOrder []dedupKey
	dedupHead  int

	// Wire counters, each kept once; Stats snapshots them.  calls,
	// retries and bytesOut are also exported: SetMetrics points them at
	// the registry's instruments.
	calls    *metrics.Counter // synchronous/async requests sent
	retries  *metrics.Counter // request re-sends under a retry policy
	bytesOut *metrics.Counter
	bytesIn  metrics.Counter
	oneway   metrics.Counter // one-way messages sent
	served   metrics.Counter // requests served (incl. one-way)
	timeouts metrics.Counter // call attempts that timed out
	sheds    metrics.Counter // calls refused by the callee under overload
	dups     metrics.Counter // duplicate idempotent requests suppressed
	stale    metrics.Counter // responses that arrived after their call gave up

	callLatency *metrics.Histogram               // js_rmi_call_latency_us{node}; nil unless SetMetrics was called
	timeoutHook func(to, service, method string) // nil unless SetTimeoutHook was called
	retryHook   func(to, service, method string) // nil unless SetRetryHook was called
}

// service is a registered handler and the name its procs run under,
// "rmi:<node>/<service>".
type service struct {
	h    Handler
	proc string
}

// NewStation wraps an endpoint.  Call Register for each service, then
// Start.
func NewStation(s sched.Sched, ep Endpoint) *Station {
	return &Station{
		s:         s,
		ep:        ep,
		replyName: "reply:" + ep.Node(),
		services:  make(map[string]service),
		pending:   make(map[uint64]sched.Queue),
		calls:     new(metrics.Counter),
		retries:   new(metrics.Counter),
		bytesOut:  new(metrics.Counter),
	}
}

// Node returns the station's node name.
func (st *Station) Node() string { return st.ep.Node() }

// Sched returns the scheduler the station runs on.
func (st *Station) Sched() sched.Sched { return st.s }

// Stats returns a snapshot of the station's wire statistics.
func (st *Station) Stats() StatsSnapshot {
	return StatsSnapshot{
		CallsSent:  st.calls.Value(),
		OneWaySent: st.oneway.Value(),
		Served:     st.served.Value(),
		Timeouts:   st.timeouts.Value(),
		Sheds:      st.sheds.Value(),
		Retries:    st.retries.Value(),
		Dups:       st.dups.Value(),
		Stale:      st.stale.Value(),
		BytesOut:   st.bytesOut.Value(),
		BytesIn:    st.bytesIn.Value(),
	}
}

// Register installs h as the handler for the named service.  Services
// may be registered at any time (applications attach their object agents
// to an already-running node); registering a live name twice panics.
func (st *Station) Register(name string, h Handler) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.services[name]; dup {
		panic("rmi: duplicate service " + name)
	}
	st.services[name] = service{h: h, proc: "rmi:" + st.Node() + "/" + name}
}

// Unregister removes a service; later requests to it fail with
// ErrNoService.
func (st *Station) Unregister(name string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.services, name)
}

// Start spawns the dispatch loop.
func (st *Station) Start() {
	st.mu.Lock()
	if st.started {
		st.mu.Unlock()
		panic("rmi: Start called twice")
	}
	st.started = true
	st.mu.Unlock()
	st.s.Spawn("rmi:"+st.Node(), st.dispatch)
}

// Close shuts the station down: the endpoint detaches, the dispatch loop
// drains and exits, and outstanding calls fail with ErrClosed.
func (st *Station) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	pend := st.pending
	st.pending = make(map[uint64]sched.Queue)
	st.mu.Unlock()
	st.ep.Close()
	st.ep.Queue().Close()
	for _, q := range pend {
		q.Close()
	}
}

// dispatch is the station's receive loop.
func (st *Station) dispatch(p sched.Proc) {
	for {
		v, ok := p.Recv(st.ep.Queue())
		if !ok {
			return
		}
		msg, ok := v.(*Message)
		if !ok {
			continue // foreign traffic on a shared queue; not ours
		}
		switch msg.Kind {
		case KindRequest, KindOneWay:
			st.bytesIn.Add(int64(msg.wireSize()))
			if msg.Kind == KindRequest && msg.Idem {
				if cached, dup := st.dedupCheck(msg); dup {
					st.dups.Inc()
					if cached != nil {
						// The handler already ran; re-send its response
						// instead of executing a second time.
						st.bytesOut.Add(int64(cached.wireSize()))
						_ = st.ep.Send(p, cached.To, cached)
					}
					// In-flight duplicate: the original execution answers.
					continue
				}
			}
			st.served.Inc()
			st.serve(msg)
		case KindResponse:
			st.bytesIn.Add(int64(msg.wireSize()))
			st.mu.Lock()
			q, ok := st.pending[msg.ID]
			if ok {
				delete(st.pending, msg.ID)
			}
			st.mu.Unlock()
			if !ok {
				st.stale.Inc()
				continue
			}
			q.Put(msg, 0)
		}
	}
}

// serve runs the handler for one inbound request on its own proc — the
// paper's "one thread for every asynchronous method invocation" (§5.2),
// generalized to every request so a slow method never blocks the node.
// The proc runs under the service's name, built once by Register.
func (st *Station) serve(msg *Message) {
	st.mu.Lock()
	svc, ok := st.services[msg.Service]
	var r *request
	if n := len(st.requests); n > 0 {
		r, st.requests = st.requests[n-1], st.requests[:n-1]
	} else {
		r = &request{st: st}
		r.run = r.serve
	}
	r.h, r.msg = svc.h, msg
	st.mu.Unlock()
	if !ok {
		svc.proc = "rmi:" + st.Node() + "/" + msg.Service
	}
	st.s.Spawn(svc.proc, r.run)
}

// request carries one inbound request to the proc that serves it.  A
// station keeps a free list of them: serve takes one, and it goes back
// as its proc starts, so the list never holds more runners than
// requests were once waiting for their procs at the same time.  run is
// the runner's serve method, bound once.
type request struct {
	st  *Station
	h   Handler
	msg *Message
	run func(sched.Proc)
}

func (r *request) serve(p sched.Proc) {
	st, h, msg := r.st, r.h, r.msg
	r.h, r.msg = nil, nil
	st.mu.Lock()
	st.requests = append(st.requests, r)
	st.mu.Unlock()

	var body []byte
	var err error
	if h == nil {
		err = ErrNoService
	} else {
		body, err = h(p, msg.From, msg.Method, msg.Body)
	}
	if msg.Kind == KindOneWay {
		return
	}
	resp := &Message{
		From:    st.Node(),
		To:      msg.From,
		Kind:    KindResponse,
		ID:      msg.ID,
		Service: msg.Service,
		Method:  msg.Method,
		Body:    body,
	}
	if err != nil {
		resp.Err = err.Error()
	}
	if msg.Idem {
		st.dedupStore(msg, resp)
	}
	st.bytesOut.Add(int64(resp.wireSize()))
	// Best effort: the caller times out if the response is lost.
	_ = st.ep.Send(p, msg.From, resp)
}

// Call performs a synchronous invocation of service.method on node `to`
// and waits up to timeout for the response (sinvoke underneath; ainvoke
// is built by calling Call from a dedicated proc).
func (st *Station) Call(p sched.Proc, to, service, method string, body []byte, timeout time.Duration) ([]byte, error) {
	return st.CallPadded(p, to, service, method, body, 0, timeout)
}

// CallPadded is Call with pad extra modeled payload bytes (see
// Message.Pad).
//
// The station's Policy governs retries: each attempt re-sends the same
// request (same ID, marked idempotent so the receiver dedups) and waits
// AttemptTimeout; between attempts the backoff window keeps listening,
// so a merely slow response still completes the call.  The caller's
// timeout is the overall budget.
func (st *Station) CallPadded(p sched.Proc, to, service, method string, body []byte, pad int, timeout time.Duration) ([]byte, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrClosed
	}
	pol := st.policy
	st.nextID++
	id := st.nextID
	var reply sched.Queue
	if n := len(st.replies); n > 0 {
		reply, st.replies = st.replies[n-1], st.replies[:n-1]
	} else {
		reply = st.s.NewQueue(st.replyName)
	}
	st.pending[id] = reply
	st.mu.Unlock()

	msg := &Message{
		From:    st.Node(),
		To:      to,
		Kind:    KindRequest,
		ID:      id,
		Service: service,
		Method:  method,
		Body:    body,
		Pad:     pad,
		Idem:    pol.Retries > 0,
	}
	st.calls.Inc()
	begin := st.s.Now()

	attempts := pol.Retries + 1
	per := timeout
	if pol.AttemptTimeout > 0 && pol.AttemptTimeout < per {
		per = pol.AttemptTimeout
	}
	backoff := pol.Backoff
	if backoff <= 0 {
		backoff = 2 * time.Millisecond
	}
	deadline := time.Duration(math.MaxInt64) // a budget past the end of time saturates
	if timeout < deadline-begin {
		deadline = begin + timeout
	}

	var v any
	var ok bool
	for attempt := 0; attempt < attempts; attempt++ {
		st.bytesOut.Add(int64(msg.wireSize()))
		if err := st.ep.Send(p, to, msg); err != nil {
			st.mu.Lock()
			delete(st.pending, id)
			st.mu.Unlock()
			return nil, err
		}
		wait := per
		if rem := deadline - st.s.Now(); rem < wait {
			wait = rem
		}
		v, ok = p.RecvTimeout(reply, wait)
		if ok {
			break
		}
		// Attempt timed out.  A closed station cleared the pending entry;
		// report that instead of a timeout.
		st.mu.Lock()
		_, stillPending := st.pending[id]
		closed := st.closed
		st.mu.Unlock()
		if closed && !stillPending {
			return nil, ErrClosed
		}
		st.timeouts.Inc()
		if attempt == attempts-1 || st.s.Now() >= deadline {
			break
		}
		// Back off, still listening: the response may just be slow.
		wait = backoff
		if rem := deadline - st.s.Now(); rem < wait {
			wait = rem
		}
		if wait > 0 {
			if v, ok = p.RecvTimeout(reply, wait); ok {
				break
			}
		}
		if st.s.Now() >= deadline {
			break
		}
		st.retries.Inc()
		if hook := st.retryHook; hook != nil {
			hook(to, service, method)
		}
		backoff = pol.next(backoff)
	}
	if !ok {
		st.mu.Lock()
		_, stillPending := st.pending[id]
		delete(st.pending, id)
		closed := st.closed
		st.mu.Unlock()
		if closed && !stillPending {
			return nil, ErrClosed
		}
		if hook := st.timeoutHook; hook != nil {
			hook(to, service, method)
		}
		return nil, fmt.Errorf("%w: %s.%s on %s after %v", ErrTimeout, service, method, to, timeout)
	}
	st.recycle(reply)
	if h := st.callLatency; h != nil {
		h.ObserveDuration(st.s.Now() - begin)
	}
	resp := v.(*Message)
	if resp.Err != "" {
		if resp.Err == ErrNoService.Error() {
			return nil, fmt.Errorf("%w: %s on %s", ErrNoService, service, to)
		}
		// A shed is a definitive answer that arrived on time: count it
		// apart from timeouts so the two failure modes never alias in
		// the stats, and return without consuming retry budget.
		if strings.HasPrefix(resp.Err, ErrOverload.Error()) {
			st.sheds.Inc()
		}
		return nil, &RemoteError{Node: to, Msg: resp.Err}
	}
	return resp.Body, nil
}

// recycle returns the reply queue of a call that consumed its response
// to the free list.  Dispatch deleted the call's pending entry before
// putting that one response, so nothing can reach the queue again: not
// a late duplicate (dispatch finds no entry) and not Close (it closes
// only queues still pending).  A queue of a call that timed out, failed
// to send or met Close never comes here, because a late response may
// still land in it.  An open station also means the queue is not
// closed: Close marks the station closed, under st.mu, before it closes
// any queue.
func (st *Station) recycle(reply sched.Queue) {
	st.mu.Lock()
	if !st.closed {
		st.replies = append(st.replies, reply)
	}
	st.mu.Unlock()
}

// Post performs a one-sided invocation: the message is sent and forgotten
// (oinvoke, §4.5 — "no need to transfer back a result").
func (st *Station) Post(p sched.Proc, to, service, method string, body []byte) error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	st.nextID++
	id := st.nextID
	st.mu.Unlock()
	msg := &Message{
		From:    st.Node(),
		To:      to,
		Kind:    KindOneWay,
		ID:      id,
		Service: service,
		Method:  method,
		Body:    body,
	}
	st.oneway.Inc()
	st.bytesOut.Add(int64(msg.wireSize()))
	return st.ep.Send(p, to, msg)
}
