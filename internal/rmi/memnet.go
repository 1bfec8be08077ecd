package rmi

import (
	"fmt"
	"sync"
	"time"

	"jsymphony/internal/sched"
)

// MemNetwork is an in-process transport: every endpoint's queue lives in
// one registry and Send is a direct enqueue with a fixed configurable
// latency.  It is the substrate of real-time single-machine runs
// (NewLocalEnv) and never loses a message: loss, duplication and
// reordering are injected on the simulated fabric (simnet.LinkPolicy).
type MemNetwork struct {
	s       sched.Sched
	latency time.Duration

	mu  sync.Mutex
	eps map[string]*memEndpoint
}

// NewMem returns an in-process network with the given one-way latency.
func NewMem(s sched.Sched, latency time.Duration) *MemNetwork {
	return &MemNetwork{s: s, latency: latency, eps: make(map[string]*memEndpoint)}
}

// Attach implements Network.
func (n *MemNetwork) Attach(node string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.eps[node]; dup {
		return nil, fmt.Errorf("rmi: node %q already attached", node)
	}
	ep := &memEndpoint{
		net:   n,
		node:  node,
		queue: n.s.NewQueue("mem:" + node),
	}
	n.eps[node] = ep
	return ep, nil
}

type memEndpoint struct {
	net   *MemNetwork
	node  string
	queue sched.Queue
}

func (ep *memEndpoint) Node() string       { return ep.node }
func (ep *memEndpoint) Queue() sched.Queue { return ep.queue }

func (ep *memEndpoint) Send(p sched.Proc, to string, msg *Message) error {
	ep.net.mu.Lock()
	dst, ok := ep.net.eps[to]
	ep.net.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoRoute, to)
	}
	dst.queue.Put(msg, ep.net.latency)
	return nil
}

func (ep *memEndpoint) Close() error {
	ep.net.mu.Lock()
	delete(ep.net.eps, ep.node)
	ep.net.mu.Unlock()
	return nil
}
