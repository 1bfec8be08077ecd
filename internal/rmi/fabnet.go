package rmi

import (
	"fmt"
	"sync"

	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
)

// CostModel parameterizes the CPU cost of an RMI on the simulated
// cluster.  Serialization and protocol work are charged to the sending
// machine's CPU in floating-point-operation equivalents, so they scale
// with machine speed and compete with application computation — a JDK
// 1.2-era RMI on a slow Sparcstation really did cost milliseconds.
type CostModel struct {
	PerMsgFlops  float64 // fixed per-message protocol + dispatch cost
	PerByteFlops float64 // marshalling cost per payload byte
}

// DefaultCost reproduces paper-era Java RMI overheads.  The whole cost of
// a message (marshalling at both ends plus protocol work) is charged at
// the sender: on a Sun Ultra 10/300 (25 Java-effective MFlop/s) a small
// message costs ~1 ms of CPU, so a null round trip is ~2-3 ms, and
// object serialization streams at ~12 MB/s there — both consistent with
// JDK 1.2 measurements; a Sparcstation 10/40 pays roughly 10x.
var DefaultCost = CostModel{PerMsgFlops: 25_000, PerByteFlops: 2}

// flops returns the CPU charge for a message with the given payload size.
func (c CostModel) flops(bytes int) float64 {
	return c.PerMsgFlops + c.PerByteFlops*float64(bytes)
}

// FabNetwork runs messages over a simnet fabric: the sender is charged
// serialization CPU on its machine, the wire charges NIC queueing,
// transmission, and propagation time, and the receiving station drains
// the machine's inbox.  Virtual scheduler only.
type FabNetwork struct {
	fab  *simnet.Fabric
	cost CostModel

	mu  sync.Mutex
	eps map[string]*fabEndpoint
}

// NewFab adapts a simnet fabric into an rmi Network.
func NewFab(fab *simnet.Fabric, cost CostModel) *FabNetwork {
	return &FabNetwork{fab: fab, cost: cost, eps: make(map[string]*fabEndpoint)}
}

// Attach implements Network; node must name a fabric machine.
func (n *FabNetwork) Attach(node string) (Endpoint, error) {
	m, ok := n.fab.ByName(node)
	if !ok {
		return nil, fmt.Errorf("rmi: no machine %q in fabric", node)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.eps[node]; dup {
		return nil, fmt.Errorf("rmi: node %q already attached", node)
	}
	ep := &fabEndpoint{
		net:   n,
		m:     m,
		queue: m.Inbox(),
	}
	n.eps[node] = ep
	return ep, nil
}

type fabEndpoint struct {
	net   *FabNetwork
	m     *simnet.Machine
	queue sched.Queue
}

func (ep *fabEndpoint) Node() string       { return ep.m.Name() }
func (ep *fabEndpoint) Queue() sched.Queue { return ep.queue }

func (ep *fabEndpoint) Send(p sched.Proc, to string, msg *Message) error {
	dst, ok := ep.net.fab.ByName(to)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoRoute, to)
	}
	size := msg.wireSize()
	// Serialization and protocol CPU, charged to the sending machine
	// under processor sharing (competes with application computation).
	if a := sched.Actor(p); a != nil {
		ep.m.Compute(a, ep.net.cost.flops(size))
	}
	ep.m.Send(dst, size, msg)
	return nil
}

func (ep *fabEndpoint) Close() error {
	ep.net.mu.Lock()
	delete(ep.net.eps, ep.m.Name())
	ep.net.mu.Unlock()
	return nil
}
