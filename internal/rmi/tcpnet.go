package rmi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"

	"jsymphony/internal/rmi/wire"
	"jsymphony/internal/sched"
)

// TCPNetwork runs the RMI protocol over real TCP sockets (loopback by
// default), demonstrating that the stack above needs nothing from the
// simulation: the same stations, agents, and object system work over a
// genuine wire.  Real scheduler only.
//
// An in-process name registry maps node names to listen addresses,
// standing in for the rmiregistry/DNS lookup a multi-host deployment
// would use.
type TCPNetwork struct {
	s    sched.Sched
	mu   sync.Mutex
	addr map[string]string // node name -> host:port
	eps  map[string]*tcpEndpoint
}

// NewTCP returns an empty TCP network using scheduler s (must be real).
func NewTCP(s sched.Sched) *TCPNetwork {
	if s.Virtual() {
		panic("rmi: TCP transport requires a real-time scheduler")
	}
	return &TCPNetwork{s: s, addr: make(map[string]string), eps: make(map[string]*tcpEndpoint)}
}

// Attach implements Network: it binds a listener on 127.0.0.1 and
// registers the node name.
func (n *TCPNetwork) Attach(node string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.eps[node]; dup {
		return nil, fmt.Errorf("rmi: node %q already attached", node)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("rmi: listen: %w", err)
	}
	ep := &tcpEndpoint{
		net:   n,
		node:  node,
		ln:    ln,
		queue: n.s.NewQueue("tcp:" + node),
		conns: make(map[string]*tcpConn),
	}
	n.addr[node] = ln.Addr().String()
	n.eps[node] = ep
	go ep.acceptLoop()
	return ep, nil
}

// lookup resolves a node name to its listen address.
func (n *TCPNetwork) lookup(node string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.addr[node]
	return a, ok
}

// maxTCPFrame bounds one frame so a corrupt or hostile length prefix
// cannot provoke an unbounded allocation.
const maxTCPFrame = 64 << 20

type tcpConn struct {
	mu   sync.Mutex
	c    net.Conn
	dead bool
}

// writeFrame sends one length-prefixed wire-encoded message.  The
// frame is assembled in a pooled buffer: steady state writes allocate
// nothing.  Caller holds conn.mu.
func (c *tcpConn) writeFrame(msg *Message) error {
	buf := wire.Buffers.Get()
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = msgWire.encode(buf, reflect.ValueOf(msg).Elem())
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	_, err := c.c.Write(buf)
	wire.Buffers.Put(buf)
	return err
}

// readFrame reads one frame and decodes it into a fresh message: the
// one place a Message comes from outside bytes, so the one place its
// Kind is checked.  The frame is the message's own, and Body aliases
// it.
func readFrame(r *bufio.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxTCPFrame {
		return nil, fmt.Errorf("%w: frame length %d", wire.ErrCorrupt, n)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	msg := new(Message)
	if err := msgWire.decode(frame, reflect.ValueOf(msg).Elem()); err != nil {
		return nil, err
	}
	if msg.Kind < KindRequest || msg.Kind > KindOneWay {
		return nil, fmt.Errorf("%w: message kind %d", wire.ErrCorrupt, msg.Kind)
	}
	return msg, nil
}

type tcpEndpoint struct {
	net   *TCPNetwork
	node  string
	ln    net.Listener
	queue sched.Queue

	mu     sync.Mutex
	conns  map[string]*tcpConn // outbound, by destination node
	closed bool
}

func (ep *tcpEndpoint) Node() string       { return ep.node }
func (ep *tcpEndpoint) Queue() sched.Queue { return ep.queue }

func (ep *tcpEndpoint) acceptLoop() {
	for {
		c, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go ep.readLoop(c)
	}
}

// readLoop decodes inbound frames from one connection into the queue.
func (ep *tcpEndpoint) readLoop(c net.Conn) {
	defer c.Close()
	r := bufio.NewReader(c)
	for {
		msg, err := readFrame(r)
		if err != nil {
			return
		}
		ep.mu.Lock()
		closed := ep.closed
		ep.mu.Unlock()
		if closed {
			return
		}
		ep.queue.Put(msg, 0)
	}
}

// Send implements Endpoint; connections are dialed lazily and reused.
func (ep *tcpEndpoint) Send(p sched.Proc, to string, msg *Message) error {
	if to == ep.node {
		// Loopback without touching the socket layer.
		ep.queue.Put(msg, 0)
		return nil
	}
	conn, err := ep.connTo(to)
	if err != nil {
		return err
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.dead {
		return fmt.Errorf("%w: connection to %q lost", ErrNoRoute, to)
	}
	if err := conn.writeFrame(msg); err != nil {
		conn.dead = true
		conn.c.Close()
		ep.mu.Lock()
		delete(ep.conns, to)
		ep.mu.Unlock()
		return fmt.Errorf("rmi: send to %q: %w", to, err)
	}
	return nil
}

func (ep *tcpEndpoint) connTo(to string) (*tcpConn, error) {
	ep.mu.Lock()
	if c, ok := ep.conns[to]; ok {
		ep.mu.Unlock()
		return c, nil
	}
	ep.mu.Unlock()

	addr, ok := ep.net.lookup(to)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRoute, to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rmi: dial %q: %w", to, err)
	}
	conn := &tcpConn{c: c}

	ep.mu.Lock()
	defer ep.mu.Unlock()
	if existing, ok := ep.conns[to]; ok {
		// Lost the dial race; use the winner.
		c.Close()
		return existing, nil
	}
	ep.conns[to] = conn
	return conn, nil
}

func (ep *tcpEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	conns := ep.conns
	ep.conns = make(map[string]*tcpConn)
	ep.mu.Unlock()

	ep.ln.Close()
	for _, c := range conns {
		c.c.Close()
	}
	ep.net.mu.Lock()
	delete(ep.net.eps, ep.node)
	delete(ep.net.addr, ep.node)
	ep.net.mu.Unlock()
	return nil
}
