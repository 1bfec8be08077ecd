// Package trace is the JRS event log: a bounded, concurrency-safe record
// of object-agent and installation events (creations, migrations,
// persistence, failures, takeovers).  The paper's JS-Shell observes a
// live installation; the trace gives that observability a queryable
// substrate — and gives tests a way to assert whole protocol sequences
// rather than just end states.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Kind classifies events.
type Kind string

// Event kinds emitted by the runtime.
const (
	AppRegistered   Kind = "app.registered"
	AppUnregistered Kind = "app.unregistered"
	ObjCreated      Kind = "obj.created"
	ObjMigrated     Kind = "obj.migrated"
	ObjStored       Kind = "obj.stored"
	ObjLoaded       Kind = "obj.loaded"
	ObjFreed        Kind = "obj.freed"
	ObjRecovered    Kind = "obj.recovered"
	CodebaseLoaded  Kind = "codebase.loaded"
	NodeFailed      Kind = "node.failed"
	NodeRecovered   Kind = "node.recovered"
	ManagerChanged  Kind = "manager.changed"

	// Fault-injection kinds: the chaos layer records every fault it
	// applies (ChaosFault) and every revert/heal (ChaosHeal).
	ChaosFault Kind = "chaos.fault"
	ChaosHeal  Kind = "chaos.heal"

	// Invocation-level kinds: the shell's event log covers calls, not
	// just lifecycle.
	ObjInvoked          Kind = "obj.invoked"
	CallTimeout         Kind = "call.timeout"
	CallRetry           Kind = "call.retry"
	AutoMigrateDecision Kind = "automigrate.decision"

	// Replication kinds (internal/replica): a set was materialized, a
	// surviving replica was promoted to primary, a member was dropped
	// (unreachable during strong propagation, or its node died).
	ReplicaCreated  Kind = "replica.created"
	ReplicaPromoted Kind = "replica.promoted"
	ReplicaDropped  Kind = "replica.dropped"

	// Shard-group kinds (internal/shard): a group was created, a new
	// shard joined and keys were handed off to it, shards were
	// migrated off a node.
	ShardGroupCreated Kind = "shard.created"
	ShardRebalanced   Kind = "shard.rebalanced"
	ShardEvacuated    Kind = "shard.evacuated"

	// SLOBreach marks a request class burning its error budget past the
	// engine's threshold (internal/slo); the flight recorder dumps on it.
	SLOBreach Kind = "slo.breach"

	// Overload kinds: a bounded invoke queue refused a call
	// (OverloadShed), or a shard router's admission controller changed
	// which client classes it drops (AdmissionLevel).
	OverloadShed   Kind = "overload.shed"
	AdmissionLevel Kind = "admission.level"
)

// Event is one record.
type Event struct {
	Seq    uint64        // global order
	At     time.Duration // scheduler time
	Kind   Kind
	Node   string // node the event concerns
	App    string // owning application ("" for installation events)
	Obj    uint64 // object id (0 if not object-scoped)
	Detail string // free-form context ("-> rachel", class name, ...)
}

// String renders one event as the shell prints it.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s  %-16s %-10s", e.At.Round(time.Millisecond), e.Kind, e.Node)
	if e.App != "" {
		fmt.Fprintf(&b, " %s", e.App)
		if e.Obj != 0 {
			fmt.Fprintf(&b, "/%d", e.Obj)
		}
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, "  %s", e.Detail)
	}
	return b.String()
}

// ring is the bounded buffer behind Log and SpanLog: it retains the
// last cap items pushed into it and walks them oldest-first.
type ring[T any] struct {
	mu    sync.Mutex
	cap   int
	buf   []T
	next  int
	count int
}

func newRing[T any](cap int) ring[T] {
	if cap < 1 {
		cap = 1
	}
	return ring[T]{cap: cap, buf: make([]T, cap)}
}

// push returns the slot the newest item goes in, which holds the oldest
// once the ring is full.  The caller stores into it in place: a span
// passed through by value would be copied twice.  Caller holds r.mu.
func (r *ring[T]) push() *T {
	slot := &r.buf[r.next]
	r.next = (r.next + 1) % r.cap
	if r.count < r.cap {
		r.count++
	}
	return slot
}

// collect walks the ring oldest-first under one lock acquisition and
// returns the items accepted by match (nil matches everything).
// Selective queries like Filter and ForObject avoid copying the whole
// ring into an intermediate slice just to discard most of it.
func (r *ring[T]) collect(match func(*T) bool) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []T
	start := r.next - r.count + r.cap
	for i := 0; i < r.count; i++ {
		v := &r.buf[(start+i)%r.cap]
		if match == nil || match(v) {
			out = append(out, *v)
		}
	}
	return out
}

// Len reports the number of retained items.
func (r *ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Log is a bounded ring of events.
type Log struct {
	ring[Event]
	seq uint64
}

// NewLog returns a log retaining the last cap events.
func NewLog(cap int) *Log { return &Log{ring: newRing[Event](cap)} }

// Emit records an event, stamping sequence number and keeping the ring
// bounded.
func (l *Log) Emit(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	*l.push() = e
}

// Events returns the retained events oldest-first.
func (l *Log) Events() []Event {
	return l.collect(nil)
}

// Filter returns retained events of one kind, oldest-first.
func (l *Log) Filter(kind Kind) []Event {
	return l.collect(func(e *Event) bool { return e.Kind == kind })
}

// String renders the whole retained log.
func (l *Log) String() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if b.Len() == 0 {
		return "(no events)\n"
	}
	return b.String()
}

// DefaultDepth is the number of events a world retains.
const DefaultDepth = 1024
