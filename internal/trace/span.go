package trace

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// SpanKind classifies how an invocation was issued.
type SpanKind string

// Invocation kinds, mirroring the paper's three remote-call flavors,
// plus the causal-DAG kinds observability v2 adds.
const (
	SpanSync   SpanKind = "sync"   // SInvoke: caller blocks for the result
	SpanAsync  SpanKind = "async"  // AInvoke: result claimed via handle
	SpanOneway SpanKind = "oneway" // OInvoke: fire-and-forget

	// SpanRetry records one failed invocation attempt; its Cause edge
	// points at the span of the request the attempt belonged to.
	SpanRetry SpanKind = "retry"
	// SpanPropagate records one primary→replica write-propagation hop;
	// its Cause edge points at the span of the write that triggered it.
	SpanPropagate SpanKind = "prop"
)

// Span is one remote (or local fast-path) method invocation, decomposed
// the way the critical-path analyzer needs it:
//
//	Queue     — scheduler time spent before the *first* attempt was
//	            issued (entry lookup, routing decisions)
//	Retry     — time between the first and the final attempt: locate
//	            round trips, busy/moved deflections, backoff sleeps
//	Service   — time the method body ran at the target
//	LeaseWait — time the serving replica spent renewing an expired
//	            strong-mode lease before it could serve the read
//	Durability — time a durable write stalled for its group commit (the
//	            simulated fsync) before the ack could be sent
//	Wire      — remaining round-trip time: serialization, the simulated
//	            fabric, and dispatch queuing at the target station
//
// The six segments sum to the span's end-to-end latency by
// construction, so the analyzer can attribute all of it to named
// segments.
//
// Spans form a causal DAG.  Parent links synchronous nesting: a method
// that invokes further objects stamps its own span id on the outgoing
// calls, so chains survive object migration and remote-agent hops.
// Cause links asynchronous causality that is not nesting: a SpanRetry
// is caused by the request whose attempt failed, a SpanPropagate by
// the write whose state it ships.  All times come from the scheduler
// clock, so spans are deterministic on a simulated installation.
type Span struct {
	ID     uint64
	Parent uint64 // 0 for root spans
	// Cause is the span that causally triggered this one without being
	// its synchronous parent (retries, write propagation); 0 otherwise.
	Cause  uint64
	App    string
	Obj    uint64
	Method string
	Origin string // node that issued the call
	Target string // node that served it
	Kind   SpanKind
	// Class is the request class for SLO accounting ("read", "write",
	// ...); "" for unclassified internal traffic.
	Class      string
	Start      time.Duration // scheduler time the operation began
	Queue      time.Duration
	Retry      time.Duration
	Service    time.Duration
	LeaseWait  time.Duration
	Durability time.Duration
	Wire       time.Duration
	// Staleness bounds how old the state that served a replicated read
	// was (eventual-mode replicas report time since the state left the
	// primary; 0 everywhere else, including strong-lease reads).
	Staleness time.Duration
	// Shard names the shard member that served a shard-group routed
	// invocation ("" for plain object calls).
	Shard string
	Err   string // "" on success
}

// Total is the span's end-to-end latency.
func (s Span) Total() time.Duration {
	return s.Queue + s.Retry + s.Service + s.LeaseWait + s.Durability + s.Wire
}

// String renders one span as the shell prints it.
func (s Span) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s  #%-5d %-6s %s/%d.%s  %s->%s  total=%s queue=%s service=%s wire=%s",
		s.Start.Round(time.Microsecond), s.ID, s.Kind, s.App, s.Obj, s.Method,
		s.Origin, s.Target,
		s.Total().Round(time.Microsecond), s.Queue.Round(time.Microsecond),
		s.Service.Round(time.Microsecond), s.Wire.Round(time.Microsecond))
	if s.Retry > 0 {
		fmt.Fprintf(&b, " retry=%s", s.Retry.Round(time.Microsecond))
	}
	if s.LeaseWait > 0 {
		fmt.Fprintf(&b, " lease=%s", s.LeaseWait.Round(time.Microsecond))
	}
	if s.Durability > 0 {
		fmt.Fprintf(&b, " durability=%s", s.Durability.Round(time.Microsecond))
	}
	if s.Staleness > 0 {
		fmt.Fprintf(&b, " stale=%s", s.Staleness.Round(time.Microsecond))
	}
	if s.Shard != "" {
		fmt.Fprintf(&b, " shard=%s", s.Shard)
	}
	if s.Class != "" {
		fmt.Fprintf(&b, " class=%s", s.Class)
	}
	if s.Parent != 0 {
		fmt.Fprintf(&b, " parent=#%d", s.Parent)
	}
	if s.Cause != 0 {
		fmt.Fprintf(&b, " cause=#%d", s.Cause)
	}
	if s.Err != "" {
		fmt.Fprintf(&b, " err=%s", s.Err)
	}
	return b.String()
}

// SpanLog is a bounded ring of completed spans, sharing the Log's
// retention discipline.  NextID is safe to call from any proc; Record
// stamps nothing — the caller owns the whole span.
type SpanLog struct {
	ring[Span]
	ids atomic.Uint64
}

// NewSpanLog returns a span log retaining the last cap spans.
func NewSpanLog(cap int) *SpanLog { return &SpanLog{ring: newRing[Span](cap)} }

// NextID allocates a fresh span id (never 0).
func (l *SpanLog) NextID() uint64 { return l.ids.Add(1) }

// Record appends a completed span.
func (l *SpanLog) Record(s Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	*l.push() = s
}

// Spans returns the retained spans oldest-first.
func (l *SpanLog) Spans() []Span { return l.collect(nil) }

// ForApp returns retained spans for one application.
func (l *SpanLog) ForApp(app string) []Span {
	return l.collect(func(s *Span) bool { return s.App == app })
}

// ForObject returns retained spans for one object.
func (l *SpanLog) ForObject(app string, obj uint64) []Span {
	return l.collect(func(s *Span) bool { return s.App == app && s.Obj == obj })
}

// DefaultSpanDepth is the number of spans a world retains.
const DefaultSpanDepth = 4096
