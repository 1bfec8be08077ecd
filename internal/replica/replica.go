// Package replica defines the policy, membership, and routing primitives
// of the object replication subsystem.
//
// JavaSymphony (the paper) keeps exactly one copy of every JS object; a
// hot object therefore funnels all sinvoke/ainvoke/oinvoke traffic to a
// single node and vanishes with it on a crash until checkpoint recovery
// runs.  This package is the forward extension on top of the paper's
// locality machinery: an application marks an object replicated with a
// Policy, the OAS materializes N read replicas spread across the virtual
// architecture, and invocations are routed by method class — reads to
// the nearest live replica, writes to the primary, which propagates them
// to the replica set.
//
// The package is deliberately dependency-free (stdlib only): core, nas,
// and the shell all import it, and it must not know about any of them.
// Distances and liveness arrive through the Metric callbacks, so the
// same router serves the simulated fabric and the in-process/TCP
// transports (where every node is equidistant and routing degrades to a
// deterministic round-robin).
package replica

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Mode selects how writes reach the replicas.
type Mode string

const (
	// Strong propagates every write synchronously to all replicas
	// before the write is acknowledged, and replicas serve reads only
	// under an unexpired lease (renewed from the primary on demand).
	// Reads never observe a value older than the last acknowledged
	// write.
	Strong Mode = "strong"
	// Eventual propagates writes with asynchronous one-way updates.
	// Replicas serve reads immediately; the staleness bound (time since
	// the state a replica serves left the primary) is surfaced on every
	// read in the invocation span.
	//
	// Ack contract: with MinSync == 0 (the default) an eventual-mode
	// write is acknowledged after it executes on the primary only —
	// propagation to the replicas is fire-and-forget.  If the primary
	// crashes inside the staleness window (after the ack, before any
	// replica received the update), the promoted survivor has never
	// seen the write and it is dropped from every surviving copy.
	// Setting MinSync: k closes that window for up to k-1 simultaneous
	// copy losses: the first k replicas (in sorted node order) receive
	// each write synchronously before the ack, so the freshest-survivor
	// election finds it as long as one synchronous copy outlives the
	// primary.  An acked write is durable against *any* combination of
	// crashes only under Strong, which propagates synchronously to all
	// replicas before acknowledging.
	Eventual Mode = "eventual"
)

// Valid reports whether m is a known mode.
func (m Mode) Valid() bool { return m == Strong || m == Eventual }

// DefaultLease is the strong-mode read lease granted to replicas when
// the policy does not set one.  It is sized well under the default NAS
// failure timeout so a replica cannot keep serving long after its
// primary died.
const DefaultLease = 250 * time.Millisecond

// Policy declares how an object is replicated.  The zero value means
// "not replicated".
//
// The Mode choice fixes the write-acknowledgement contract: Strong
// acks a write only after every replica has applied it (no acked write
// is lost to a primary crash); Eventual acks after primary execution
// alone, so a crash inside the staleness window can drop an acked
// write from every surviving copy — see the Mode constants.
type Policy struct {
	N     int           // number of read replicas (besides the primary)
	Mode  Mode          // Strong or Eventual
	Lease time.Duration // strong-mode read lease (default DefaultLease)
	Reads []string      // method names that are reads (routable to replicas)

	// MinSync, in Eventual mode, is the number of replicas that must
	// apply each write synchronously before it is acknowledged; the
	// remaining N-MinSync replicas receive it fire-and-forget as usual.
	// 0 (the default) keeps the pure fire-and-forget ack contract; N
	// makes every copy synchronous, matching Strong's durability while
	// keeping eventual-mode lease-free reads.  Ignored under Strong,
	// where all propagation is already synchronous.
	//
	// On a durability-enabled installation (core DurabilityOptions) a
	// synchronous copy is also a *logged* copy: each of the MinSync
	// replicas appends the write to its node's write-ahead log before
	// the ack, so MinSync = k means k logged copies and an acked write
	// survives even the simultaneous crash of every holder — a
	// whole-cluster restart replays it from the logs.
	MinSync int
}

// WithDefaults fills unset fields: mode defaults to Strong, the lease to
// DefaultLease.
func (p Policy) WithDefaults() Policy {
	if p.Mode == "" {
		p.Mode = Strong
	}
	if p.Lease <= 0 {
		p.Lease = DefaultLease
	}
	return p
}

// Validate rejects unusable policies.  Reads must be declared
// explicitly: the runtime cannot know which methods mutate, and routing
// a mutating method to a replica would fork the object's state.
func (p Policy) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("replica: N must be >= 1, got %d", p.N)
	}
	if !p.Mode.Valid() {
		return fmt.Errorf("replica: unknown mode %q", p.Mode)
	}
	if len(p.Reads) == 0 {
		return errors.New("replica: policy declares no read methods")
	}
	for _, m := range p.Reads {
		if m == "" {
			return errors.New("replica: empty read method name")
		}
	}
	if p.MinSync < 0 || p.MinSync > p.N {
		return fmt.Errorf("replica: MinSync must be in [0, N=%d], got %d", p.N, p.MinSync)
	}
	return nil
}

// IsRead reports whether method is declared read-only by the policy.
func (p Policy) IsRead(method string) bool {
	for _, m := range p.Reads {
		if m == method {
			return true
		}
	}
	return false
}

// String renders the policy the way the shell accepts it.
func (p Policy) String() string {
	s := fmt.Sprintf("n=%d mode=%s lease=%s reads=%s",
		p.N, p.Mode, p.Lease, strings.Join(p.Reads, ","))
	if p.MinSync > 0 {
		s += fmt.Sprintf(" minsync=%d", p.MinSync)
	}
	return s
}

// Set is the materialized replica set of one object: where the primary
// and the replicas currently live, plus the routing-relevant slice of
// the policy.  Sets cross the wire (directory registration, locate
// responses), so all fields are exported.
type Set struct {
	Primary  string        // node hosting the writable copy
	Replicas []string      // nodes hosting read replicas (sorted)
	Mode     Mode          //
	Lease    time.Duration //
	Reads    []string      // read-only methods, for caller-side routing
}

// Empty reports whether the set describes an unreplicated object.
func (s Set) Empty() bool { return len(s.Replicas) == 0 }

// Members returns primary plus replicas, primary first, replicas in
// their stored (sorted) order.
func (s Set) Members() []string {
	out := make([]string, 0, len(s.Replicas)+1)
	if s.Primary != "" {
		out = append(out, s.Primary)
	}
	return append(out, s.Replicas...)
}

// IsRead reports whether method is declared read-only by the set.
func (s Set) IsRead(method string) bool {
	for _, m := range s.Reads {
		if m == method {
			return true
		}
	}
	return false
}

// Spread picks up to want nodes from candidates, maximizing diversity
// over site(node) while preserving determinism: candidates keep their
// incoming order inside each site, sites are visited round-robin in
// order of first appearance.  This is how replicas are spread across
// virtual-architecture levels for fault isolation — losing one site
// loses at most ceil(want/sites) replicas.
func Spread(candidates []string, want int, site func(string) string) []string {
	if want <= 0 || len(candidates) == 0 {
		return nil
	}
	if site == nil {
		site = func(string) string { return "" }
	}
	var order []string // sites in order of first appearance
	groups := make(map[string][]string)
	for _, c := range candidates {
		s := site(c)
		if _, seen := groups[s]; !seen {
			order = append(order, s)
		}
		groups[s] = append(groups[s], c)
	}
	out := make([]string, 0, want)
	for len(out) < want {
		progressed := false
		for _, s := range order {
			g := groups[s]
			if len(g) == 0 {
				continue
			}
			out = append(out, g[0])
			groups[s] = g[1:]
			progressed = true
			if len(out) == want {
				break
			}
		}
		if !progressed {
			break // fewer candidates than want
		}
	}
	return out
}
