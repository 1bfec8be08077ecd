// Package shard implements the consistent-hash ring that partitions an
// object key space across S shard primaries.
//
// JavaSymphony (the paper) places and migrates individual objects;
// replication (PR 3) added read scaling for one hot object.  Shard
// groups add *write* scaling: keys are hashed onto a ring of virtual
// nodes, each owned by one shard, and every shard is an ordinary JS
// object — placed by the locality machinery, optionally carrying its
// own replica set, relocated with the standard migration protocol.
//
// Like internal/replica, this package is deliberately dependency-free
// (stdlib only): core layers the routing, handoff, and RMI plumbing on
// top, and the ring must not know about any of it.  Everything here is
// a pure function of (members, vnodes, key): FNV-1a over stable
// strings, sorted point lists, binary search — no maps iterated into
// effects, no randomness, no clocks — so two identically-seeded runs
// route identically (the jsvet determinism contract).
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is the number of ring points per member when the group
// spec does not set one.  128 points per shard keeps the expected
// per-shard key share within a few percent of 1/S for the shard counts
// this runtime targets (S ≤ 32).
const DefaultVnodes = 128

// point is one virtual node on the ring.
type point struct {
	h      uint64
	member string
}

// Ring is a consistent-hash ring over named members (shard names).
// The zero value is unusable; use New.  Ring is not goroutine-safe —
// callers (the core shard router) serialize access.
type Ring struct {
	vnodes  int
	members []string // sorted
	points  []point  // sorted by (h, member)
}

// New returns an empty ring with the given virtual-node count per
// member (DefaultVnodes if vnodes <= 0).
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes}
}

// Vnodes returns the per-member virtual-node count.
func (r *Ring) Vnodes() int { return r.vnodes }

// Members returns the member names in sorted order.  The slice is a
// copy.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Has reports whether member is on the ring.
func (r *Ring) Has(member string) bool {
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// Add places member's virtual nodes on the ring.  Adding an existing
// member is a no-op.  With K keys resident, adding the (S+1)-th member
// reassigns only the ~K/(S+1) keys whose nearest point becomes one of
// the new member's — no key moves between pre-existing members.
func (r *Ring) Add(member string) {
	if member == "" || r.Has(member) {
		return
	}
	i := sort.SearchStrings(r.members, member)
	r.members = append(r.members, "")
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = member
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{h: hash64(vnodeKey(member, v)), member: member})
	}
	sortPoints(r.points)
}

// Owner returns the member owning key: the member of the first ring
// point at or clockwise of hash(key).  Returns "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the highest point, the ring continues at the lowest
	}
	return r.points[i].member
}

// Clone returns an independent copy of the ring.  The rebalance path
// computes the post-join assignment on a clone, hands keys off, and
// only then publishes the new ring to the router.
func (r *Ring) Clone() *Ring {
	c := &Ring{vnodes: r.vnodes}
	c.members = append([]string(nil), r.members...)
	c.points = append([]point(nil), r.points...)
	return c
}

// vnodeKey is the stable string hashed for one virtual node.
func vnodeKey(member string, v int) string {
	return fmt.Sprintf("%s#%d", member, v)
}

// hash64 is FNV-1a over s, finalized with murmur3's 64-bit mixer —
// stable across processes and Go versions, unlike the runtime's seeded
// map hash.  Raw FNV-1a has no avalanche on short near-identical
// strings (the hashes of "kv#1#0".."kv#1#127" are consecutive), which
// collapses a ring of such names into one tight cluster per member and
// routes every key to a single shard; the finalizer restores uniform
// point spread.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// sortPoints orders points by hash, breaking (astronomically unlikely)
// hash ties by member name so the ring layout is a pure function of
// its membership.
func sortPoints(pts []point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].member < pts[j].member
	})
}
