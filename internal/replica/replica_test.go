package replica

import (
	"reflect"
	"testing"
	"time"
)

func TestPolicyDefaultsAndValidate(t *testing.T) {
	p := Policy{N: 2, Reads: []string{"Get"}}.WithDefaults()
	if p.Mode != Strong {
		t.Fatalf("default mode = %q, want strong", p.Mode)
	}
	if p.Lease != DefaultLease {
		t.Fatalf("default lease = %v, want %v", p.Lease, DefaultLease)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	bad := []Policy{
		{N: 0, Mode: Strong, Lease: time.Second, Reads: []string{"Get"}},
		{N: 1, Mode: "quorum", Lease: time.Second, Reads: []string{"Get"}},
		{N: 1, Mode: Strong, Lease: time.Second},
		{N: 1, Mode: Eventual, Lease: time.Second, Reads: []string{""}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted: %+v", i, p)
		}
	}
}

// members returns a Set whose members are nodes: the first is the
// primary, the rest its replicas.
func members(nodes ...string) Set {
	if len(nodes) == 0 {
		return Set{}
	}
	return Set{Primary: nodes[0], Replicas: nodes[1:]}
}

func TestSetMembers(t *testing.T) {
	// The members a router picks among are the primary and the replicas.
	s := Set{Primary: "node01", Replicas: []string{"node02", "node03"}, Reads: []string{"Get"}}
	r := NewRouter()
	var got []string
	for i := 0; i < 3; i++ {
		n, _ := r.Pick("k", "o", s, nil, Metric{})
		got = append(got, n)
	}
	if want := []string{"node01", "node02", "node03"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("members picked = %v, want %v", got, want)
	}
	if n, ok := r.Pick("k", "o", Set{Replicas: []string{"node02"}}, nil, Metric{}); !ok || n != "node02" {
		t.Fatalf("a set without a primary picked %q ok=%v, want node02", n, ok)
	}
	if s.Empty() || !(Set{}).Empty() {
		t.Fatal("Empty misreports")
	}
	if !s.IsRead("Get") || s.IsRead("Add") {
		t.Fatal("Set.IsRead misclassifies")
	}
}

func TestSpreadSiteDiversity(t *testing.T) {
	site := func(n string) string { return n[:1] } // a1,a2 -> site "a"
	cands := []string{"a1", "a2", "b1", "b2", "c1"}
	got := Spread(cands, 3, site)
	want := []string{"a1", "b1", "c1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Spread = %v, want %v", got, want)
	}
	// More wanted than sites: wraps round-robin, stays deterministic.
	got = Spread(cands, 5, site)
	want = []string{"a1", "b1", "c1", "a2", "b2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Spread wrap = %v, want %v", got, want)
	}
	// Fewer candidates than wanted: returns what exists.
	if got := Spread([]string{"a1"}, 3, site); !reflect.DeepEqual(got, []string{"a1"}) {
		t.Fatalf("Spread short = %v", got)
	}
	if Spread(nil, 3, site) != nil || Spread(cands, 0, site) != nil {
		t.Fatal("Spread edge cases not nil")
	}
}

func TestRouterNearestWins(t *testing.T) {
	lat := map[string]time.Duration{"near": 1 * time.Millisecond, "far": 8 * time.Millisecond}
	m := Metric{Latency: func(_, to string) time.Duration { return lat[to] }}
	r := NewRouter()
	for i := 0; i < 5; i++ {
		got, ok := r.Pick("k", "origin", members("far", "near"), nil, m)
		if !ok || got != "near" {
			t.Fatalf("pick %d = %q ok=%v, want near", i, got, ok)
		}
	}
}

func TestRouterRoundRobinInNearestBucket(t *testing.T) {
	// All equidistant (nil latency): the rotation must cycle the full
	// candidate list deterministically, in sorted-name order.
	r := NewRouter()
	var got []string
	for i := 0; i < 6; i++ {
		n, ok := r.Pick("obj", "o", members("b", "c", "a"), nil, Metric{})
		if !ok {
			t.Fatal("no pick")
		}
		got = append(got, n)
	}
	want := []string{"a", "b", "c", "a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotation = %v, want %v", got, want)
	}
	// Independent keys rotate independently.
	if n, _ := r.Pick("other", "o", members("b", "c", "a"), nil, Metric{}); n != "a" {
		t.Fatalf("fresh key starts at %q, want a", n)
	}
}

func TestRouterFilters(t *testing.T) {
	alive := map[string]bool{"a": true, "b": true, "c": false}
	m := Metric{Alive: func(n string) bool { return alive[n] }}
	r := NewRouter()
	n, ok := r.Pick("k", "o", members("a", "b", "c"), map[string]bool{"a": true}, m)
	if !ok || n != "b" {
		t.Fatalf("pick = %q ok=%v, want b (a avoided, c dead)", n, ok)
	}
	if _, ok := r.Pick("k", "o", members("c"), nil, m); ok {
		t.Fatal("picked a dead node")
	}
	if _, ok := r.Pick("k", "o", Set{}, nil, m); ok {
		t.Fatal("picked from an empty set")
	}
}

func TestRouterBandwidthTieBreak(t *testing.T) {
	// Equal latency, different bandwidth: higher wins the head slot of
	// the rotation.
	bw := map[string]float64{"thin": 1e6, "fat": 1e9}
	m := Metric{Bandwidth: func(_, to string) float64 { return bw[to] }}
	r := NewRouter()
	if n, _ := r.Pick("k", "o", members("thin", "fat"), nil, m); n != "fat" {
		t.Fatalf("first pick = %q, want fat", n)
	}
}
