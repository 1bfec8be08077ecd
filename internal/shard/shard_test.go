package shard

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	return keys
}

func TestRingDeterministic(t *testing.T) {
	build := func() *Ring {
		r := New(0)
		// Insertion order must not matter.
		for _, m := range []string{"s2", "s0", "s3", "s1"} {
			r.Add(m)
		}
		return r
	}
	a, b := build(), build()
	if got, want := a.Vnodes(), DefaultVnodes; got != want {
		t.Fatalf("vnodes = %d, want %d", got, want)
	}
	for _, k := range testKeys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %q: owners differ between identical rings: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
	c := New(0)
	for _, m := range []string{"s0", "s1", "s2", "s3"} {
		c.Add(m)
	}
	for _, k := range testKeys(500) {
		if a.Owner(k) != c.Owner(k) {
			t.Fatalf("key %q: owner depends on insertion order: %q vs %q", k, a.Owner(k), c.Owner(k))
		}
	}
}

func TestRingEmptyAndMembership(t *testing.T) {
	r := New(8)
	if r.Owner("anything") != "" {
		t.Fatal("empty ring must own nothing")
	}
	r.Add("s0")
	r.Add("s0") // duplicate add is a no-op
	if len(r.Members()) != 1 || !r.Has("s0") {
		t.Fatalf("size = %d, has(s0) = %v", len(r.Members()), r.Has("s0"))
	}
	if got := r.Owner("k"); got != "s0" {
		t.Fatalf("single-member ring owner = %q", got)
	}
}

func TestRingBalance(t *testing.T) {
	r := New(0)
	shards := []string{"s0", "s1", "s2", "s3"}
	for _, m := range shards {
		r.Add(m)
	}
	counts := make(map[string]int)
	keys := testKeys(4000)
	for _, k := range keys {
		counts[r.Owner(k)] += 1
	}
	for _, m := range shards {
		share := float64(counts[m]) / float64(len(keys))
		if share < 0.10 || share > 0.45 {
			t.Errorf("member %s owns %.1f%% of keys — ring badly unbalanced (%v)", m, 100*share, counts)
		}
	}
}

// TestRingMinimalDisruption is the consistent-hashing contract: growing
// S -> S+1 moves only the ~K/(S+1) keys claimed by the new member, and
// never shuffles a key between pre-existing members.
func TestRingMinimalDisruption(t *testing.T) {
	before := New(0)
	for _, m := range []string{"s0", "s1", "s2", "s3"} {
		before.Add(m)
	}
	after := before.Clone()
	after.Add("s4")

	keys := testKeys(4000)
	var moved []string
	for _, k := range keys {
		if before.Owner(k) != after.Owner(k) {
			moved = append(moved, k)
		}
	}
	for _, k := range moved {
		if after.Owner(k) != "s4" {
			t.Fatalf("key %q moved %q -> %q, not to the new member", k, before.Owner(k), after.Owner(k))
		}
	}
	frac := float64(len(moved)) / float64(len(keys))
	// Expect ~1/5 = 20%; allow generous slack for hash variance.
	if frac < 0.08 || frac > 0.35 {
		t.Errorf("grow moved %.1f%% of keys, want ~20%%", 100*frac)
	}
	// The clone must be independent: before is untouched.
	if before.Has("s4") || len(before.Members()) != 4 {
		t.Fatal("Clone aliases the original ring")
	}
}
