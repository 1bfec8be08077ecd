package heat

import (
	"fmt"
	"testing"
)

// TestExactUnderCapacity: below capacity the sketch is an exact
// counter.
func TestExactUnderCapacity(t *testing.T) {
	s := New(8)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			s.Touch(fmt.Sprintf("k%d", i))
		}
	}
	if s.Len() != 5 {
		t.Fatalf("len = %d", s.Len())
	}
	top := s.TopK(3)
	if len(top) != 3 || top[0].Key != "k4" || top[0].Count != 5 || top[0].Err != 0 {
		t.Fatalf("top = %+v", top)
	}
	if top[1].Key != "k3" || top[2].Key != "k2" {
		t.Fatalf("order = %+v", top)
	}
}

// TestEvictionErrorBound: an evicting newcomer inherits the minimum's
// count as its error, and counts stay upper bounds.
func TestEvictionErrorBound(t *testing.T) {
	s := New(2)
	s.Add("a", 10)
	s.Add("b", 3)
	s.Touch("c") // evicts b (min), inherits 3
	top := s.TopK(0)
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Key != "a" || top[0].Count != 10 {
		t.Fatalf("top = %+v", top)
	}
	if top[1].Key != "c" || top[1].Count != 4 || top[1].Err != 3 {
		t.Fatalf("evicting entry = %+v", top[1])
	}
}

// TestDeterministicTieBreak: equal counts evict and sort by key order,
// regardless of insertion order.
func TestDeterministicTieBreak(t *testing.T) {
	build := func(order []string) []Entry {
		s := New(3)
		for _, k := range order {
			s.Add(k, 2)
		}
		s.Touch("z") // all tied at 2: must evict the smallest key
		return s.TopK(0)
	}
	a := build([]string{"b", "c", "a"})
	b := build([]string{"c", "a", "b"})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %+v vs %+v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("insertion order leaked: %+v vs %+v", a, b)
		}
	}
	// "a" (smallest tied key) was evicted; z inherited its count.
	for _, e := range a {
		if e.Key == "a" {
			t.Fatalf("tie-break evicted the wrong key: %+v", a)
		}
	}
	if a[0].Key != "z" || a[0].Count != 3 {
		t.Fatalf("top = %+v", a)
	}
}

// TestHotKeySurvives: a genuinely hot key is never evicted even under
// heavy churn of cold keys through a tiny sketch.
func TestHotKeySurvives(t *testing.T) {
	s := New(4)
	for i := 0; i < 1000; i++ {
		s.Touch("hot")
		s.Touch(fmt.Sprintf("cold-%d", i))
	}
	top := s.TopK(1)
	if len(top) != 1 || top[0].Key != "hot" {
		t.Fatalf("hot key lost: %+v", top)
	}
	if top[0].Count < 1000 {
		t.Fatalf("hot count undercounted: %+v", top[0])
	}
}
