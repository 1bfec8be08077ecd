// Package heat tracks per-key request heat with the space-saving
// top-K sketch (Metwally et al.): a bounded table of (key, count,
// error) entries where an untracked key evicts the current minimum and
// inherits its count as error bound.  The sketch guarantees every key
// with true frequency above count(min) is present, which is exactly
// the "find the hot keys in a skewed key space" question the shard
// adaptive-load path asks.
//
// Determinism: eviction picks the minimum by (count asc, key asc) —
// a total order independent of map iteration — and TopK sorts by
// (count desc, key asc), so two identically-seeded runs publish
// byte-identical heat tables.
package heat

import "sort"

// Entry is one tracked key.
type Entry struct {
	Key   string `json:"key"`
	Count int64  `json:"count"` // estimated frequency (upper bound)
	Err   int64  `json:"err"`   // overestimation bound (0 = exact)
}

// Sketch is a bounded space-saving counter table.  Not concurrency
// safe; callers hold their own lock (the shard group uses g.mu).
type Sketch struct {
	cap     int
	entries map[string]*Entry
}

// DefaultCapacity is the per-shard tracked-key budget.
const DefaultCapacity = 64

// New returns a sketch tracking at most capacity keys
// (DefaultCapacity when <= 0).
func New(capacity int) *Sketch {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Sketch{cap: capacity, entries: make(map[string]*Entry, capacity)}
}

// Touch is Add(key, 1).
func (s *Sketch) Touch(key string) { s.Add(key, 1) }

// Add accounts n hits of key.
func (s *Sketch) Add(key string, n int64) {
	if n <= 0 {
		return
	}
	if e, ok := s.entries[key]; ok {
		e.Count += n
		return
	}
	if len(s.entries) < s.cap {
		s.entries[key] = &Entry{Key: key, Count: n}
		return
	}
	// Evict the minimum — deterministically: smallest count, ties by
	// smallest key.  The newcomer inherits the evicted count as its
	// error bound (it may have been seen up to that often before).
	var min *Entry
	for _, e := range s.entries {
		if min == nil || e.Count < min.Count || (e.Count == min.Count && e.Key < min.Key) {
			min = e
		}
	}
	delete(s.entries, min.Key)
	s.entries[key] = &Entry{Key: key, Count: min.Count + n, Err: min.Count}
}

// Len reports how many keys are tracked.
func (s *Sketch) Len() int { return len(s.entries) }

// TopK returns the k hottest tracked keys, sorted by (count desc, key
// asc); k <= 0 returns all tracked keys.
func (s *Sketch) TopK(k int) []Entry {
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
