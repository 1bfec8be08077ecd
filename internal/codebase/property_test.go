package codebase

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Property: the bytes a store's loads report add up to the sum of the
// sizes of its loaded classes, under any sequence of loads and reloads.
func TestStoreBytesInvariant(t *testing.T) {
	r := NewRegistry()
	names := make([]string, 8)
	sizes := map[string]int{}
	for i := range names {
		names[i] = fmt.Sprintf("C%d", i)
		size := 128 << i
		sizes[names[i]] = size
		r.Register(names[i], size, func() any { return &widget{} })
	}
	f := func(ops []byte) bool {
		s := NewStore(r)
		var loaded int64
		for _, op := range ops {
			n, err := s.Load(names[int(op)%len(names)])
			if err != nil {
				return false
			}
			loaded += n
			var sum int64
			for c := range s.loaded {
				sum += int64(sizes[c])
			}
			if loaded != sum {
				return false
			}
			for c := range s.loaded {
				if _, err := s.New(c); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: New succeeds exactly for loaded classes and always returns a
// fresh instance.
func TestStoreNewProperty(t *testing.T) {
	r := NewRegistry()
	r.Register("W", 64, func() any { return &widget{} })
	f := func(load bool) bool {
		s := NewStore(r)
		if load {
			s.Load("W")
		}
		obj, err := s.New("W")
		if load != (err == nil) {
			return false
		}
		if err == nil {
			obj2, _ := s.New("W")
			if obj == obj2 {
				return false // must be distinct instances
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
