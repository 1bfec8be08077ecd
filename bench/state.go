package main

import (
	"sync"

	"jsymphony"
)

// stateClass is the benchmark's own remote class, registered through
// the public API like any application class.
const stateClass = "bench.State"

func init() {
	jsymphony.RegisterClass(stateClass, 2048, func() any { return &State{} })
}

// State is a counter object.  Fields are exported so the object can be
// shipped (created remotely, migrated); methods lock because the
// runtime serves each invocation on its own proc.
type State struct {
	Seq   int
	Bumps int
	Data  []byte

	mu sync.Mutex
}

// Ping returns the next sequence number: a caller that sees every
// number exactly once knows no call was lost or run twice.
func (s *State) Ping() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Seq++
	return s.Seq
}

// Echo returns its argument.
func (s *State) Echo(p []byte) []byte { return p }

// Bump counts a one-sided invocation.
func (s *State) Bump() {
	s.mu.Lock()
	s.Bumps++
	s.mu.Unlock()
}

// Bumped reports how many Bumps have run.
func (s *State) Bumped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Bumps
}

// Grow gives the object n bytes of state to carry when it migrates.
func (s *State) Grow(n int) {
	s.mu.Lock()
	s.Data = make([]byte, n)
	s.mu.Unlock()
}

// Nop does nothing.
func (s *State) Nop() {}
