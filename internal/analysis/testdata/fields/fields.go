// Package fields is the fixture of TestSurfaceFieldsResolve.  Each field
// of the first half is read and set only in a way a naive audit misses;
// each of the second half is a true finding.
package fields

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"fixtures/fields/core"
)

// key is a map key: equality reads its fields.
type key struct{ a, b int }

var seen = map[key]bool{}

func Mark(a, b int) { seen[key{a, b}] = true }

// ring is generic: its uses select the instantiated field.
type ring[T any] struct{ buf []T }

func (r *ring[T]) push(v T) { r.buf = append(r.buf, v) }
func (r *ring[T]) first() T { return r.buf[0] }

func Ring() int {
	var r ring[int]
	r.push(1)
	return r.first()
}

// Dump is a JSON document: encoding/json reads its fields and those of
// every type it reaches.
type Dump struct {
	At     int     `json:"at"`
	Events []Entry `json:"events"`
}

type Entry struct{ Seq int }

func Encode() ([]byte, error) {
	return json.Marshal(Dump{At: 1, Events: []Entry{{Seq: 1}}})
}

// counters' fields are used only through pointer methods, &x.f,
// slicing and index assignment, each of which sets its field.
type counters struct {
	mu     sync.Mutex
	n      atomic.Int64
	hits   int
	slots  [4]int
	byName map[string]int
}

func inc(p *int) { *p++ }

func sum(s []int) int { return len(s) }

func (c *counters) Bump(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n.Add(1)
	inc(&c.hits)
	c.byName[name] = 1
	return c.byName[name] + sum(c.slots[:])
}

// guarded embeds its mutex: the promoted Lock sets it.
type guarded struct {
	sync.Mutex
	v int
}

func (g *guarded) Next() int {
	g.Lock()
	defer g.Unlock()
	g.v++
	return g.v
}

// Tape's written is only ever added to, and its Label only ever given
// in a composite literal: neither is read.
type Tape struct {
	written int
	Label   string
}

func (t *Tape) Write(p []byte) { t.written += len(p) }

var tape = &Tape{Label: "fixture"}

// EnvOptions.Cost is set nowhere, so core.Options.Cost, which only ever
// takes it, is set nowhere either.  Seed is set, and passes through.
type EnvOptions struct {
	Cost int
	Seed int
}

func (o EnvOptions) core() core.Options { return core.Options{Cost: o.Cost, Seed: o.Seed} }

func Start() int { return core.Run(EnvOptions{Seed: 7}.core()) }
