// Package codebase reproduces JavaSymphony's selective remote class
// loading (paper §4.3) under Go's constraint that code cannot be loaded
// at runtime.
//
// In the paper, a JSCodebase collects Java archives and class files and
// ships them — before any object is created — to exactly the virtual
// architecture components that need them, reducing per-node memory and
// transfer cost relative to replicating everything everywhere.
//
// The Go substitution (documented in DESIGN.md): every class is compiled
// into the binary and registered in a Registry (name → factory + modeled
// byte-code size).  What is *shipped* to a node is the authorization to
// instantiate: a node's Store holds the set of loaded class names and
// accounts for their bytes; instantiating an unloaded class fails exactly
// like a ClassNotFoundException; and the transfer itself crosses the
// (possibly simulated) wire with the archive's modeled size, so the
// paper's footprint/transfer trade-off stays measurable.
package codebase

import (
	"fmt"
	"sort"
	"sync"

	"jsymphony/internal/rmi"
)

// Class describes one registered class.
type Class struct {
	Name    string     // fully qualified class name, e.g. "Matrix"
	Size    int        // modeled .class/.jar contribution in bytes
	Factory func() any // returns a new zero-value instance (a pointer)
}

// Registry maps class names to their definitions.  A Registry plays the
// role of the compiled code available to the whole installation; Stores
// (per node) hold what has actually been loaded where.
type Registry struct {
	mu      sync.RWMutex
	classes map[string]Class
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{classes: make(map[string]Class)}
}

// Register adds a class definition.  The factory must return a pointer to
// a fresh zero value; the instance type is also registered with the rmi
// codec (rmi.RegisterType), which derives its layout so objects of the
// class can migrate, persist, and cross inside []any values.  Registering
// a name twice panics: class identity must be stable across an
// application.
func (r *Registry) Register(name string, size int, factory func() any) {
	if factory == nil {
		panic("codebase: nil factory for class " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.classes[name]; dup {
		panic("codebase: duplicate class " + name)
	}
	r.classes[name] = Class{Name: name, Size: size, Factory: factory}
	rmi.RegisterType(factory())
}

// Lookup returns the class definition for name.
func (r *Registry) Lookup(name string) (Class, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.classes[name]
	return c, ok
}

// Names returns all registered class names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.classes))
	for n := range r.classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default is the process-wide registry used by the public jsymphony API,
// mirroring the CLASSPATH of a Java installation.
var Default = NewRegistry()

// Register adds a class to the Default registry.
func Register(name string, size int, factory func() any) {
	Default.Register(name, size, factory)
}

// Store is one node's set of loaded classes.
type Store struct {
	registry *Registry
	mu       sync.Mutex
	loaded   map[string]bool
}

// NewStore returns an empty store over the given registry.
func NewStore(r *Registry) *Store {
	return &Store{registry: r, loaded: make(map[string]bool)}
}

// Load marks the named classes as available on this node and returns the
// number of newly loaded bytes (zero for classes already present, as a
// re-shipped archive replaces rather than duplicates).
func (s *Store) Load(names ...string) (newBytes int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range names {
		c, ok := s.registry.Lookup(n)
		if !ok {
			return newBytes, fmt.Errorf("codebase: unknown class %q", n)
		}
		if s.loaded[n] {
			continue
		}
		s.loaded[n] = true
		newBytes += int64(c.Size)
	}
	return newBytes, nil
}

// ErrNotLoaded is the sentinel message for instantiation of a class that
// was never loaded onto the node (Java's ClassNotFoundException).  It is
// matched by string across the RMI boundary.
const ErrNotLoaded = "class not loaded on node"

// Loaded fails, with the error New would return, unless the named class
// has been loaded onto this node.
func (s *Store) Loaded(name string) error {
	s.mu.Lock()
	ok := s.loaded[name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%s: %q", ErrNotLoaded, name)
	}
	return nil
}

// New instantiates the named class, failing if it has not been loaded
// onto this node.
func (s *Store) New(name string) (any, error) {
	if err := s.Loaded(name); err != nil {
		return nil, err
	}
	c, found := s.registry.Lookup(name)
	if !found {
		return nil, fmt.Errorf("codebase: class %q vanished from registry", name)
	}
	return c.Factory(), nil
}
