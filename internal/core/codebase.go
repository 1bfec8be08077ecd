package core

import (
	"errors"
	"fmt"
	"time"

	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/virtarch"
)

// Codebase is the application-side JSCodebase (§4.3): a collection of
// classes to be shipped onto virtual-architecture components before
// objects of those classes are created there — "only those components of
// a virtual architecture may store a class file that need it".
type Codebase struct {
	app     *App
	classes []string
	bytes   int
	freed   bool
}

// NewCodebase returns an empty codebase for the application.
func (a *App) NewCodebase() *Codebase {
	return &Codebase{app: a}
}

// Add appends a registered class (the analogue of adding a class file or
// Java archive; the modeled size comes from the registry).
func (cb *Codebase) Add(class string) error {
	if cb.freed {
		return errors.New("core: codebase has been freed")
	}
	c, ok := cb.app.world.registry.Lookup(class)
	if !ok {
		return fmt.Errorf("core: unknown class %q", class)
	}
	cb.classes = append(cb.classes, class)
	cb.bytes += c.Size
	return nil
}

// Load ships the codebase to every node of the component
// (codebase.load(node|cluster|site|domain)).  The archive bytes cross the
// wire as message padding, so the simulation charges the real transfer
// cost.  Loading stops at the first failing node.
func (cb *Codebase) Load(p sched.Proc, comp virtarch.Component) error {
	if cb.freed {
		return errors.New("core: codebase has been freed")
	}
	if len(cb.classes) == 0 {
		return nil
	}
	body := rmi.MustMarshal(codebaseReq{Classes: cb.classes})
	for _, node := range comp.NodeNames() {
		_, err := cb.app.rt.st.CallPadded(p, node, PubService, "loadCodebase",
			body, cb.bytes, 5*time.Minute)
		if err != nil {
			return fmt.Errorf("core: loading codebase onto %s: %w", node, err)
		}
	}
	return nil
}

// LoadNodes ships the codebase to an explicit node list (used by the
// shell and benchmarks).
func (cb *Codebase) LoadNodes(p sched.Proc, nodes ...string) error {
	if len(cb.classes) == 0 {
		return nil
	}
	body := rmi.MustMarshal(codebaseReq{Classes: cb.classes})
	for _, node := range nodes {
		_, err := cb.app.rt.st.CallPadded(p, node, PubService, "loadCodebase",
			body, cb.bytes, 5*time.Minute)
		if err != nil {
			return fmt.Errorf("core: loading codebase onto %s: %w", node, err)
		}
	}
	return nil
}

// Free releases the codebase object ("frees the codebase and associated
// memory"); classes already shipped to nodes stay loaded there.
func (cb *Codebase) Free() {
	cb.freed = true
	cb.classes = nil
	cb.bytes = 0
}
