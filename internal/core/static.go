package core

import (
	"fmt"
	"time"

	"jsymphony/internal/nas"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
)

// Static objects implement the paper's announced extension (§7: "we are
// extending JavaSymphony to handle static methods and variables", the
// feature JavaParty already had).  Each class has at most one static
// instance per installation; its exported fields play the role of the
// class's static variables and its methods the static methods.  Every
// application resolves the same instance, hosted on a JRS-chosen node.
//
// The static manager lives on the directory node: service StaticService
// resolves (and lazily creates) static instances, and the companion
// "oas.app:static" service is their locate authority, so first-order
// refs to static objects work exactly like ordinary ones.

// StaticService is the RMI service name of the static-object manager.
const StaticService = "oas.static"

// staticApp is the pseudo application id owning all static instances.
const staticApp = "static"

// staticReq asks the manager for a class's static instance.
type staticReq struct {
	Class string
}

// staticResp carries the resolved handle.
type staticResp struct {
	Ref  Ref
	Node string
}

// staticManager runs on the directory node.
type staticManager struct {
	rt      *Runtime
	mu      *prioLock
	seq     uint64
	byClass map[string]staticResp
	byID    map[uint64]string // object id -> current node
}

// installStaticManager registers the static services on the directory
// node's runtime.
func installStaticManager(rt *Runtime) *staticManager {
	m := &staticManager{
		rt:      rt,
		mu:      newPrioLock(rt.world.s, "static.lock"),
		byClass: make(map[string]staticResp),
		byID:    make(map[uint64]string),
	}
	rt.st.Register(StaticService, staticMethods.Serve(m))
	rt.st.Register("oas.app:"+staticApp, staticLocateMethods.Serve(m))
	return m
}

// The static manager's two service tables (DESIGN.md §15).
var (
	staticMethods       = rmi.Methods[*staticManager]{"resolve": rmi.Typed((*staticManager).resolve)}
	staticLocateMethods = rmi.Methods[*staticManager]{"locate": rmi.Typed((*staticManager).locate)}
)

// locate answers where the static instance with req.ID lives.
func (m *staticManager) locate(p sched.Proc, req locateReq) (locateResp, error) {
	m.mu.lock(p, 0)
	node, ok := m.byID[req.ID]
	m.mu.unlock()
	return locateResp{Node: node, OK: ok}, nil
}

// resolve returns the static instance of req.Class, creating it on the
// best node that has the class loaded if this is the first use.
func (m *staticManager) resolve(p sched.Proc, req staticReq) (staticResp, error) {
	class := req.Class
	if _, ok := m.rt.world.registry.Lookup(class); !ok {
		return staticResp{}, fmt.Errorf("oas: unknown class %q", class)
	}
	m.mu.lock(p, 0)
	defer m.mu.unlock()
	if resp, ok := m.byClass[class]; ok {
		return resp, nil
	}
	// Pick candidates the way ordinary placement does.
	w := m.rt.world
	nodes, err := nas.SelectNodes(p, m.rt.st, w.dirNode, nas.SelectOpts{
		N: min(3, len(w.Nodes())), Constr: w.DefaultConstraints(),
	})
	if err != nil {
		nodes, err = nas.SelectNodes(p, m.rt.st, w.dirNode, nas.SelectOpts{N: 1})
		if err != nil {
			return staticResp{}, err
		}
	}
	m.seq++
	ref := Ref{App: staticApp, ID: m.seq, Class: class, Origin: m.rt.Node()}
	var lastErr error
	for _, node := range nodes {
		body := rmi.MustMarshal(createReq{Ref: ref})
		if _, err := m.rt.st.Call(p, node, PubService, "create", body, 10*time.Second); err != nil {
			lastErr = err
			continue
		}
		resp := staticResp{Ref: ref, Node: node}
		m.byClass[class] = resp
		m.byID[ref.ID] = node
		return resp, nil
	}
	return staticResp{}, fmt.Errorf("oas: could not host static %q: %w", class, lastErr)
}

// StaticRef resolves the static instance of a class (creating it on
// first use anywhere in the installation) and returns its first-order
// handle.
func (a *App) StaticRef(p sched.Proc, class string) (Ref, error) {
	resp, err := rmi.Ask[staticReq, staticResp](p, a.rt.st, a.world.dirNode, StaticService, "resolve",
		staticReq{Class: class}, 10*time.Second)
	return resp.Ref, err
}
