package core

import (
	"errors"
	"fmt"
	"time"

	"jsymphony/internal/nas"
	"jsymphony/internal/params"
	"jsymphony/internal/place"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/virtarch"
)

// placeState is the application's view of its installed placement
// hints: the static co-location groups plus the node each group has
// been pinned to at run time.  Caller holds a.mu for node map access.
type placeState struct {
	hints *place.Hints
	nodes map[int]string // group id -> node the group is pinned to
}

// InstallPlacementHints arms the static placement oracle for this
// application: subsequent tagged creations (NewObjectTagged) consult
// the hint groups before asking the directory.  The group containing
// the driver vertex is anchored to the application's home node; every
// other group is pinned to whatever node its first-created member
// lands on.  Installing nil disarms the oracle.
func (a *App) InstallPlacementHints(h *place.Hints) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if h == nil {
		a.place = nil
		return
	}
	a.place = &placeState{hints: h, nodes: make(map[int]string)}
	if gid, ok := h.MainGroup(); ok {
		a.place.nodes[gid] = a.rt.Node()
	}
	a.world.reg.Gauge("js_place_groups").Set(float64(len(h.Groups)))
}

// PlacementHints returns the installed hints, or nil.
func (a *App) PlacementHints() *place.Hints {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.place == nil {
		return nil
	}
	return a.place.hints
}

// NewObjectTagged creates an object of the given class at a tagged
// creation site — the hint-aware creation path of DESIGN.md §14.  site
// and idx identify the instance in the workload's static affinity
// graph (the same tag cmd/jsplace reads from the source), so the
// runtime can look up which co-location group it belongs to before the
// first RMI:
//
//   - comp == *virtarch.Node: explicit placement wins; hints ignored.
//   - hint hit, group already pinned: the creation carries the group's
//     co-location set (node.name == <group node>) into Select; if the
//     node is gone the selection falls back and the group re-pins to
//     the replacement (js_place_repins_total).
//   - hint hit, group not pinned yet: load-balanced selection seeds the
//     group's node (js_place_seeds_total).
//   - hint miss or no hints installed: load-only placement — the
//     spread/reserve fleet selection every untagged creation of a
//     worker fleet gets.
func (a *App) NewObjectTagged(p sched.Proc, site string, idx int, class string, comp virtarch.Component, constr *params.Constraints) (*Object, error) {
	if _, ok := a.world.registry.Lookup(class); !ok {
		return nil, fmt.Errorf("core: unknown class %q", class)
	}
	if n, ok := comp.(*virtarch.Node); ok {
		names := n.NodeNames()
		if len(names) == 0 {
			return nil, errors.New("core: placement node has been freed")
		}
		return a.createOn(p, class, comp, constr, names)
	}

	a.mu.Lock()
	ps := a.place
	gid, hinted := -1, false
	pinned := ""
	if ps != nil {
		if g, ok := ps.hints.Lookup(site, idx); ok {
			gid, hinted = g, true
			pinned = ps.nodes[g]
		} else {
			a.world.reg.Counter("js_place_misses_total").Inc()
		}
	}
	a.mu.Unlock()

	eff := constr
	if eff == nil {
		eff = a.world.DefaultConstraints()
	}
	opts := nas.SelectOpts{N: 1, Constr: eff, Spread: true, Reserve: true}
	if comp != nil {
		among := comp.NodeNames()
		if len(among) == 0 {
			return nil, errors.New("core: placement component has no nodes")
		}
		opts.Among = among
	}
	nodes, colocated, err := nas.SelectWithHint(p, a.rt.st, a.world.dirNode, pinned, opts)
	if err != nil {
		return nil, err
	}
	obj, err := a.createOn(p, class, comp, constr, nodes)
	if err != nil || !hinted {
		return obj, err
	}

	chosen, _ := obj.NodeName()
	a.mu.Lock()
	if a.place == ps && ps != nil {
		switch {
		case pinned == "":
			ps.nodes[gid] = chosen
			a.world.reg.Counter("js_place_seeds_total").Inc()
		case colocated && chosen == pinned:
			a.world.reg.Counter("js_place_hits_total").Inc()
		default:
			// The pinned node refused or died between selection and
			// creation: follow the object — later members of the group
			// co-locate with the survivors, not with a ghost.
			ps.nodes[gid] = chosen
			a.world.reg.Counter("js_place_repins_total").Inc()
		}
	}
	a.mu.Unlock()
	return obj, nil
}

// createOn runs the creation protocol against an ordered candidate
// list (the shared tail of NewObject and NewObjectTagged).
func (a *App) createOn(p sched.Proc, class string, comp virtarch.Component, constr *params.Constraints, candidates []string) (*Object, error) {
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return nil, errors.New("core: application is unregistered")
	}
	a.mu.Unlock()

	ref := a.newRef(class)
	var lastErr error
	for _, node := range candidates {
		body := rmi.MustMarshal(createReq{Ref: ref})
		_, err := a.rt.st.Call(p, node, PubService, "create", body, 10*time.Second)
		if err == nil {
			a.mu.Lock()
			a.objs[ref.ID] = &objEntry{ref: ref, location: node, comp: comp, constr: constr}
			a.mu.Unlock()
			return &Object{app: a, id: ref.ID}, nil
		}
		lastErr = err
		// A node without the class loaded is skipped — the next
		// candidate may have it (selective class loading, §4.3).
	}
	return nil, fmt.Errorf("core: could not create %q on any candidate node: %w", class, lastErr)
}
