package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"jsymphony/internal/nas"
	"jsymphony/internal/params"
	"jsymphony/internal/sched"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
)

// Automatic object migration (paper §5.2): the runtime periodically
// re-checks the creation constraints of every activated virtual
// architecture; objects sitting on nodes that no longer satisfy them are
// migrated to nodes that do, preferring — to maintain locality — another
// node in the same cluster, then the same site, then anywhere in the
// domain.  The JS-Shell enables and disables this mode globally
// (World.SetAutoMigration).

// setAutoPeriod reconfigures the application's migration engine.  A
// period of zero stops it.
func (a *App) setAutoPeriod(period time.Duration) {
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.autoGen++
	gen := a.autoGen
	a.mu.Unlock()
	if period <= 0 {
		return
	}
	a.world.s.Spawn("oas.automigrate:"+a.id, func(p sched.Proc) {
		a.autoMigrateLoop(p, gen, period)
	})
}

// stopEngine halts the migration engine (world shutdown).
func (a *App) stopEngine() {
	a.mu.Lock()
	a.autoGen++
	a.mu.Unlock()
}

// autoMigrateLoop is one generation of the engine.
func (a *App) autoMigrateLoop(p sched.Proc, gen int, period time.Duration) {
	for {
		p.Sleep(period)
		a.mu.Lock()
		stale := a.done || a.autoGen != gen
		a.mu.Unlock()
		if stale {
			return
		}
		a.autoMigrateOnce(p)
	}
}

// autoMigrateOnce performs one examination round.
func (a *App) autoMigrateOnce(p sched.Proc) {
	a.mu.Lock()
	vas := append([]*appVA(nil), a.vas...)
	a.mu.Unlock()

	for _, va := range vas {
		constr := va.constr
		if constr == nil {
			constr = a.world.DefaultConstraints()
		}
		if constr == nil || constr.Len() == 0 {
			continue // nothing to verify for this architecture
		}
		violated := a.violatedNodes(p, va.domain, constr)
		if len(violated) == 0 {
			continue
		}
		names := make([]string, 0, len(violated))
		for n := range violated {
			names = append(names, n)
		}
		sort.Strings(names)
		a.world.emit(trace.Event{Kind: trace.AutoMigrateDecision, Node: a.rt.Node(), App: a.id,
			Detail: "evacuating " + strings.Join(names, ",")})
		a.evacuate(p, va, constr, violated)
	}
}

// violatedNodes returns the architecture nodes whose current parameters
// no longer satisfy the constraints.
func (a *App) violatedNodes(p sched.Proc, d *virtarch.Domain, constr *params.Constraints) map[string]bool {
	out := make(map[string]bool)
	for _, name := range d.NodeNames() {
		snap, err := a.rt.agent.FetchSnapshot(p, name)
		if err != nil {
			out[name] = true // unresponsive counts as violating
			continue
		}
		if !constr.Eval(snap) {
			out[name] = true
		}
	}
	return out
}

// evacuate migrates every application object hosted on a violating node
// to the nearest satisfying node: same cluster, then same site, then the
// whole domain (§5.2's locality-preserving search order).
func (a *App) evacuate(p sched.Proc, va *appVA, constr *params.Constraints, violated map[string]bool) {
	// Evacuate in ascending object-id order: each migration emits
	// events and can shift the load findRefuge sees for the next one,
	// so map iteration order would make same-seed runs diverge.
	a.mu.Lock()
	ids := make([]uint64, 0, len(a.objs))
	for id, e := range a.objs {
		if !e.freed && violated[e.location] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	entries := make([]*objEntry, 0, len(ids))
	for _, id := range ids {
		entries = append(entries, a.objs[id])
	}
	a.mu.Unlock()

	for _, e := range entries {
		// Replica anti-affinity: never migrate a primary onto a node
		// already hosting one of its replica-set members — the set would
		// lose a fault domain, and the member's replica-role state would
		// collide with the arriving primary.
		avoid := map[string]bool{}
		a.mu.Lock()
		for _, n := range e.replicas {
			avoid[n] = true
		}
		src := e.location
		a.mu.Unlock()
		dest, ok := a.findRefuge(p, va.domain, src, constr, violated, avoid)
		if !ok {
			continue // nowhere satisfies; better to stay than thrash
		}
		_ = a.migrateEntry(p, e, dest)
	}
}

// findRefuge picks the locality-nearest node satisfying constr and not
// in avoid (the entry's replica-set members).
func (a *App) findRefuge(p sched.Proc, d *virtarch.Domain, from string, constr *params.Constraints, violated, avoid map[string]bool) (string, bool) {
	var sameCluster, sameSite, anywhere []string
	for _, site := range d.Sites() {
		siteHasFrom := false
		var siteNodes []string
		for _, cl := range site.Clusters() {
			names := cl.NodeNames()
			clusterHasFrom := false
			for _, n := range names {
				if n == from {
					clusterHasFrom = true
					siteHasFrom = true
				}
			}
			siteNodes = append(siteNodes, names...)
			if clusterHasFrom {
				sameCluster = append(sameCluster, names...)
			}
		}
		if siteHasFrom {
			sameSite = append(sameSite, siteNodes...)
		}
		anywhere = append(anywhere, siteNodes...)
	}
	for _, scope := range [][]string{sameCluster, sameSite, anywhere} {
		var cands []string
		for _, n := range scope {
			if n != from && !violated[n] && !avoid[n] {
				cands = append(cands, n)
			}
		}
		if len(cands) == 0 {
			continue
		}
		nodes, err := nas.SelectNodes(p, a.rt.st, a.world.dirNode, nas.SelectOpts{
			N: 1, Constr: constr, Among: cands, Reserve: false,
		})
		if err == nil && len(nodes) == 1 {
			return nodes[0], true
		}
	}
	return "", false
}

// String identifies the app in diagnostics.
func (a *App) String() string { return fmt.Sprintf("App(%s)", a.id) }
