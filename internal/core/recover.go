package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"jsymphony/internal/metrics"
	"jsymphony/internal/nas"
	"jsymphony/internal/params"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
	"jsymphony/internal/wal"
)

// Failure recovery implements the paper's announced OAS extension (§5.1:
// "future work will address the issue of allowing the object agent
// system to at least partially recover from certain system failures",
// reiterated in §7).  The mechanism is checkpoint-based, in the spirit
// of the Ajents system the paper credits for its checkpointing ideas:
//
//   - While enabled, the application's engine periodically persists
//     every live object to external storage under a per-object key.
//   - When the NAS reports a node failure (EventNodeFailed from an
//     activated architecture), every object that lived on the dead node
//     is re-materialized from its latest checkpoint on a satisfying
//     node, under the *same* handle — outstanding refs keep working,
//     losing only the updates since the last checkpoint.

// ckptKey is the storage key of an object's checkpoint.
func ckptKey(ref Ref) string { return fmt.Sprintf("ckpt:%s:%d", ref.App, ref.ID) }

// EnableRecovery starts periodic checkpointing of all the application's
// objects and arms failure recovery; period <= 0 disables both.
// Architectures must be activated (ActivateVA) for failures to be
// observed.
func (a *App) EnableRecovery(period time.Duration) {
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.ckptGen++
	gen := a.ckptGen
	a.ckptPeriod = period
	a.mu.Unlock()
	if period <= 0 {
		return
	}
	// Failures found by the installation-level detector (chaos-injected
	// crashes in particular) must reach this application too, not only
	// those observed through an activated architecture.
	a.world.ArmFailureDetector()
	a.world.s.Spawn("oas.checkpoint:"+a.id, func(p sched.Proc) {
		for {
			p.Sleep(period)
			a.mu.Lock()
			stale := a.done || a.ckptGen != gen
			a.mu.Unlock()
			if stale {
				return
			}
			a.checkpointAll(p)
		}
	})
}

// RecoveryEnabled reports whether checkpoint-based recovery is armed.
func (a *App) RecoveryEnabled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ckptPeriod > 0
}

// checkpointAll persists every live object once, in handle order so the
// RMI traffic of a checkpoint pass is deterministic.
func (a *App) checkpointAll(p sched.Proc) {
	a.mu.Lock()
	entries := make([]*objEntry, 0, len(a.objs))
	for _, e := range a.objs {
		if !e.freed {
			entries = append(entries, e)
		}
	}
	a.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ref.ID < entries[j].ref.ID })
	for _, e := range entries {
		a.mu.Lock()
		loc, ref, freed := e.location, e.ref, e.freed
		a.mu.Unlock()
		if freed {
			continue
		}
		body := rmi.MustMarshal(storeReq{App: ref.App, ID: ref.ID, Key: ckptKey(ref)})
		// Best effort: a node that just died fails the call; recovery
		// will then use the previous checkpoint.
		_, _ = a.rt.st.Call(p, loc, PubService, "store", body, 30*time.Second)
	}
}

// image is one restorable copy of an object's state, wherever it is
// kept: the PubOA method that installs it, that method's request, and
// the installing caller's RMI budget (which decides virtual time under
// faults, so each caller keeps its own).  The two stores differ only
// here: a checkpoint or stored object is installed by "load" (the host
// reads the shared Storage itself, the App ships no state), a WAL entry
// by "migrateIn" carrying the replayed bytes.
type image struct {
	method  string
	body    []byte
	timeout time.Duration
	via     string // re-home trace detail prefix ("" or "wal replay ")
}

// storedImage is the image of the record under key on external Storage.
func storedImage(ref Ref, key string, timeout time.Duration) image {
	return image{
		method: "load", body: rmi.MustMarshal(loadReq{Ref: ref, Key: key}),
		timeout: timeout,
	}
}

// walImage is the image of a replayed WAL entry: every write whose ack
// the log covered, installed durable at the logged version.
func walImage(ref Ref, ent wal.Entry, reads []string) image {
	return image{
		method: "migrateIn",
		body: rmi.MustMarshal(migrateInReq{
			Ref: ref, State: ent.Data, Durable: true, DurReads: reads, DurVer: ent.Ver,
		}),
		timeout: 30 * time.Second, via: "wal replay ",
	}
}

// objLost is the trace kind of an object a failure took for good; the
// detail is the loss cause.
const objLost trace.Kind = "obj.lost"

// Loss causes, the label values of js_core_recovery_lost_total.
const (
	lostNoImage    = "no_image"     // never checkpointed, nothing in the WAL
	lostStoreError = "store_error"  // the store holding the image failed
	lostNoLiveNode = "no_live_node" // an image exists, no live node took it
)

// RecoverFrom re-materializes every object of this application that was
// hosted on the failed node.  It returns the handles that were
// recovered and those that could not be; every loss is also traced and
// counted by cause.
func (a *App) RecoverFrom(p sched.Proc, deadNode string) (recovered, lost []Ref) {
	a.mu.Lock()
	// One recovery pass per dead node at a time: the detector and an
	// activated architecture may both report the same failure.
	if a.recovering == nil {
		a.recovering = make(map[string]bool)
	}
	if a.recovering[deadNode] {
		a.mu.Unlock()
		return nil, nil
	}
	a.recovering[deadNode] = true
	var victims []*objEntry
	for _, e := range a.objs {
		if !e.freed && e.location == deadNode {
			victims = append(victims, e)
		}
	}
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.recovering, deadNode)
		a.mu.Unlock()
	}()
	// Handle order keeps the recovery RMI sequence deterministic.
	sort.Slice(victims, func(i, j int) bool { return victims[i].ref.ID < victims[j].ref.ID })

	// Durable objects replay from the dead node's WAL.  The replay scan
	// is shared across all this pass's victims and built lazily, so a
	// failure that killed no durable object costs no disk reads.
	walSnap := sync.OnceValue(func() *walSnapshot { return a.world.walReplayAll(p, a.rt) })

	for _, e := range victims {
		// A replicated object promotes a surviving replica — availability
		// restored from live state, no image round trip, no lost
		// strong-mode writes.  Restoring an image is the fallback when the
		// whole set died.
		if a.promoteEntry(p, e, deadNode) || a.rehome(p, e, deadNode, walSnap) {
			recovered = append(recovered, e.ref)
		} else {
			lost = append(lost, e.ref)
		}
	}
	// Sets that lost a non-primary member to this node heal afterwards:
	// promotion first (availability), repair second (durability margin).
	a.repairReplicaSets(p, deadNode)
	return recovered, lost
}

// images lists the restorable copies of e's state, best first: a
// durable object's last logged state (every acked write), then the
// periodic checkpoint (everything up to the last pass).  With none,
// cause says why.
func (a *App) images(e *objEntry, walSnap func() *walSnapshot) (imgs []image, cause string) {
	a.mu.Lock()
	ref, durable := e.ref, e.durable
	reads := append([]string(nil), e.durReads...)
	a.mu.Unlock()
	if durable {
		if s := walSnap(); s != nil {
			if ent, ok := s.entries[durObjKey(ref.App, ref.ID)]; ok {
				imgs = append(imgs, walImage(ref, ent, reads))
			}
		}
	}
	key := ckptKey(ref)
	switch _, err := a.world.storage.Get(key); {
	case err == nil:
		imgs = append(imgs, storedImage(ref, key, 30*time.Second))
	case !errors.Is(err, ErrNotFound):
		return imgs, lostStoreError
	}
	return imgs, lostNoImage
}

// install offers img to each candidate in turn and returns the first
// node that accepts it.
func (a *App) install(p sched.Proc, img image, candidates []string) (string, error) {
	err := errors.New("no candidate node")
	for _, node := range candidates {
		if _, err = a.rt.st.Call(p, node, PubService, img.method, img.body, img.timeout); err == nil {
			return node, nil
		}
	}
	return "", err
}

// rehome restores one object of a dead node from an image, under the
// same handle: the one re-home path of checkpoint and WAL recovery, and
// the one place a loss is reported.
func (a *App) rehome(p sched.Proc, e *objEntry, deadNode string, walSnap func() *walSnapshot) bool {
	imgs, cause := a.images(e, walSnap)
	for _, img := range imgs {
		// Preferred candidates honor the original placement; if that leaves
		// nothing live (the object was pinned to the dead node, or its
		// component died with it), any satisfying node will do — partial
		// recovery beats none.
		candidates := a.liveCandidates(p, e.comp, e.constr, deadNode)
		if len(candidates) == 0 {
			candidates = a.liveCandidates(p, nil, e.constr, deadNode)
		}
		node, err := a.install(p, img, candidates)
		if err != nil {
			cause = lostNoLiveNode
			continue
		}
		a.mu.Lock()
		e.location = node
		replicated := e.pol != nil
		e.replicas = nil
		a.mu.Unlock()
		if replicated {
			// The restored copy is a lone primary with a fresh update
			// counter; rebuild its set from it.
			_ = a.materializeReplicas(p, e, []string{deadNode})
			a.publishRSet(p, e)
		}
		a.rt.ForgetLocation(e.ref) // home-node caches point at the dead node
		a.world.emit(trace.Event{Kind: trace.ObjRecovered, Node: node, App: e.ref.App, Obj: e.ref.ID, Detail: img.via + "from " + deadNode})
		return true
	}
	a.world.emit(trace.Event{Kind: objLost, Node: deadNode, App: e.ref.App, Obj: e.ref.ID, Detail: cause})
	a.world.reg.Counter(metrics.Label("js_core_recovery_lost_total", "cause", cause)).Inc()
	return false
}

// adopt installs an image under a fresh handle of this application — the
// one path behind Load and the WAL's whole-cluster restore.  entry
// carries what the caller knows about the object beyond ref and
// location.  A replicated object restores as a replicated object:
// silently degrading it to a single copy would change its availability
// story.  The object is usable even when re-materializing the set
// fails, so the handle is returned alongside the error.
func (a *App) adopt(p sched.Proc, ref Ref, img image, candidates []string, entry objEntry, pol *replica.Policy) (*Object, error) {
	node, err := a.install(p, img, candidates)
	if err != nil {
		return nil, fmt.Errorf("core: no node took the image of %s/%d: %w", ref.App, ref.ID, err)
	}
	entry.ref, entry.location = ref, node
	a.mu.Lock()
	a.objs[ref.ID] = &entry
	a.mu.Unlock()
	obj := &Object{app: a, id: ref.ID}
	if pol != nil {
		if err := a.Replicate(p, ref.ID, *pol); err != nil {
			return obj, fmt.Errorf("core: restored %s/%d but could not re-materialize its replica set: %w", ref.App, ref.ID, err)
		}
	}
	return obj, nil
}

// liveCandidates returns placement candidates minus the dead node and
// minus anything the directory currently considers dead: a recovery
// triggered by one crash must not re-materialize the object onto a node
// that died in an earlier fault (a chaos plan can take several down).
func (a *App) liveCandidates(p sched.Proc, comp virtarch.Component, constr *params.Constraints, deadNode string) []string {
	cands, err := a.placementCandidates(p, comp, constr)
	if err != nil {
		return nil
	}
	var live map[string]bool
	if dir := a.world.dir; dir != nil {
		live = make(map[string]bool)
		for _, n := range dir.Nodes(a.world.s.Now()) {
			live[n] = true
		}
	}
	out := cands[:0]
	for _, n := range cands {
		if n == deadNode || (live != nil && !live[n]) {
			continue
		}
		out = append(out, n)
	}
	return out
}

// onNodeFailed starts a recovery pass for a failed node when this
// application has anything a failure can take: checkpointed objects,
// replica sets (promotion, healing — exactly what replication buys,
// even with checkpoint recovery off) or durable objects (WAL replay).
func (a *App) onNodeFailed(node string) {
	if a.RecoveryEnabled() || a.hasReplicas() || a.hasDurable() {
		a.world.s.Spawn("oas.recover:"+a.id, func(p sched.Proc) {
			a.RecoverFrom(p, node)
		})
	}
}

// armRecovery wraps an architecture notify callback so node failures
// trigger recovery.
func (a *App) armRecovery(notify func(nas.Event)) func(nas.Event) {
	return func(e nas.Event) {
		if e.Kind == nas.EventNodeFailed {
			a.onNodeFailed(e.Node)
		}
		if notify != nil {
			notify(e)
		}
	}
}
