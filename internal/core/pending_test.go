package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jsymphony/internal/chaos"
	"jsymphony/internal/codebase"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/virtarch"
)

// Ledger is the pending-image property's class: kv.Store's table (which
// this package cannot import: kv reaches core through the root package)
// plus Seq, which every write bumps, so a copy's state names the
// replica version it belongs to.  Name identifies the object to the
// decode hook.
type Ledger struct {
	Name string
	Seq  int
	Data map[string]int
}

func (l *Ledger) Init(name string) { l.Name = name }

func (l *Ledger) Put(k string, v int) int {
	if l.Data == nil {
		l.Data = make(map[string]int)
	}
	l.Data[k] = v
	l.Seq++
	return l.Seq
}

// Read returns the copy's Seq and its value for k.
func (l *Ledger) Read(k string) []int { return []int{l.Seq, l.Data[k]} }

// ledgerBound, when set, sees every Ledger that materialize binds: a
// decoded image, a migrated or rolled-back copy, or a fresh instance.
var ledgerBound func(rt *Runtime, l *Ledger)

func (l *Ledger) BindRuntime(rt *Runtime) {
	if ledgerBound != nil {
		ledgerBound(rt, l)
	}
}

// TestReplicaPendingImageProperty runs seeded random walks over a strong
// and an eventual replicated Ledger: writes, reads served at a chosen
// replica (with lease renewals, some of which bring newer state), Instance,
// replicaSnapshot, a peer dropped and repaired, and a primary crash with
// election and promotion.  It checks that
//   - every replica read, and Instance, returns the state of the newest
//     version installed there (Seq = version + the Seq at replication);
//   - a snapshot of a replica that has not decoded its image returns the
//     bytes the primary shipped for that version, and decodes nothing;
//   - no installed image is decoded twice; a promotion decodes exactly
//     once if the elected copy still held an image, on that copy, and
//     otherwise nothing (election and seeding read only images), and the
//     promoted copy holds no image afterwards;
//   - an update for a class not loaded on the receiving node fails the
//     replicaUpdate RMI and installs nothing.
func TestReplicaPendingImageProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { pendingWalk(t, seed) })
	}
}

func pendingWalk(t *testing.T, seed int64) {
	reg := testRegistry()
	reg.Register("Ledger", 4096, func() any { return &Ledger{} })
	reg.Register("Unloaded", 4096, func() any { return &Ledger{} })
	w := NewSimWorld(simnet.PaperCluster(), simnet.Idle, seed, Options{NAS: testNAS(), Registry: reg})
	w.SetRMIPolicy(testPolicy())
	inj, err := w.InstallChaos(&chaos.Spec{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	// decodes counts the decodes of each image installed on each node, by
	// the node and the image's first byte (held here, so no later image
	// can reuse the address).  Every peer of one write is shipped the
	// same body, so on a simulated fabric one image lies at one address
	// on every node.
	type install struct {
		node  string
		first *byte
	}
	keys := map[string]objKey{}
	decodes := map[install]int{}
	total := 0
	byNode := map[string]int{}
	ledgerBound = func(rt *Runtime, l *Ledger) {
		key, ok := keys[l.Name]
		if !ok {
			return
		}
		rt.mu.Lock()
		var first *byte
		if h := rt.hosted[key]; h != nil && len(h.image) > 0 {
			first = &h.image[0]
		}
		rt.mu.Unlock()
		if first == nil {
			return
		}
		total++
		byNode[rt.Node()]++
		at := install{rt.Node(), first}
		if decodes[at]++; decodes[at] > 1 {
			t.Errorf("%s on %s: one installed image decoded %d times", l.Name, rt.Node(), decodes[at])
		}
	}
	defer func() { ledgerBound = nil }()

	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		home := w.Nodes()[0]
		a, err := w.Register(home)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Unregister(p)
		cb := a.NewCodebase()
		if err := cb.Add("Ledger"); err != nil {
			t.Fatal(err)
		}
		if err := cb.LoadNodes(p, w.Nodes()...); err != nil {
			t.Fatal(err)
		}
		must := func(step string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		pols := []replica.Policy{
			{N: 2, Mode: replica.Strong, Reads: []string{"Read"}},
			{N: 2, Mode: replica.Eventual, Reads: []string{"Read"}},
		}
		objs := make([]*Object, len(pols))
		refs := make([]Ref, len(pols))
		base := make([]int, len(pols))                  // Seq at replication
		shipped := make([]map[uint64][]byte, len(pols)) // the image of each version, as its primary shipped it
		for i, pol := range pols {
			vn, err := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[1+i])
			must("place", err)
			objs[i], err = a.NewObject(p, "Ledger", vn, constraintNotNode(home))
			must("create", err)
			refs[i], err = objs[i].Ref()
			must("ref", err)
			name := fmt.Sprint("ledger", i)
			keys[name] = objKey{refs[i].App, refs[i].ID}
			must("init", objs[i].OInvoke(p, "Init", name))
			for j := 0; j <= i; j++ {
				_, err := objs[i].SInvoke(p, "Put", fmt.Sprint("pre", j), j)
				must("pre-write", err)
			}
			base[i] = i + 1
			must("replicate", objs[i].Replicate(p, pol))
			loc, err := objs[i].NodeName()
			must("locate", err)
			image, _, err := w.MustRuntime(loc).captureState(p, keys[name], nil)
			must("seed image", err)
			shipped[i] = map[uint64][]byte{0: image}
		}

		// set returns o's primary node and replica nodes, as the AppOA has them.
		set := func(i int) (string, []string) {
			e, err := a.entry(objs[i].id)
			must("entry", err)
			a.mu.Lock()
			defer a.mu.Unlock()
			return e.location, append([]string(nil), e.replicas...)
		}
		// copyOf reads the version and pending image of o's copy on node.
		copyOf := func(i int, node string) (h *hostedObj, version uint64, image []byte) {
			rt := w.MustRuntime(node)
			rt.mu.Lock()
			defer rt.mu.Unlock()
			h = rt.hosted[objKey{refs[i].App, refs[i].ID}]
			if h == nil || h.repl == nil {
				return nil, 0, nil
			}
			return h, h.repl.version, h.image
		}
		// checkState fails unless a Seq and a value read on node at
		// version match that version's shipped state.
		checkState := func(step string, i int, node string, version uint64, seq, val int, k string) {
			t.Helper()
			if want := int(version) + base[i]; seq != want {
				t.Errorf("%s: %s at v%d serves Seq %d, want %d: not the newest installed version", step, node, version, seq, want)
			}
			if image, ok := shipped[i][version]; ok {
				var l Ledger
				must(step, rmi.Unmarshal(image, &l))
				if l.Seq != seq || l.Data[k] != val {
					t.Errorf("%s: %s at v%d serves (%d, %s=%d), the shipped image holds (%d, %d)", step, node, version, seq, k, val, l.Seq, l.Data[k])
				}
			}
		}
		reads, pendingSnaps := 0, 0
		// readAt serves one read at node's replica and checks it.
		readAt := func(step string, i int, node string) {
			k := fmt.Sprint("k", rng.Intn(12))
			rt := w.MustRuntime(node)
			resp, err := rt.invoke(p, invokeReq{App: refs[i].App, ID: refs[i].ID, Method: "Read", Args: []any{k}, Read: true})
			if err != nil {
				// A replica the primary dropped, or one not yet seeded.
				if strings.Contains(err.Error(), errObjMoved) || strings.Contains(err.Error(), errReplicaStale) {
					return
				}
				t.Fatalf("%s: read at %s: %v", step, node, err)
			}
			if !resp.Replica {
				t.Fatalf("%s: the read at %s was not served by a replica", step, node)
			}
			_, version, image := copyOf(i, node)
			if image != nil {
				t.Errorf("%s: %s still holds a pending image after a read", step, node)
			}
			got := resp.Result.([]int)
			checkState(step, i, node, version, got[0], got[1], k)
			reads++
		}
		anyReplica := func(i int) string {
			_, reps := set(i)
			if len(reps) == 0 {
				return ""
			}
			return reps[rng.Intn(len(reps))]
		}
		// write puts one binding through the handle and records the image
		// the primary shipped for it.
		write := func(step string, i int) {
			_, err := objs[i].SInvoke(p, "Put", fmt.Sprint("k", rng.Intn(12)), rng.Intn(1000))
			must(step, err)
			loc, _ := set(i)
			rt := w.MustRuntime(loc)
			rt.mu.Lock()
			if h := rt.hosted[keys[fmt.Sprint("ledger", i)]]; h != nil && h.repl != nil && h.repl.shipped != nil {
				shipped[i][h.repl.version] = h.repl.shipped
			}
			rt.mu.Unlock()
		}

		// Every kind once per object, then writes, reads, Instance and
		// snapshots at random, shuffled.
		kinds := []string{"write", "read", "instance", "snapshot", "drop", "promote", "unloaded"}
		var schedule [][2]int // (kind, object)
		for k := range kinds {
			for i := range objs {
				schedule = append(schedule, [2]int{k, i})
			}
		}
		for n := 0; n < 50; n++ {
			schedule = append(schedule, [2]int{rng.Intn(4), rng.Intn(len(objs))})
		}
		rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })
		promoted, pendingPromotions := 0, 0
		for s, sk := range schedule {
			kind, i := kinds[sk[0]], sk[1]
			step := fmt.Sprintf("seed %d step %d (%s, %s)", seed, s, kind, pols[i].Mode)
			switch kind {
			case "write":
				for n := 1 + rng.Intn(3); n > 0; n-- {
					write(step, i)
				}
			case "read":
				p.Sleep(time.Duration(rng.Intn(400)) * time.Millisecond) // leases lapse: renewals
				if node := anyReplica(i); node != "" {
					readAt(step, i, node)
				}
			case "instance":
				node := anyReplica(i)
				if node == "" {
					break
				}
				_, version, _ := copyOf(i, node)
				inst, ok := w.MustRuntime(node).Instance(refs[i])
				if !ok {
					t.Fatalf("%s: no instance on %s", step, node)
				}
				l := inst.(*Ledger)
				checkState(step, i, node, version, l.Seq, l.Data["k0"], "k0")
			case "snapshot":
				node := anyReplica(i)
				if node == "" {
					break
				}
				_, version, image := copyOf(i, node)
				before := total
				resp, err := w.MustRuntime(node).replicaSnapshot(p, replicaSnapshotReq{App: refs[i].App, ID: refs[i].ID})
				must(step, err)
				if resp.Version != version {
					t.Errorf("%s: snapshot of %s at v%d, want v%d", step, node, resp.Version, version)
				}
				if image == nil {
					break
				}
				if total != before {
					t.Errorf("%s: a snapshot of %s's pending image decoded it", step, node)
				}
				if want, ok := shipped[i][version]; ok && !bytes.Equal(resp.State, want) {
					t.Errorf("%s: snapshot of %s at v%d is not the image its primary shipped", step, node, version)
				}
				if _, _, still := copyOf(i, node); still == nil {
					t.Errorf("%s: a snapshot of %s consumed its pending image", step, node)
				}
				pendingSnaps++
			case "drop":
				// The primary drops one peer, so the next writes pass it
				// by; a strong read there renews its lease and brings the
				// newest image, which the read then decodes.
				loc, reps := set(i)
				if len(reps) < 2 {
					break
				}
				victim := reps[rng.Intn(len(reps))]
				rt := w.MustRuntime(loc)
				h, _, _ := copyOf(i, loc)
				rs := h.repl
				rs.fan.lock(p, 0)
				rt.dropPeer(h, rs, victim, fmt.Errorf("dropped by the walk"))
				rs.fan.unlock()
				write(step, i)
				write(step, i)
				if pols[i].Mode == replica.Strong {
					p.Sleep(300 * time.Millisecond) // the lease lapses
					readAt(step, i, victim)
				}
				e, err := a.entry(objs[i].id)
				must(step, err)
				a.mu.Lock()
				ploc, ref, pol, peers := e.location, e.ref, *e.pol, append([]string(nil), e.replicas...)
				a.mu.Unlock()
				must(step, a.configurePrimary(p, e, ploc, ref, pol, peers))
			case "promote":
				promoted++
				victim, reps := set(i)
				pending := map[string]bool{}
				for _, n := range reps {
					_, _, image := copyOf(i, n)
					pending[n] = image != nil
				}
				before, beforeAt := total, maps.Clone(byNode)
				must(step, inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}))
				elected := awaitRelocation(t, w, p, objs[i], victim)
				p.Sleep(500 * time.Millisecond) // the replacement member is seeded
				want := 0
				if pending[elected] {
					want = 1
					pendingPromotions++
				}
				if got := byNode[elected] - beforeAt[elected]; got != want || total-before != want {
					t.Errorf("%s: promoting %s (image pending: %v) decoded %d images there, %d in all; want %d",
						step, elected, pending[elected], got, total-before, want)
				}
				if _, _, image := copyOf(i, elected); image != nil {
					t.Errorf("%s: the promoted copy on %s still holds an image", step, elected)
				}
				must(step, inj.Inject(chaos.Fault{Kind: chaos.Restart, Node: victim}))
				p.Sleep(time.Second) // the node reports in again
			case "unloaded":
				node := anyReplica(i)
				if node == "" {
					break
				}
				ref := Ref{App: refs[i].App, ID: 1 << 40, Class: "Unloaded"}
				body := rmi.MustMarshal(replicaUpdateReq{Ref: ref, State: shipped[i][0], Version: 1, Mode: pols[i].Mode, Primary: home})
				_, err := a.rt.st.Call(p, node, PubService, "replicaUpdate", body, replicaCallTimeout)
				if err == nil || !strings.Contains(err.Error(), codebase.ErrNotLoaded) {
					t.Errorf("%s: an update for an unloaded class on %s: %v, want %q", step, node, err, codebase.ErrNotLoaded)
				}
				rt := w.MustRuntime(node)
				rt.mu.Lock()
				_, hosted := rt.hosted[objKey{ref.App, ref.ID}]
				rt.mu.Unlock()
				if hosted {
					t.Errorf("%s: %s hosts the refused update", step, node)
				}
			}
			if t.Failed() {
				return
			}
		}
		if total == 0 || reads == 0 || pendingSnaps == 0 {
			t.Errorf("the walk decoded %d images, checked %d reads and %d snapshots of pending images: the property was barely exercised", total, reads, pendingSnaps)
		}
		t.Logf("seed %d: %d images decoded once each, %d replica reads and %d pending snapshots checked, %d promotions (%d of a copy holding an image)",
			seed, total, reads, pendingSnaps, promoted, pendingPromotions)
	})
}

// SafeCounter is a counter safe for concurrent invocation, for the real-time
// promotion test.
type SafeCounter struct {
	mu sync.Mutex
	N  int
}

func (c *SafeCounter) Add() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.N++
	return c.N
}

func (c *SafeCounter) Get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.N
}

// TestReplicaPromotionRealTimeKeepsWrites promotes a replica that still
// holds the image it was shipped while reads and writes arrive at it
// concurrently, on the real-time scheduler where a decode can interleave
// with other invocations.  The promoted copy serves without a
// replication state, so its writes and reads take no fan lock.  Every
// write it acknowledged must be in the final state: none may run on a
// decoded copy that is then thrown away.
func TestReplicaPromotionRealTimeKeepsWrites(t *testing.T) {
	reg := codebase.NewRegistry()
	reg.Register("SafeCounter", 4096, func() any { return &SafeCounter{} })
	w := NewLocalWorld([]string{"a", "b"}, Options{Registry: reg})
	w.Start()
	p := sched.RealProc(w.Sched())
	defer w.Shutdown(p)
	rt := w.MustRuntime("b")
	if _, err := rt.store.Load("SafeCounter"); err != nil {
		t.Fatal(err)
	}
	const base, writers, readers, perWorker = 5, 4, 4, 25
	image := rmi.MustMarshal(&SafeCounter{N: base})
	for round := uint64(1); round <= 40; round++ {
		ref := Ref{App: "rt", ID: round, Class: "SafeCounter"}
		if err := rt.replicaApply(p, replicaUpdateReq{Ref: ref, State: image, Version: 1,
			AsOf: w.Sched().Now(), Lease: time.Minute, Mode: replica.Strong, Primary: "a"}); err != nil {
			t.Fatal(err)
		}
		var acked atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		invoke := func(method string, read bool) (any, error) {
			resp, err := rt.invoke(sched.RealProc(w.Sched()), invokeReq{App: ref.App, ID: ref.ID, Method: method, Read: read})
			return resp.Result, err
		}
		for n := 0; n < writers+readers; n++ {
			wg.Add(1)
			go func(write bool) {
				defer wg.Done()
				<-start
				for k := 0; k < perWorker; k++ {
					if !write {
						if v, err := invoke("Get", true); err == nil && v.(int) < base {
							t.Errorf("round %d: a read saw %d, below the shipped state %d", round, v, base)
						}
						continue
					}
					// A write that reaches the copy while it is still a
					// replica is refused; only acknowledged ones count.
					if _, err := invoke("Add", false); err == nil {
						acked.Add(1)
					}
				}
			}(n < writers)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := rt.replicaConfigure(nil, replicaConfigureReq{App: ref.App, ID: ref.ID}); err != nil {
				t.Errorf("round %d: promotion: %v", round, err)
			}
		}()
		close(start)
		wg.Wait()
		inst, ok := rt.Instance(ref)
		if !ok {
			t.Fatalf("round %d: no instance", round)
		}
		if got, want := inst.(*SafeCounter).Get(), base+int(acked.Load()); got != want {
			t.Fatalf("round %d: the promoted copy holds %d, want %d (%d acknowledged writes)", round, got, want, acked.Load())
		}
	}
}
