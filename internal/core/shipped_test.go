package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"jsymphony/internal/chaos"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/virtarch"
)

// Tally is the shipped-image property's class: a map whose image changes
// with every write.
type Tally struct{ M map[string]int }

func (t *Tally) Put(k string, v int) int {
	if t.M == nil {
		t.M = make(map[string]int)
	}
	t.M[k] = v
	return len(t.M)
}

func (t *Tally) Get(k string) int { return t.M[k] }

// PutThenFail mutates and then fails, so the write is never propagated.
func (t *Tally) PutThenFail(k string, v int) error {
	t.Put(k, v)
	return errors.New("tally: failed after mutating")
}

// PutSlow mutates k, sleeps, then mutates k2: a write still executing
// while the rest of the installation moves.
func (t *Tally) PutSlow(ctx *Ctx, k string, v int, k2 string, ms int) int {
	t.Put(k, v)
	ctx.P.Sleep(time.Duration(ms) * time.Millisecond)
	return t.Put(k2, v)
}

// checkShipped fails the test if any hosted copy keeps a shipped image
// that is not the encoding of its live instance, and returns how many
// copies keep one.
func checkShipped(t *testing.T, w *World, step string) int {
	t.Helper()
	kept := 0
	for _, n := range w.Nodes() {
		rt := w.MustRuntime(n)
		rt.mu.Lock()
		for key, h := range rt.hosted {
			if h.repl == nil || h.repl.shipped == nil {
				continue
			}
			kept++
			if h.repl.isReplica {
				t.Errorf("%s: replica %s/%d on %s keeps a shipped image", step, key.app, key.id, n)
			}
			if live, err := rmi.Marshal(h.instance); err != nil || !bytes.Equal(live, h.repl.shipped) {
				t.Errorf("%s: %s/%d on %s: shipped image (%d B) is not the live instance (%d B, %v)",
					step, key.app, key.id, n, len(h.repl.shipped), len(live), err)
			}
		}
		rt.mu.Unlock()
	}
	return kept
}

// TestReplicaShippedImageProperty runs a seeded random schedule over a
// strong, an eventual and a MinSync: 1 object and checks, after every
// step and inside writes that are still executing, that a primary's
// shipped image is either nil or the encoding of its live instance.
// The schedule mixes writes, reads (with lease renewals), a write that
// fails after mutating, a write in flight across a peer drop and
// repair, a partition that forces zero-delivery rollback, promotion and
// migration.
// After every step it also hands out each object's replica set from
// the AppOA's table (App.route, App.locate) and from the primary
// (invokeResp.RSet), and checks that every set handed out so far still
// equals a deep copy taken when it was handed out: the sets share their
// slices with the state they were built from, which is replaced whole
// and never written in place.
func TestReplicaShippedImageProperty(t *testing.T) {
	reg := testRegistry()
	reg.Register("Tally", 4096, func() any { return &Tally{} })
	w := NewSimWorld(simnet.PaperCluster(), simnet.Idle, 1, Options{NAS: testNAS(), Registry: reg})
	w.SetRMIPolicy(testPolicy())
	inj, err := w.InstallChaos(&chaos.Spec{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		home := w.Nodes()[0]
		a, err := w.Register(home)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Unregister(p)
		cb := a.NewCodebase()
		if err := cb.Add("Tally"); err != nil {
			t.Fatal(err)
		}
		if err := cb.LoadNodes(p, w.Nodes()...); err != nil {
			t.Fatal(err)
		}
		reads := []string{"Get"}
		pols := []replica.Policy{
			{N: 2, Mode: replica.Strong, Reads: reads},
			{N: 2, Mode: replica.Eventual, Reads: reads},
			{N: 2, Mode: replica.Eventual, MinSync: 1, Reads: reads},
		}
		objs := make([]*Object, len(pols))
		for i, pol := range pols {
			vn, err := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[1+i])
			if err != nil {
				t.Fatal(err)
			}
			if objs[i], err = a.NewObject(p, "Tally", vn, constraintNotNode(home)); err != nil {
				t.Fatal(err)
			}
			if _, err := objs[i].SInvoke(p, "Put", "seed", i); err != nil {
				t.Fatal(err)
			}
			if err := objs[i].Replicate(p, pol); err != nil {
				t.Fatal(err)
			}
		}

		rng := rand.New(rand.NewSource(1))
		kept := 0
		check := func(step string) { kept += checkShipped(t, w, step) }
		must := func(step string, err error) {
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
		// primary returns the node and hosted copy of o's writable copy.
		primary := func(o *Object) (string, *Runtime, *hostedObj) {
			loc, err := o.NodeName()
			must("locate", err)
			ref, _ := o.Ref()
			rt := w.MustRuntime(loc)
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return loc, rt, rt.hosted[objKey{ref.App, ref.ID}]
		}
		// await sleeps until cond holds, failing the test after 30 s.
		await := func(step string, cond func() bool) {
			for deadline := w.Sched().Now() + 30*time.Second; !cond(); p.Sleep(time.Millisecond) {
				if w.Sched().Now() > deadline {
					t.Fatalf("%s: timed out", step)
				}
			}
		}
		// repair re-registers the set the AppOA holds at the primary, as
		// its repair does once a dropped peer is reachable again.
		repair := func(step string, o *Object) {
			e, err := a.entry(o.id)
			must(step, err)
			a.mu.Lock()
			loc, ref, pol, peers := e.location, e.ref, *e.pol, append([]string(nil), e.replicas...)
			a.mu.Unlock()
			must(step, a.configurePrimary(p, e, loc, ref, pol, peers))
		}
		// members is every node that hosts a copy of o.
		members := func(o *Object) map[string]bool {
			in := map[string]bool{}
			for _, info := range a.ReplicaSets() {
				if info.Ref.ID == o.id {
					in[info.Set.Primary] = true
					for _, n := range info.Set.Replicas {
						in[n] = true
					}
				}
			}
			return in
		}
		// handed keeps every replica set handed out so far, beside a deep
		// copy taken when it was handed out.
		type handedSet struct {
			from      string
			set, copy replica.Set
		}
		var handed []handedSet
		keep := func(from string, set replica.Set) {
			c := set
			c.Replicas, c.Reads = slices.Clone(set.Replicas), slices.Clone(set.Reads)
			handed = append(handed, handedSet{from, set, c})
		}
		// handOut samples o's set from the three places that hand it out.
		handOut := func(step string, o *Object) {
			r, err := a.route(o.id)
			must(step, err)
			keep(step+": route", r.set)
			resp, err := a.locate(p, locateReq{ID: o.id})
			must(step, err)
			keep(step+": locate", resp.RSet)
			loc, rt, _ := primary(o)
			ref, _ := o.Ref()
			// A primary that has no peer left answers without a set.
			if got, err := rt.invoke(p, invokeReq{App: ref.App, ID: ref.ID, Method: "Get", Args: []any{"k0"}}); err == nil {
				keep(step+": invoke on "+loc, got.RSet)
			}
		}
		checkHanded := func(step string) {
			for _, h := range handed {
				if !reflect.DeepEqual(h.set, h.copy) {
					t.Errorf("%s: the set handed out at %s changed after it left: %+v, was %+v", step, h.from, h.set, h.copy)
				}
			}
		}
		seq := 0
		next := func() (string, int) { seq++; return fmt.Sprintf("k%d", rng.Intn(40)), seq }

		kinds := []string{"write", "read", "fail", "slow", "drop", "replace", "partition", "promote", "migrate"}
		var schedule [][2]int // (kind, object)
		for k := range kinds {
			for o := range objs {
				schedule = append(schedule, [2]int{k, o})
			}
		}
		for i := 0; i < 24; i++ {
			schedule = append(schedule, [2]int{rng.Intn(3), rng.Intn(len(objs))}) // writes, reads, failures
		}
		rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })

		for i, s := range schedule {
			o := objs[s[1]]
			step := fmt.Sprintf("step %d (%s, %s)", i, kinds[s[0]], pols[s[1]].Mode)
			if pols[s[1]].MinSync > 0 {
				step = fmt.Sprintf("step %d (%s, minsync)", i, kinds[s[0]])
			}
			switch kinds[s[0]] {
			case "write":
				k, v := next()
				_, err := o.SInvoke(p, "Put", k, v)
				must(step, err)
			case "read":
				p.Sleep(time.Duration(rng.Intn(400)) * time.Millisecond) // leases lapse: renewals
				k, _ := next()
				_, err := o.SInvoke(p, "Get", k)
				must(step, err)
			case "fail":
				k, v := next()
				if _, err := o.SInvoke(p, "PutThenFail", k, v); err == nil {
					t.Fatalf("%s: PutThenFail succeeded", step)
				}
			case "slow":
				// Checked while the write executes: a fan-locked write
				// has cleared the image.
				k, v := next()
				h, err := o.AInvoke(p, "PutSlow", k, v, k+"'", 50)
				must(step, err)
				_, _, ho := primary(o)
				await(step, func() bool { return ho.instance.(*Tally).M[k] == v })
				check(step + " mid-write")
				_, err = h.Result(p)
				must(step, err)
			case "drop":
				// The primary drops every peer (as propagate does when
				// they stop answering).  An eventual primary keeps
				// serving writes without the fan lock: one is still
				// executing when the set is repaired and a fan-locked
				// write ships an image that the first then outdates.
				k0, v0 := next()
				_, err := o.SInvoke(p, "Put", k0, v0) // ships an image to keep
				must(step, err)
				_, rt, ho := primary(o)
				rs := ho.repl
				rs.fan.lock(p, 0)
				rt.mu.Lock()
				peers := append([]string(nil), rs.peers...)
				rt.mu.Unlock()
				for _, n := range peers {
					rt.dropPeer(ho, rs, n, errors.New("dropped by the schedule"))
				}
				rs.fan.unlock()
				check(step + " dropped")
				if pols[s[1]].Mode == replica.Strong {
					repair(step, o)
					break
				}
				k, v := next()
				h, err := o.AInvoke(p, "PutSlow", k, v, k+"'", 200)
				must(step, err)
				await(step, func() bool { return ho.instance.(*Tally).M[k] == v })
				check(step + " bare mid-write")
				repair(step, o)
				k2, v2 := next()
				_, err = o.SInvoke(p, "Put", k2, v2)
				must(step, err)
				check(step + " repaired mid-write")
				_, err = h.Result(p)
				must(step, err)
			case "replace":
				// The set is replaced while a write executes under the
				// old replState's fan lock: a write under the new one
				// ships an image that the first then outdates.
				k, v := next()
				h, err := o.AInvoke(p, "PutSlow", k, v, k+"'", 200)
				must(step, err)
				_, _, ho := primary(o)
				await(step, func() bool { return ho.instance.(*Tally).M[k] == v })
				must(step, o.Replicate(p, pols[s[1]]))
				k2, v2 := next()
				_, err = o.SInvoke(p, "Put", k2, v2)
				must(step, err)
				check(step + " replaced mid-write")
				_, err = h.Result(p)
				must(step, err)
			case "partition":
				// Cut the primary off from its peers: a write that needs
				// a synchronous copy reaches none and is rolled back.
				loc, _, _ := primary(o)
				e, err := a.entry(o.id)
				must(step, err)
				a.mu.Lock()
				peers := append([]string(nil), e.replicas...)
				a.mu.Unlock()
				for _, n := range peers {
					must(step, inj.Inject(chaos.Fault{Kind: chaos.Partition, A: loc, B: n}))
				}
				aborts := w.Metrics().Counter("js_replica_write_aborts_total")
				before := aborts.Value()
				k, v := next()
				h, err := o.AInvoke(p, "Put", k, v)
				must(step, err)
				if pols[s[1]].Mode == replica.Strong {
					// Retries queued behind the write run and roll back in
					// turn; later ones are deflected.  Each took its undo
					// image from the cache, so none may leave the write in.
					await(step, func() bool { return aborts.Value() > before })
					p.Sleep(100 * time.Millisecond)
					if _, _, ho := primary(o); ho.instance.(*Tally).M[k] == v {
						t.Errorf("%s: the rolled-back write is still in the instance", step)
					}
					check(step + " rolled back")
				} else {
					p.Sleep(3 * time.Second)
					check(step + " cut off")
				}
				for _, n := range peers {
					must(step, inj.Inject(chaos.Fault{Kind: chaos.Heal, A: loc, B: n}))
				}
				repair(step, o)
				_, err = h.Result(p)
				must(step, err)
			case "promote":
				victim, _, _ := primary(o)
				must(step, inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}))
				awaitRelocation(t, w, p, o, victim)
				check(step + " promoted")
				must(step, inj.Inject(chaos.Fault{Kind: chaos.Restart, Node: victim}))
				p.Sleep(time.Second) // the node reports in again
			case "migrate":
				in := members(o)
				var dest string
				for _, n := range w.Nodes()[1:] {
					if !in[n] {
						dest = n
						break
					}
				}
				vn, err := virtarch.NewNamedNode(a.Allocator(p), dest)
				must(step, err)
				must(step, o.Migrate(p, vn, nil))
			}
			check(step)
			for _, o := range objs {
				handOut(step, o)
			}
			checkHanded(step)
		}
		if aborts := w.Metrics().Counter("js_replica_write_aborts_total").Value(); aborts == 0 {
			t.Error("no write was rolled back")
		}
		if promos := w.Metrics().Counter("js_replica_promotions_total").Value(); promos == 0 {
			t.Error("no replica was promoted")
		}
		if kept < len(schedule) {
			t.Errorf("a shipped image was kept %d times over %d steps: the property was barely exercised", kept, len(schedule))
		}
		t.Logf("%d steps, a shipped image kept %d times, %d replica sets handed out", len(schedule), kept, len(handed))
	})
}
