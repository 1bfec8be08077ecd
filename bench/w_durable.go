package main

import (
	"time"

	"jsymphony"
	"jsymphony/workloads/kv"
)

// The durable workload is the write-side twin of sim_serve: the same
// six-node cluster with the write-ahead log on, a fleet of persisted
// counters, and acked durable writes in rounds.  After the window the
// cluster restarts over the same stable media and the logs are replayed.

const (
	durableNodes   = 6
	durableObjects = 24 // spread over the five non-home nodes
	durableWarmup  = 42 // rounds, about 1 000 writes
	// A host-timed unit is five rounds.  Timed singly, about one round
	// in a hundred meets a collection, which puts the 99th percentile
	// on the knee between the two populations, where it does not repeat.
	durableRounds = 5
)

var simDurable = &workload{
	name: "sim_durable",
	why: "wal append, group commit and checkpoint, and core's durability path do most of the work here and none " +
		"anywhere else: it must not move when reads get faster, and recovery consolidation is judged on it",
	unitOps: durableRounds * durableObjects, blockUnits: 50,
	unitKind: func(int) uint8 { return 0 }, kinds: []string{"rounds"},
	run: func(r *run, body func(unit func(i int))) {
		r.phase("boot")
		machines := jsymphony.UniformCluster(jsymphony.Ultra10_300, durableNodes)
		stable := jsymphony.NewWALStable(r.cfg.seed)
		// Night, as in sim_invoke: the load trace is what carries the seed
		// into the model.
		newEnv := func(seed int64) *jsymphony.Env {
			return jsymphony.NewSimEnv(machines, jsymphony.Night, seed, jsymphony.EnvOptions{
				Durability: &jsymphony.DurabilityOptions{Stable: stable},
			})
		}
		loadStore := func(js *jsymphony.JS, env *jsymphony.Env) {
			cb := js.NewCodebase()
			r.must(cb.Add(kv.StoreClass), "codebase add")
			r.must(cb.LoadNodes(env.Nodes()...), "codebase load")
		}

		acked := make([]int, durableObjects) // per counter: writes acked so far
		ids := make([]uint64, durableObjects)
		env := newEnv(r.cfg.seed)
		env.RunMainDurable("", func(js *jsymphony.JS) {
			r.phase("load")
			loadStore(js, env)
			r.phase("create")
			objs := make([]*jsymphony.Object, durableObjects)
			for i := range objs {
				node, err := js.NewNamedNode(env.Nodes()[1+i%(durableNodes-1)])
				r.must(err, "allocate node")
				objs[i], err = js.NewObject(kv.StoreClass, node, nil)
				r.must(err, "create object")
				r.must(objs[i].Persist(kv.ReadMethods()...), "persist")
				ref, err := objs[i].Ref()
				r.must(err, "ref")
				ids[i] = ref.ID
			}
			// One round: a durable write outstanding on every counter,
			// each acked only once its log record is on stable media.
			handles := make([]*jsymphony.ResultHandle, durableObjects)
			round := func(int) {
				for i, obj := range objs {
					h, err := obj.AInvoke("Add", "n", 1)
					if err != nil {
						r.failf("AInvoke Add: %v", err)
					}
					handles[i] = h
				}
				for i, h := range handles {
					if h == nil {
						continue
					}
					res, err := h.Result()
					if got, _ := res.(int); err != nil || got != acked[i]+1 {
						r.failf("counter %d: Add returned %v, %v; %d writes were acked", i, res, err, acked[i])
						continue
					}
					acked[i]++
				}
			}
			r.phase("warm")
			for i := 0; i < durableWarmup; i++ {
				round(i)
			}
			r.counters = func() modelRows { return simCounters(env) }
			r.model = modelCounters(env)
			body(func(i int) {
				for k := 0; k < durableRounds; k++ {
					round(i)
				}
			})
			r.phase("drain")
			js.Sleep(100 * time.Millisecond) // let the last group commits land
			r.phase("shutdown")
		})

		// The restart: a new world over the same stable media.  Every
		// counter must read back exactly its acked count.
		r.phase("recover")
		env2 := newEnv(r.cfg.seed + 1)
		env2.RunMainDurable("", func(js *jsymphony.JS) {
			loadStore(js, env2)
			t0 := hostNow()
			recs, err := js.RecoverDurable()
			r.recoverMs = (hostNow() - t0).millis()
			r.must(err, "recover")
			found := 0
			for _, rec := range recs {
				if lost := len(rec.Lost) + len(rec.LostShards); lost > 0 {
					r.failf("recovery lost %d objects", lost)
				}
				for i, id := range ids {
					obj, ok := rec.Objects[id]
					if !ok {
						continue
					}
					found++
					res, err := obj.SInvoke(js.Proc(), "Get", "n")
					if got, _ := res.(int); err != nil || got != acked[i] {
						r.failf("counter %d replayed to %v, %v; %d writes were acked", i, res, err, acked[i])
					}
				}
			}
			if found != durableObjects {
				r.failf("recovery found %d of %d counters", found, durableObjects)
			}
		})
	},
}
