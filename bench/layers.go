package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"jsymphony"
	"jsymphony/internal/codebase"
	"jsymphony/internal/heat"
	"jsymphony/internal/loadgen"
	"jsymphony/internal/metrics"
	"jsymphony/internal/rmi"
	"jsymphony/internal/rmi/wire"
	"jsymphony/internal/sched"
	"jsymphony/internal/shard"
	"jsymphony/internal/simnet"
	"jsymphony/internal/slo"
	"jsymphony/internal/trace"
	"jsymphony/internal/vclock"
	"jsymphony/internal/wal"
	"jsymphony/workloads/kv"
)

// The layer ledger prices each mechanism alone, from outside, by timing
// calls into the public functions of the package that implements it.
// Every traced run prints the whole ledger, whatever its workload, so a
// layer's price sits next to the workload numbers it should explain.

// cost is the price of one call.
type cost struct {
	ns      float64 // median over batches of the batch's mean time per call
	allocs  float64 // exact heap allocations per call
	bytes   float64 // heap bytes per call
	calls   int     // timed calls
	batches int
}

// probe runs fn in batches of per calls — one batch untimed to warm up,
// then the timed ones — and runs after, untimed, behind every batch.  A
// batch mean is the finest timing a nanosecond-scale call allows; the
// median over batches keeps a collection or a monitoring round that
// lands in one batch out of the price.
func probe(batches, per int, fn func(i int), after func()) cost {
	for i := 0; i < per; i++ {
		fn(i)
	}
	if after != nil {
		after()
	}
	means := make([]float64, batches)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var untimed runtime.MemStats
	var skipMallocs, skipBytes uint64
	for b := range means {
		t0 := hostNow()
		for i := 0; i < per; i++ {
			fn((b+1)*per + i)
		}
		means[b] = float64(hostNow()-t0) / float64(per)
		if after != nil {
			runtime.ReadMemStats(&untimed)
			after()
			runtime.ReadMemStats(&m1)
			skipMallocs += m1.Mallocs - untimed.Mallocs
			skipBytes += m1.TotalAlloc - untimed.TotalAlloc
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(batches * per)
	return cost{
		ns:     median(means),
		allocs: float64(m1.Mallocs-m0.Mallocs-skipMallocs) / n,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc-skipBytes) / n,
		calls:  batches * per, batches: batches,
	}
}

// ledger collects the per-layer rows.
type ledger struct {
	rows  []metric
	seed  int64
	quick bool // tests: a few small batches, enough to exercise every probe
}

func (l *ledger) probe(batches, per int, fn func(i int), after func()) cost {
	if l.quick {
		batches, per = 3, (per+9)/10
	}
	return probe(batches, per, fn, after)
}

func (l *ledger) add(name string, v float64, unit string, n int) {
	l.rows = append(l.rows, metric{name, v, unit, n})
}

func (l *ledger) ns(name string, c cost)     { l.add(name, c.ns, "ns", c.calls) }
func (l *ledger) us(name string, c cost)     { l.add(name, c.ns/1e3, "us", c.calls) }
func (l *ledger) ms(name string, c cost)     { l.add(name, c.ns/1e6, "ms", c.calls) }
func (l *ledger) allocs(name string, c cost) { l.add(name, c.allocs, "count", c.calls) }

func (l *ledger) get(name string) float64 {
	for _, m := range l.rows {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// inClock runs fn as the main actor of a fresh virtual clock and waits
// for every actor it left behind.
func inClock(fn func(c *vclock.Clock, a *vclock.Actor)) {
	c := vclock.New()
	c.Hold()
	a := c.Adopt("main")
	fn(c, a)
	a.Done()
	c.Run()
}

// switchesPerFabCall is how many times the run token changes hands in
// one Station.Call over the simulated fabric: the caller's send charge,
// the server's dispatcher, the proc it spawns for the handler, that
// proc's reply charge, the caller's dispatcher, and the caller itself.
const switchesPerFabCall = 6

func (l *ledger) vclock() {
	inClock(func(c *vclock.Clock, a *vclock.Actor) {
		ping, pong := vclock.NewMailbox(c, "ping"), vclock.NewMailbox(c, "pong")
		c.Spawn("ponger", func(b *vclock.Actor) {
			for {
				v, ok := b.Get(ping)
				if !ok {
					return
				}
				pong.Put(v, 0)
			}
		})
		// A round trip is two hand-offs of the run token.
		rt := l.probe(20, 5000, func(i int) {
			ping.Put(i, 0)
			a.Get(pong)
		}, nil)
		ping.Close()
		rt.ns, rt.allocs = rt.ns/2, rt.allocs/2
		l.ns("vclock.switch_ns", rt)
		l.allocs("vclock.switch_allocs", rt)

		sleep := l.probe(20, 5000, func(int) { a.Sleep(time.Microsecond) }, nil)
		l.ns("vclock.sleep_ns", sleep)
		l.allocs("vclock.sleep_allocs", sleep)

		// Spawned actors run, and exit, once the spawner yields.
		ran := 0
		spawn := l.probe(20, 500, func(int) { c.Spawn("child", func(*vclock.Actor) { ran++ }) }, func() { a.Sleep(0) })
		if ran != spawn.calls+spawn.calls/spawn.batches {
			panic(fmt.Sprintf("vclock.spawn: %d children ran for %d timed spawns", ran, spawn.calls))
		}
		l.ns("vclock.spawn_ns", spawn)
	})

	// Ten thousand actors asleep at staggered deadlines keep the timer
	// heap ten thousand deep; the price is host time per wake-up.
	inClock(func(c *vclock.Clock, a *vclock.Actor) {
		actors, wakes := 10000, 20
		if l.quick {
			actors, wakes = 1000, 2
		}
		gate, done := vclock.NewMailbox(c, "gate"), vclock.NewMailbox(c, "done")
		left := actors
		for i := 0; i < actors; i++ {
			d := time.Duration(1+i%97) * time.Microsecond
			c.Spawn("sleeper", func(b *vclock.Actor) {
				b.Get(gate)
				for k := 0; k < wakes; k++ {
					b.Sleep(d)
				}
				if left--; left == 0 {
					done.Put(nil, 0)
				}
			})
		}
		a.Sleep(0) // every sleeper reaches the gate
		t0 := hostNow()
		gate.Close()
		a.Get(done)
		l.add("vclock.depth10k_ns", float64(hostNow()-t0)/float64(actors*wakes), "ns", actors*wakes)
	})
}

func (l *ledger) sched() {
	inClock(func(c *vclock.Clock, a *vclock.Actor) {
		// The main actor is already adopted; a proc of the virtual
		// scheduler is spawned to drive its queue.
		s := sched.Virtual(c)
		q := s.NewQueue("probe")
		res := vclock.NewMailbox(c, "result")
		s.Spawn("driver", func(p sched.Proc) {
			res.Put(l.probe(20, 10000, func(i int) {
				q.Put(i, 0)
				p.Recv(q)
			}, nil), 0)
		})
		v, _ := a.Get(res)
		l.ns("sched.virtual_putget_ns", v.(cost))
	})
	s := sched.Real()
	q, p := s.NewQueue("probe"), sched.RealProc(s)
	l.ns("sched.real_putget_ns", l.probe(20, 10000, func(i int) {
		q.Put(i, 0)
		p.Recv(q)
	}, nil))
}

func (l *ledger) wire() {
	msg := &rmi.Message{
		From: "n03", To: "n07", Kind: rmi.KindRequest, ID: 4242,
		Service: "oas.pub", Method: "invoke", Body: make([]byte, 96), Idem: true,
	}
	enc := rmi.MustMarshal(msg)
	c := l.probe(20, 5000, func(int) { rmi.MustMarshal(msg) }, nil)
	l.ns("wire.msg_enc_ns", c)
	l.allocs("wire.msg_enc_allocs", c)
	c = l.probe(20, 5000, func(int) {
		var out rmi.Message
		check(rmi.Unmarshal(enc, &out))
	}, nil)
	l.ns("wire.msg_dec_ns", c)
	l.allocs("wire.msg_dec_allocs", c)

	roundTrip := func(args []any) func(int) {
		var buf []byte
		return func(int) {
			buf = rmi.AppendArgs(buf[:0], args)
			d := wire.NewDec(buf)
			if out := rmi.DecodeArgs(&d); d.Err() != nil || len(out) != len(args) {
				panic(fmt.Sprintf("args round trip: %d values, %v", len(out), d.Err()))
			}
		}
	}
	c = l.probe(20, 2000, roundTrip([]any{"Echo", make([]byte, 1<<10)}), nil)
	l.ns("wire.args1k_rt_ns", c)
	l.allocs("wire.args1k_rt_allocs", c)
	c = l.probe(10, 20, roundTrip([]any{make([]float32, 64<<10)}), nil)
	l.us("wire.f32_256k_rt_us", c)
	l.add("wire.f32_256k_rt_kib", c.bytes/1024, "KiB", c.calls)
}

// echoStations attaches and starts two stations on net; the second
// serves an echo.  It returns the first and a function that closes both.
func echoStations(s sched.Sched, net rmi.Network, a, b string) (*rmi.Station, func()) {
	var sts [2]*rmi.Station
	for i, node := range []string{a, b} {
		ep, err := net.Attach(node)
		check(err)
		sts[i] = rmi.NewStation(s, ep)
		sts[i].Register("echo", func(_ sched.Proc, _, _ string, body []byte) ([]byte, error) { return body, nil })
		sts[i].Start()
	}
	return sts[0], func() { sts[0].Close(); sts[1].Close() }
}

func (l *ledger) rmi() {
	body := make([]byte, 64)
	call := func(st *rmi.Station, p sched.Proc, to string) func(int) {
		return func(int) {
			_, err := st.Call(p, to, "echo", "ping", body, 10*time.Second)
			check(err)
		}
	}
	real := func(name string, net func(sched.Sched) rmi.Network) {
		s := sched.Real()
		st, closeAll := echoStations(s, net(s), "probe-a", "probe-b")
		c := l.probe(10000, 1, call(st, sched.RealProc(s), "probe-b"), nil)
		closeAll()
		l.ns("rmi.call_"+name+"_ns", c)
		l.allocs("rmi.call_"+name+"_allocs", c)
	}
	real("mem", func(s sched.Sched) rmi.Network { return rmi.NewMem(s, 0) })

	inClock(func(c *vclock.Clock, a *vclock.Actor) {
		s := sched.Virtual(c)
		fab := simnet.New(c, simnet.UniformCluster(simnet.Ultra10_300, 2), simnet.Idle, l.seed)
		st, closeAll := echoStations(s, rmi.NewFab(fab, rmi.DefaultCost), "node00", "node01")
		res := vclock.NewMailbox(c, "result")
		s.Spawn("caller", func(p sched.Proc) {
			res.Put(l.probe(10000, 1, call(st, p, "node01"), nil), 0)
			// A one-way message is priced whole: n posts and the
			// call that waits until the last of them was served.
			flush := call(st, p, "node01")
			res.Put(l.probe(400, 10, func(i int) {
				check(st.Post(p, "node01", "echo", "ping", body))
			}, func() { flush(0) }), 0)
		})
		v, _ := a.Get(res)
		l.ns("rmi.call_fab_ns", v.(cost))
		l.allocs("rmi.call_fab_allocs", v.(cost))
		v, _ = a.Get(res)
		l.ns("rmi.post_fab_ns", v.(cost))
		closeAll()
	})
	real("tcp", func(s sched.Sched) rmi.Network { return rmi.NewTCP(s) })

	// No codec term: the fabric hands the message over by pointer; only
	// the TCP transport frames it.
	l.add("rmi.call_fab_self_ns",
		l.get("rmi.call_fab_ns")-switchesPerFabCall*l.get("vclock.switch_ns"), "ns", 0)
}

func (l *ledger) simnet() {
	inClock(func(c *vclock.Clock, a *vclock.Actor) {
		fab := simnet.New(c, simnet.UniformCluster(simnet.Ultra10_300, 2), simnet.Idle, l.seed)
		src, dst := fab.Machine(0), fab.Machine(1)
		// Deliveries pile up in the receiver's inbox; they are taken out
		// again, untimed, behind every batch.
		sent := 0
		send := func(bytes int) func(int) {
			return func(i int) {
				src.Send(dst, bytes, i)
				sent++
			}
		}
		drain := func() {
			for ; sent > 0; sent-- {
				a.Get(dst.Inbox())
			}
		}
		l.ns("simnet.send_small_ns", l.probe(20, 1000, send(128), drain))
		l.ns("simnet.send_256k_ns", l.probe(20, 1000, send(256<<10), drain))
	})
}

func (l *ledger) codebase() {
	obj := &State{}
	c := l.probe(20, 5000, func(int) {
		_, err := codebase.Invoke(obj, "Ping", nil)
		check(err)
	}, nil)
	l.ns("codebase.invoke_ns", c)
	l.allocs("codebase.invoke_allocs", c)
	args := []any{make([]byte, invokePayload)}
	l.ns("codebase.invoke_args_ns", l.probe(20, 5000, func(int) {
		_, err := codebase.Invoke(obj, "Echo", args)
		check(err)
	}, nil))
}

// simEnv runs fn inside a simulated environment with the benchmark's
// class loaded everywhere.
func simEnv(machines []jsymphony.MachineSpec, profile jsymphony.LoadProfile, seed int64, fn func(env *jsymphony.Env, js *jsymphony.JS)) {
	env := jsymphony.NewSimEnv(machines, profile, seed, jsymphony.EnvOptions{})
	env.RunMain("", func(js *jsymphony.JS) {
		cb := js.NewCodebase()
		check(cb.Add(stateClass))
		check(cb.Add(kv.StoreClass))
		check(cb.LoadNodes(env.Nodes()...))
		fn(env, js)
	})
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

func (l *ledger) core() {
	sinvoke := func(o *jsymphony.Object) func(int) {
		return func(int) {
			_, err := o.SInvoke("Ping")
			check(err)
		}
	}
	// sim_invoke's installation, so that core.sinvoke_ns and that
	// workload's op.sinvoke_p50_us price the same call.  Batches of one
	// call make the price the median call; it takes some ten thousand
	// of them to see both of the scheduler's hand-off regimes.
	simEnv(jsymphony.UniformCluster(jsymphony.Ultra10_300, 2), jsymphony.Night, l.seed, func(env *jsymphony.Env, js *jsymphony.JS) {
		n1, err := js.NewNamedNode(env.Nodes()[1])
		check(err)
		obj, err := js.NewObject(stateClass, n1, nil)
		check(err)
		c := l.probe(20000, 1, sinvoke(obj), nil)
		l.ns("core.sinvoke_ns", c)
		l.allocs("core.sinvoke_allocs", c)
		c = l.probe(10000, 1, func(int) {
			h, err := obj.AInvoke("Ping")
			check(err)
			_, err = h.Result()
			check(err)
		}, nil)
		l.ns("core.ainvoke_ns", c)
		l.allocs("core.ainvoke_allocs", c)
		// One-sided calls are priced whole, like rmi.post_fab_ns.
		c = l.probe(500, 10, func(int) { check(obj.OInvoke("Nop")) }, func() { sinvoke(obj)(0) })
		l.ns("core.oinvoke_ns", c)
		l.allocs("core.oinvoke_allocs", c)

		home, err := js.LocalNode()
		check(err)
		local, err := js.NewObject(stateClass, home, nil)
		check(err)
		l.ns("core.local_sinvoke_ns", l.probe(500, 20, sinvoke(local), nil))

		l.us("core.create_us", l.probe(1000, 1, func(int) {
			o, err := js.NewObject(stateClass, n1, nil)
			check(err)
			check(o.Free())
		}, nil))
	})
	simEnv(jsymphony.UniformCluster(jsymphony.Ultra10_300, 3), jsymphony.Night, l.seed, func(env *jsymphony.Env, js *jsymphony.JS) {
		n1, err := js.NewNamedNode(env.Nodes()[1])
		check(err)
		n2, err := js.NewNamedNode(env.Nodes()[2])
		check(err)
		obj, err := js.NewObject(stateClass, n1, nil)
		check(err)
		_, err = obj.SInvoke("Grow", 64<<10)
		check(err)
		l.us("core.migrate64k_us", l.probe(500, 1, func(i int) {
			dst := n2
			if i%2 == 1 {
				dst = n1
			}
			check(obj.Migrate(dst, nil))
		}, nil))
	})
	l.ms("core.boot13_ms", l.probe(7, 1, func(i int) {
		jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.Night, l.seed+int64(i), jsymphony.EnvOptions{}).
			RunMain("", func(*jsymphony.JS) {})
	}, nil))

	// What a remote sinvoke costs beyond the layers it crosses: the
	// station call, the reflective method call, the codec for its two
	// request/response structs (core's own are private; a protocol
	// message of that size stands in) and the span it records.
	l.add("core.sinvoke_self_ns", l.get("core.sinvoke_ns")-l.get("rmi.call_fab_ns")-l.get("codebase.invoke_ns")-
		2*(l.get("wire.msg_enc_ns")+l.get("wire.msg_dec_ns"))-l.get("trace.span_ns"), "ns", 0)
}

func (l *ledger) nas() {
	simEnv(jsymphony.PaperCluster(), jsymphony.IdleProfile, l.seed, func(_ *jsymphony.Env, js *jsymphony.JS) {
		constr := jsymphony.NewConstraints().
			MustSet(jsymphony.NodeName, "!=", "milena").
			MustSet(jsymphony.CPUSysLoad, "<=", 50).
			MustSet(jsymphony.Idle, ">=", 10).
			MustSet(jsymphony.AvailMem, ">=", 10).
			MustSet(jsymphony.SwapRatio, "<=", 0.9)
		l.us("nas.select_us", l.probe(20, 50, func(int) {
			n, err := js.NewNode(constr)
			check(err)
			n.Free()
		}, nil))
	})
}

func (l *ledger) shardReplica() {
	ring := shard.New(0)
	for _, m := range []string{"kv/s0", "kv/s1", "kv/s2"} {
		ring.Add(m)
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	l.ns("shard.owner_ns", l.probe(20, 10000, func(i int) { ring.Owner(keys[i%len(keys)]) }, nil))

	simEnv(jsymphony.UniformCluster(jsymphony.Ultra10_300, serveNodes), jsymphony.IdleProfile, l.seed, func(_ *jsymphony.Env, js *jsymphony.JS) {
		strong := &jsymphony.ReplicaPolicy{N: 1, Mode: jsymphony.ReplicaStrong, Reads: kv.ReadMethods()}
		g, err := js.NewShardGroup("kv", kv.StoreClass, jsymphony.ShardSpec{
			Shards: serveShards, Replication: strong, InitMethod: "InitRW", InitArgs: []any{2e5, 2e6},
		})
		check(err)
		l.us("shard.write_us", l.probe(20, 20, func(i int) {
			k := keys[i%len(keys)]
			_, err := g.Invoke(k, "Put", k, i)
			check(err)
		}, nil))
		l.us("shard.read_us", l.probe(20, 20, func(i int) {
			k := keys[i%len(keys)]
			_, err := g.Invoke(k, "Get", k)
			check(err)
		}, nil))

		obj, err := js.NewObject(kv.StoreClass, nil, nil)
		check(err)
		check(obj.Replicate(*strong))
		l.us("replica.write_us", l.probe(20, 20, func(i int) {
			_, err := obj.SInvoke("Put", "k", i)
			check(err)
		}, nil))
	})
}

func (l *ledger) wal() {
	rec := wal.Record{Kind: wal.KindUpdate, Key: "app1/obj42", Ver: 1, Data: make([]byte, 128)}
	log := wal.NewLog(wal.NewMedia("probe", uint64(l.seed)))
	commit := func() {
		if t, ok := log.Flush(); ok {
			log.Sync(t)
		}
	}
	c := l.probe(500, 32, func(i int) {
		rec.Ver = uint64(i)
		log.Append(rec)
	}, commit)
	l.ns("wal.append_ns", c)
	l.allocs("wal.append_allocs", c)
	l.us("wal.flush32_us", l.probe(500, 1, func(i int) {
		for k := 0; k < 32; k++ {
			rec.Ver = uint64(i*32 + k)
			log.Append(rec)
		}
		commit()
	}, nil))

	const records = 20000
	media := wal.NewMedia("replay", uint64(l.seed))
	log = wal.NewLog(media)
	for i := 0; i < records; i++ {
		rec.Key = fmt.Sprintf("app1/obj%d", i%256)
		rec.Ver = uint64(i)
		log.Append(rec)
		if i%32 == 31 {
			commit()
		}
	}
	commit()
	c = l.probe(5, 1, func(int) {
		if rep := media.Replay(); rep.Records != records {
			panic(fmt.Sprintf("replay applied %d of %d records", rep.Records, records))
		}
	}, nil)
	l.add("wal.replay_us_per_krec", c.ns/1e3/(records/1000), "us", c.calls)
}

func (l *ledger) telemetry() {
	reg := metrics.NewRegistry()
	l.ns("metrics.observe_ns", l.probe(20, 5000, func(i int) {
		reg.Counter(metrics.Label("js_probe_total", "node", "node01")).Inc()
		reg.Histogram(metrics.Label("js_probe_us", "node", "node01"), nil).Observe(int64(i & 1023))
	}, nil))

	spans := trace.NewSpanLog(trace.DefaultSpanDepth)
	c := l.probe(20, 5000, func(i int) {
		spans.Record(trace.Span{
			ID: spans.NextID(), App: "app1", Obj: 42, Method: "Ping", Origin: "node00", Target: "node01",
			Kind: trace.SpanSync, Start: time.Duration(i), Service: time.Microsecond, Wire: time.Millisecond,
		})
	}, nil)
	l.ns("trace.span_ns", c)
	l.allocs("trace.span_allocs", c)

	events := trace.NewLog(trace.DefaultDepth)
	l.ns("trace.event_ns", l.probe(20, 5000, func(i int) {
		events.Emit(trace.Event{At: time.Duration(i), Kind: trace.ObjInvoked, Node: "node01", App: "app1", Obj: 42})
	}, nil))

	var now time.Duration
	engine := slo.NewEngine(func() time.Duration { return now }, slo.Options{})
	check(engine.Declare(slo.SLO{Class: "gold", Target: 400 * time.Millisecond, Percentile: 99}))
	l.ns("slo.observe_ns", l.probe(20, 5000, func(i int) {
		now += 50 * time.Millisecond
		engine.Record("gold", time.Duration(i&255)*time.Millisecond, false)
	}, nil))

	// Zipf-popular keys over a sketch a sixteenth their number, as a
	// shard sees them.
	zipf := rand.NewZipf(rand.New(rand.NewSource(l.seed)), 1.1, 1, serveKeys-1)
	keys := make([]string, 1<<14)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", zipf.Uint64())
	}
	sketch := heat.New(64)
	l.ns("heat.touch_ns", l.probe(20, 5000, func(i int) { sketch.Touch(keys[i&(len(keys)-1)]) }, nil))
}

func (l *ledger) loadgen() {
	const n = 20000
	c := l.probe(5, 1, func(i int) {
		_, err := loadgen.Generate(loadgen.Config{
			Seed: l.seed + int64(i), Classes: []loadgen.Class{{Name: "gold", Share: 1, Reads: 0.75}},
			Keys: serveKeys, Rate: serveRate, Ops: n,
		})
		check(err)
	}, nil)
	l.add("loadgen.ns_per_arrival", c.ns/n, "ns", c.calls*n)
}

// layerLedger prices every layer.
func layerLedger(seed int64, quick bool) []metric {
	l := &ledger{seed: seed, quick: quick}
	l.vclock()
	l.sched()
	l.wire()
	l.simnet()
	l.codebase()
	l.telemetry()
	l.rmi()
	l.core()
	l.nas()
	l.shardReplica()
	l.wal()
	l.loadgen()
	return l.rows
}

// perLayer is the traced run's report: the layer ledger, the exact
// simulated-work rows, what the host paid per unit of simulated work,
// the harness's own phase and operation spans, and what tracing cost.
func perLayer(r *run, out *outcome) []metric {
	rows := layerLedger(r.cfg.seed, r.cfg.quick)
	add := func(name string, v float64, unit string, n int) { rows = append(rows, metric{name, v, unit, n}) }

	m := r.model
	add("model.virtual_ms", m.virtualMs, "ms", 1)
	add("model.rmi_calls", m.rmiCalls, "count", 1)
	add("model.rmi_bytes_out", m.rmiBytes, "count", 1)
	add("model.spans", m.spans, "count", 1)
	add("model.wal_appends", m.walAppends, "count", 1)
	add("model.wal_flushes", m.walFlushes, "count", 1)
	add("wal.recover_ms", r.recoverMs, "ms", 1)

	wallUs := float64(out.wallNs) / 1e3
	add("host.us_per_sim_rmi", ratio(wallUs, out.window.rmiCalls), "us", int(out.window.rmiCalls))
	add("host.sim_s_per_wall_s", ratio(out.window.virtualMs*1e3, wallUs), "ratio", 1)
	add("host.peak_rss_mib", out.peakRSSMiB, "MiB", 1)
	add("host.gc_cycles", float64(out.gcCycles), "count", 1)
	add("host.gc_pause_ms", float64(out.gcPauseNs)/1e6, "ms", int(out.gcCycles))

	for _, p := range []string{"boot", "load", "create", "warm", "drain", "shutdown"} {
		add("phase."+p+"_ms", r.tr.phaseMs("phase."+p, r.cfg.setups), "ms", r.cfg.setups)
	}
	for _, name := range invokeKinds {
		var p50 float64
		var n int
		for k, kind := range r.w.kinds {
			if kind == name {
				p50, n = r.tr.kindP50(uint8(k))
			}
		}
		add("op."+name+"_p50_us", p50, "us", n)
	}

	// Traced and untraced blocks alternate inside the one window, so
	// the ratio compares like with like.
	var traced, plain []float64
	for b, rate := range blockRates(out.samples, r.w.blockUnits, r.w.unitOps) {
		if tracedBlock(b) {
			traced = append(traced, rate)
		} else {
			plain = append(plain, rate)
		}
	}
	add("trace.overhead_ratio", ratio(median(traced), median(plain)), "ratio", len(traced)+len(plain))
	return rows
}
