package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	"jsymphony"
)

// The invoke workloads drive one remote State object from one
// closed-loop caller through a fixed ten-operation cycle.

const (
	kindSInvoke uint8 = iota
	kindSInvoke1k
	kindAInvoke
	kindOInvoke
)

var invokeKinds = []string{"sinvoke", "sinvoke1k", "ainvoke", "oinvoke"}

// invokeCycle is the mix: six null synchronous calls, two synchronous
// and one asynchronous 1 KiB echo, one one-sided call.
var invokeCycle = [10]uint8{
	kindSInvoke, kindSInvoke, kindSInvoke, kindSInvoke1k, kindSInvoke,
	kindSInvoke, kindSInvoke, kindSInvoke1k, kindAInvoke, kindOInvoke,
}

func invokeKind(i int) uint8 { return invokeCycle[i%len(invokeCycle)] }

const (
	invokeWarmup  = 1000
	invokePayload = 1 << 10
)

// invoker issues the cycle against one object and checks every reply.
type invoker struct {
	r       *run
	obj     *jsymphony.Object
	payload []byte
	n       int // operations issued so far, warm-up included
	seq     int // Pings issued: the next Ping must return seq+1
	bumps   int // OInvokes issued
}

func newInvoker(r *run, obj *jsymphony.Object) *invoker {
	payload := make([]byte, invokePayload)
	rand.New(rand.NewSource(r.cfg.seed)).Read(payload)
	return &invoker{r: r, obj: obj, payload: payload}
}

// op performs the next operation of the cycle.
func (v *invoker) op(int) {
	kind := invokeKind(v.n)
	v.n++
	switch kind {
	case kindSInvoke:
		v.seq++
		res, err := v.obj.SInvoke("Ping")
		if got, _ := res.(int); err != nil || got != v.seq {
			v.r.failf("Ping %d returned %v, %v", v.seq, res, err)
		}
	case kindSInvoke1k:
		// Stamping the call number into the payload makes a reply
		// that belongs to another call fail the comparison.
		binary.LittleEndian.PutUint64(v.payload, uint64(v.n))
		res, err := v.obj.SInvoke("Echo", v.payload)
		v.checkEcho(res, err)
	case kindAInvoke:
		binary.LittleEndian.PutUint64(v.payload, uint64(v.n))
		h, err := v.obj.AInvoke("Echo", v.payload)
		if err != nil {
			v.r.failf("AInvoke Echo: %v", err)
			return
		}
		res, err := h.Result()
		v.checkEcho(res, err)
	case kindOInvoke:
		v.bumps++
		if err := v.obj.OInvoke("Bump"); err != nil {
			v.r.failf("OInvoke Bump: %v", err)
		}
	}
}

func (v *invoker) checkEcho(res any, err error) {
	if got, _ := res.([]byte); err != nil || !bytes.Equal(got, v.payload) {
		v.r.failf("Echo %d returned %d bytes, %v", v.n, len(got), err)
	}
}

// settle waits (untimed) for the one-sided calls still in flight, then
// checks that every one of them ran exactly once.
func (v *invoker) settle(sleep func(time.Duration)) {
	var got int
	for try := 0; try < 2000; try++ {
		res, err := v.obj.SInvoke("Bumped")
		if err != nil {
			v.r.failf("Bumped: %v", err)
			return
		}
		if got = res.(int); got >= v.bumps {
			break
		}
		sleep(time.Millisecond)
	}
	if got != v.bumps {
		v.r.failf("object ran %d one-sided calls, %d were issued", got, v.bumps)
	}
}

// simInvoke runs the cycle on a simulated two-node cluster.
var simInvoke = &workload{
	name: "sim_invoke",
	why: "per-call overhead of the simulated RMI stack: vclock hand-offs, station, message codec, " +
		"core dispatch, reflection and span emission do most of the work, payload bytes almost none",
	unitOps: 1, blockUnits: 10000,
	unitKind: invokeKind, kinds: invokeKinds,
	run: func(r *run, body func(unit func(i int))) {
		r.phase("boot")
		// Night rather than Idle so that the seed reaches the model:
		// the background-load trace moves every virtual duration.
		env := jsymphony.NewSimEnv(jsymphony.UniformCluster(jsymphony.Ultra10_300, 2),
			jsymphony.Night, r.cfg.seed, jsymphony.EnvOptions{})
		env.RunMain("", func(js *jsymphony.JS) {
			r.phase("load")
			loadState(r, js, env.Nodes())
			r.phase("create")
			obj := remoteState(r, js, env.Nodes()[1])
			r.phase("warm")
			v := newInvoker(r, obj)
			for i := 0; i < invokeWarmup; i++ {
				v.op(i)
			}
			r.counters = func() modelRows { return simCounters(env) }
			r.model = modelCounters(env)
			body(v.op)
			r.phase("drain")
			v.settle(js.Sleep)
			r.phase("shutdown")
		})
	},
}

// tcpInvoke runs the same cycle in real time over loopback TCP.
var tcpInvoke = &workload{
	name: "tcp_invoke",
	why: "bypasses vclock and simnet: station framing, the real scheduler, codec, dispatch and reflection " +
		"are shared with sim_invoke, so a kernel or fabric change must leave it unmoved; loopback, not a link",
	unitOps: 1, blockUnits: 10000,
	unitKind: invokeKind, kinds: invokeKinds,
	run: func(r *run, body func(unit func(i int))) {
		r.phase("boot")
		names := []string{"bench-a", "bench-b"}
		// A 50 ms monitoring period keeps both the wait for the first
		// agent reports and Shutdown's two-period grace short.
		env := jsymphony.NewTCPEnv(names, jsymphony.EnvOptions{
			NAS: jsymphony.NASConfig{MonitorPeriod: 50 * time.Millisecond},
		})
		env.Start()
		js, err := env.Attach("")
		r.must(err, "attach")
		var node *jsymphony.Node
		for try := 0; ; try++ {
			if node, err = js.NewNamedNode(names[1]); err == nil {
				break
			}
			if try > 5000 {
				r.must(err, "agents never reported")
			}
			hostSleep(time.Millisecond)
		}
		r.phase("load")
		loadState(r, js, names)
		r.phase("create")
		obj, err := js.NewObject(stateClass, node, nil)
		r.must(err, "create object")
		r.phase("warm")
		v := newInvoker(r, obj)
		for i := 0; i < invokeWarmup; i++ {
			v.op(i)
		}
		body(v.op)
		r.phase("drain")
		v.settle(hostSleep)
		r.phase("shutdown")
		js.Unregister()
		env.Shutdown()
	},
}

// loadState ships the benchmark's class to the named nodes.
func loadState(r *run, js *jsymphony.JS, nodes []string) {
	cb := js.NewCodebase()
	r.must(cb.Add(stateClass), "codebase add")
	r.must(cb.LoadNodes(nodes...), "codebase load")
}

// remoteState creates a State object pinned to the named node.
func remoteState(r *run, js *jsymphony.JS, nodeName string) *jsymphony.Object {
	node, err := js.NewNamedNode(nodeName)
	r.must(err, "allocate node")
	obj, err := js.NewObject(stateClass, node, nil)
	r.must(err, "create object")
	return obj
}

// simCounters reads an environment's exact simulated-work counters —
// virtual time, RMI messages and bytes, WAL traffic — without
// allocating, so a workload may call it between timed units.
func simCounters(env *jsymphony.Env) modelRows {
	w := env.World()
	m := modelRows{virtualMs: float64(w.Sched().Now()) / float64(time.Millisecond)}
	for _, node := range w.Nodes() {
		st := w.MustRuntime(node).Station().Stats()
		m.rmiCalls += float64(st.CallsSent + st.OneWaySent)
		m.rmiBytes += float64(st.BytesOut)
	}
	for _, st := range env.WALStatus() {
		m.walAppends += float64(st.Appends)
		m.walFlushes += float64(st.Flushes)
	}
	return m
}

// modelCounters is simCounters plus the number of spans begun so far.
// Counting spans copies the span ring, so this is for set-up only.
func modelCounters(env *jsymphony.Env) modelRows {
	m := simCounters(env)
	for _, s := range env.Spans() {
		if id := float64(s.ID); id > m.spans {
			m.spans = id
		}
	}
	return m
}
