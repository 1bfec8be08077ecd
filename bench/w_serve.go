package main

import (
	"time"

	"jsymphony"
	"jsymphony/internal/loadgen"
	"jsymphony/workloads/kv"
)

// The serve workload replays a seeded open-loop arrival stream, in
// virtual time, against a replicated shard group with SLOs declared.  A
// request's latency is virtual and belongs to BENCH_serve.json; what is
// timed here is the host cost of simulating a batch of requests.

const (
	serveNodes    = 6
	serveShards   = 3
	serveKeys     = 1024
	serveRate     = 20 // req/s, well under the ~64 req/s the group sustains
	serveArrivals = 60000
	serveWarmup   = 1000
	serveBatch    = 20 // arrivals per host-timed unit: one virtual second
	serveDrainMax = 10 * time.Second
)

var serveClasses = []struct {
	name       string
	share      float64
	target     time.Duration
	percentile float64
}{
	{"gold", 0.10, 400 * time.Millisecond, 99},
	{"silver", 0.20, 750 * time.Millisecond, 95},
	{"bronze", 0.70, 150 * time.Millisecond, 95},
}

// server replays the stream and checks every reply.  The stream wraps
// when a window outlasts it: lap l re-issues the same arrivals shifted
// by l stream lengths, so generation stays in set-up.
type server struct {
	r        *run
	js       *jsymphony.JS
	g        *jsymphony.ShardGroup
	arrivals []loadgen.Arrival
	keyIdx   []int32 // arrival -> key number
	epoch    time.Duration
	issued   int // requests issued so far; request q carries value q+1
	lastAt   time.Duration

	// Everything below is touched by the client procs.  The simulation
	// runs one proc at a time; the harness's run lock orders the
	// accesses for the race detector.
	done    int
	seq     int64   // event counter ordering issues and acks
	issueAt []int64 // per request: seq when issued (writes only)
	ackAt   []int64 // per request: seq when acked, 0 while in flight
	// newestAcked is, per key, the largest issue seq among acked Puts: a
	// read that started after that ack may not return an older Put.
	newestAcked []int64
}

// issue fires the next arrival from the driver proc: sleep until it is
// due, then hand it to a client proc of its own and move on.
func (s *server) issue() {
	n := len(s.arrivals)
	q := s.issued
	s.issued++
	if q%n == 0 {
		s.issueAt = append(s.issueAt, make([]int64, n)...)
		s.ackAt = append(s.ackAt, make([]int64, n)...)
	}
	a := &s.arrivals[q%n]
	key := s.keyIdx[q%n]
	span := s.arrivals[n-1].At
	s.lastAt = s.epoch + time.Duration(q/n)*span + a.At
	if now := s.js.Now(); s.lastAt > now {
		s.js.Sleep(s.lastAt - now)
	}
	s.js.Spawn("client", func(js *jsymphony.JS) {
		g := s.g.With(js)
		r := s.r
		if a.Op == loadgen.OpRead {
			r.mu.Lock()
			s.seq++
			floor := s.newestAcked[key]
			r.mu.Unlock()
			res, err := g.InvokeClass(a.Class, a.Key, "Get", a.Key)
			s.checkRead(q, key, floor, res, err)
			return
		}
		r.mu.Lock()
		s.seq++
		s.issueAt[q] = s.seq
		r.mu.Unlock()
		_, err := g.InvokeClass(a.Class, a.Key, "Put", a.Key, q+1)
		r.mu.Lock()
		s.seq++
		s.ackAt[q] = s.seq
		if s.issueAt[q] > s.newestAcked[key] {
			s.newestAcked[key] = s.issueAt[q]
		}
		s.done++
		r.mu.Unlock()
		if err != nil {
			r.failf("Put %d: %v", q, err)
		}
	})
}

// checkRead accepts the value of a Put to the same key that no other
// Put, acked before the read began, is known to have replaced; absent
// is right only while no Put to the key had been acked.
func (s *server) checkRead(q int, key int32, floor int64, res any, err error) {
	r := s.r
	r.mu.Lock()
	s.done++
	v, _ := res.(int)
	var bad string
	switch n := len(s.arrivals); {
	case err != nil:
		bad = err.Error()
	case v == 0:
		if floor != 0 {
			bad = "absent after an acked Put"
		}
	case v < 0 || v > s.issued || s.keyIdx[(v-1)%n] != key || s.issueAt[v-1] == 0:
		bad = "a value never Put to this key"
	case s.ackAt[v-1] != 0 && s.ackAt[v-1] < floor:
		bad = "a value replaced before the read began"
	}
	r.mu.Unlock()
	if bad != "" {
		r.failf("Get %d returned %v: %s", q, res, bad)
	}
}

// drain waits until every issued request has completed and returns the
// virtual time that took since the last arrival.
func (s *server) drain() time.Duration {
	for {
		s.r.mu.Lock()
		done := s.done
		s.r.mu.Unlock()
		if done == s.issued {
			return s.js.Now() - s.lastAt
		}
		s.js.Sleep(50 * time.Millisecond)
	}
}

var simServe = &workload{
	name: "sim_serve",
	why: "tens of thousands of actors and timers through vclock, the shard router, replica leases and the whole " +
		"telemetry stack (slo, heat, spans, metrics), which sim_invoke barely touches; read-mostly, nothing refused",
	unitOps: serveBatch, blockUnits: 50,
	unitKind: func(int) uint8 { return 0 }, kinds: []string{"batch"},
	run: func(r *run, body func(unit func(i int))) {
		r.phase("load")
		classes := make([]loadgen.Class, len(serveClasses))
		for i, c := range serveClasses {
			classes[i] = loadgen.Class{Name: c.name, Share: c.share, Reads: 0.75}
		}
		arrivals, err := loadgen.Generate(loadgen.Config{
			Seed: r.cfg.seed, Classes: classes, Keys: serveKeys, Rate: serveRate, Ops: serveArrivals,
		})
		r.must(err, "generate arrivals")
		s := &server{r: r, arrivals: arrivals, keyIdx: make([]int32, len(arrivals)), newestAcked: make([]int64, serveKeys)}
		keys := map[string]int32{}
		for i, a := range arrivals {
			k, ok := keys[a.Key]
			if !ok {
				k = int32(len(keys))
				keys[a.Key] = k
			}
			s.keyIdx[i] = k
		}

		r.phase("boot")
		env := jsymphony.NewSimEnv(jsymphony.UniformCluster(jsymphony.Ultra10_300, serveNodes),
			jsymphony.IdleProfile, r.cfg.seed, jsymphony.EnvOptions{})
		for _, c := range serveClasses {
			r.must(env.DeclareSLO(jsymphony.SLO{Class: c.name, Target: c.target, Percentile: c.percentile}), "declare SLO")
		}
		env.RunMain("", func(js *jsymphony.JS) {
			cb := js.NewCodebase()
			r.must(cb.Add(kv.StoreClass), "codebase add")
			r.must(cb.LoadNodes(env.Nodes()...), "codebase load")
			r.phase("create")
			g, err := js.NewShardGroup("kv", kv.StoreClass, jsymphony.ShardSpec{
				Shards: serveShards,
				Replication: &jsymphony.ReplicaPolicy{
					N: 1, Mode: jsymphony.ReplicaStrong, Reads: kv.ReadMethods(),
				},
				InitMethod: "InitRW",
				InitArgs:   []any{2e5, 2e6},
			})
			r.must(err, "create shard group")
			s.js, s.g, s.epoch = js, g, js.Now()

			r.phase("warm")
			for i := 0; i < serveWarmup; i++ {
				s.issue()
			}
			s.drain()
			r.counters = func() modelRows { return simCounters(env) }
			r.model = modelCounters(env)

			body(func(int) {
				for i := 0; i < serveBatch; i++ {
					s.issue()
				}
			})

			r.phase("drain")
			if d := s.drain(); d > serveDrainMax {
				r.failf("backlog took %v of virtual time to drain after the last arrival", d)
			}
			r.phase("shutdown")
		})
		// The SLO engine must have seen every request, and no error.
		var seen, errs int64
		for _, c := range env.SLOReport().Classes {
			seen += c.Count
			errs += c.Errors
		}
		if seen != int64(s.issued) || errs != 0 {
			r.failf("SLO engine saw %d requests and %d errors, %d were issued", seen, errs, s.issued)
		}
	},
}
