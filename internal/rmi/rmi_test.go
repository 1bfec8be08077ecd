package rmi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/vclock"
)

// world bundles one test network with helpers to run procs to completion.
type world struct {
	name  string
	s     sched.Sched
	net   Network
	fab   *simnet.Fabric // fabric cell only: where wire faults are injected
	join  func()
	spawn func(string, func(sched.Proc))
}

// worlds builds the transport/scheduler cells the protocol suite must
// pass on: the three an Env constructor builds.  Node names must come
// from nodeNames(n).
func worlds(t *testing.T, nodes int) []*world {
	t.Helper()
	return []*world{
		fabWorld(simnet.UniformCluster(simnet.Ultra10_300, nodes)),                                    // NewSimEnv
		realWorld("mem-real", func(s sched.Sched) Network { return NewMem(s, 100*time.Microsecond) }), // NewLocalEnv
		realWorld("tcp-real", func(s sched.Sched) Network { return NewTCP(s) }),                       // NewTCPEnv
	}
}

// fabWorld is the simulated fabric under virtual time.  Stations started
// and callers spawned before join queue in spawn order (vclock.New).
func fabWorld(specs []simnet.MachineSpec) *world {
	c := vclock.New()
	s := sched.Virtual(c)
	fab := simnet.New(c, specs, simnet.Idle, 1)
	return &world{
		name:  "fab-virtual",
		s:     s,
		net:   NewFab(fab, DefaultCost),
		fab:   fab,
		join:  c.Run,
		spawn: s.Spawn,
	}
}

// realWorld is a real-time cell over the transport mk builds.
func realWorld(name string, mk func(sched.Sched) Network) *world {
	s := sched.Real()
	wg := new(sync.WaitGroup)
	return &world{
		name: name,
		s:    s,
		net:  mk(s),
		join: wg.Wait,
		spawn: func(name string, fn func(sched.Proc)) {
			wg.Add(1)
			s.Spawn(name, func(p sched.Proc) { defer wg.Done(); fn(p) })
		},
	}
}

// nodeNames matches simnet.UniformCluster naming.
func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node%02d", i)
	}
	return names
}

// newStation attaches and starts a station with an echo service.
func newStation(t *testing.T, w *world, node string) *Station {
	t.Helper()
	ep, err := w.net.Attach(node)
	if err != nil {
		t.Fatalf("attach %s: %v", node, err)
	}
	st := NewStation(w.s, ep)
	st.Register("echo", func(p sched.Proc, from, method string, body []byte) ([]byte, error) {
		switch method {
		case "ping":
			return body, nil
		case "upper":
			var s string
			if err := Unmarshal(body, &s); err != nil {
				return nil, err
			}
			return MustMarshal(strings.ToUpper(s)), nil
		case "fail":
			return nil, errors.New("boom")
		case "slow":
			p.Sleep(50 * time.Millisecond)
			return body, nil
		}
		return nil, fmt.Errorf("unknown method %q", method)
	})
	st.Start()
	return st
}

func TestCallRoundTrip(t *testing.T) {
	for _, w := range worlds(t, 2) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			names := nodeNames(2)
			a := newStation(t, w, names[0])
			b := newStation(t, w, names[1])
			w.spawn("caller", func(p sched.Proc) {
				defer a.Close()
				defer b.Close()
				body, err := a.Call(p, names[1], "echo", "upper", MustMarshal("hello"), 5*time.Second)
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				var s string
				if err := Unmarshal(body, &s); err != nil || s != "HELLO" {
					t.Errorf("got %q, %v", s, err)
				}
			})
			w.join()
		})
	}
}

func TestCallRemoteError(t *testing.T) {
	for _, w := range worlds(t, 2) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			names := nodeNames(2)
			a := newStation(t, w, names[0])
			b := newStation(t, w, names[1])
			w.spawn("caller", func(p sched.Proc) {
				defer a.Close()
				defer b.Close()
				_, err := a.Call(p, names[1], "echo", "fail", nil, 5*time.Second)
				var re *RemoteError
				if !errors.As(err, &re) || re.Msg != "boom" {
					t.Errorf("err = %v, want RemoteError(boom)", err)
				}
				if !IsRemote(err, "boom") {
					t.Error("IsRemote failed to match")
				}
			})
			w.join()
		})
	}
}

func TestCallNoService(t *testing.T) {
	for _, w := range worlds(t, 2) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			names := nodeNames(2)
			a := newStation(t, w, names[0])
			b := newStation(t, w, names[1])
			w.spawn("caller", func(p sched.Proc) {
				defer a.Close()
				defer b.Close()
				_, err := a.Call(p, names[1], "nosuch", "m", nil, 5*time.Second)
				if !errors.Is(err, ErrNoService) {
					t.Errorf("err = %v, want ErrNoService", err)
				}
			})
			w.join()
		})
	}
}

func TestCallNoRoute(t *testing.T) {
	for _, w := range worlds(t, 2) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			names := nodeNames(2)
			a := newStation(t, w, names[0])
			w.spawn("caller", func(p sched.Proc) {
				defer a.Close()
				_, err := a.Call(p, "ghost", "echo", "ping", nil, time.Second)
				if !errors.Is(err, ErrNoRoute) {
					t.Errorf("err = %v, want ErrNoRoute", err)
				}
			})
			w.join()
		})
	}
}

func TestCallTimeout(t *testing.T) {
	// A station that never answers: register a service whose handler
	// blocks far longer than the timeout.
	for _, w := range worlds(t, 2) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			names := nodeNames(2)
			a := newStation(t, w, names[0])
			ep, err := w.net.Attach(names[1])
			if err != nil {
				t.Fatal(err)
			}
			b := NewStation(w.s, ep)
			b.Register("tar", func(p sched.Proc, from, method string, body []byte) ([]byte, error) {
				p.Sleep(10 * time.Second)
				return nil, nil
			})
			b.Start()
			w.spawn("caller", func(p sched.Proc) {
				defer a.Close()
				defer b.Close()
				_, err := a.Call(p, names[1], "tar", "pit", nil, 30*time.Millisecond)
				if !errors.Is(err, ErrTimeout) {
					t.Errorf("err = %v, want ErrTimeout", err)
				}
				if a.Stats().Timeouts != 1 {
					t.Errorf("timeouts = %d, want 1", a.Stats().Timeouts)
				}
			})
			w.join()
		})
	}
}

// TestCallUnboundedTimeout: a budget past the end of time saturates
// instead of wrapping the call's deadline into the past, so a call that
// starts after time zero retries a slow request until its response
// arrives instead of giving up after the first attempt.
func TestCallUnboundedTimeout(t *testing.T) {
	for _, w := range worlds(t, 2) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			names := nodeNames(2)
			a := newStation(t, w, names[0])
			b := newStation(t, w, names[1])
			a.SetPolicy(Policy{AttemptTimeout: 10 * time.Millisecond, Retries: 8, Backoff: 5 * time.Millisecond})
			w.spawn("caller", func(p sched.Proc) {
				defer a.Close()
				defer b.Close()
				p.Sleep(time.Millisecond)
				if _, err := a.Call(p, names[1], "echo", "slow", nil, math.MaxInt64); err != nil {
					t.Errorf("call with an unbounded budget: %v", err)
				}
			})
			w.join()
		})
	}
}

func TestPostOneWay(t *testing.T) {
	for _, w := range worlds(t, 2) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			names := nodeNames(2)
			got := w.s.NewQueue("got")
			a := newStation(t, w, names[0])
			ep, err := w.net.Attach(names[1])
			if err != nil {
				t.Fatal(err)
			}
			b := NewStation(w.s, ep)
			b.Register("sink", func(p sched.Proc, from, method string, body []byte) ([]byte, error) {
				var v int
				if err := Unmarshal(body, &v); err != nil {
					t.Errorf("unmarshal: %v", err)
				}
				got.Put(v, 0)
				return nil, nil
			})
			b.Start()
			w.spawn("caller", func(p sched.Proc) {
				defer a.Close()
				defer b.Close()
				for i := 0; i < 3; i++ {
					if err := a.Post(p, names[1], "sink", "put", MustMarshal(i)); err != nil {
						t.Errorf("post: %v", err)
					}
				}
				// Handlers run on their own procs, so arrival order is
				// not guaranteed — check the set.
				seen := map[int]bool{}
				for i := 0; i < 3; i++ {
					v, ok := p.RecvTimeout(got, 5*time.Second)
					if !ok {
						t.Errorf("delivery %d missing", i)
						continue
					}
					seen[v.(int)] = true
				}
				for i := 0; i < 3; i++ {
					if !seen[i] {
						t.Errorf("message %d never delivered", i)
					}
				}
				if s := a.Stats(); s.OneWaySent != 3 {
					t.Errorf("OneWaySent = %d, want 3", s.OneWaySent)
				}
			})
			w.join()
		})
	}
}

func TestConcurrentCalls(t *testing.T) {
	// Many outstanding calls from one station must all be matched to
	// their own responses (ID correlation), even with a slow one mixed in.
	for _, w := range worlds(t, 2) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			names := nodeNames(2)
			a := newStation(t, w, names[0])
			b := newStation(t, w, names[1])
			const n = 8
			results := w.s.NewQueue("results")
			for i := 0; i < n; i++ {
				i := i
				w.spawn("caller", func(p sched.Proc) {
					method := "upper"
					arg := fmt.Sprintf("msg-%d", i)
					if i == 0 {
						method = "slow"
					}
					body, err := a.Call(p, names[1], "echo", method, MustMarshal(arg), 10*time.Second)
					if err != nil {
						results.Put(err, 0)
						return
					}
					var s string
					_ = Unmarshal(body, &s)
					results.Put(strings.ToLower(s), 0)
				})
			}
			w.spawn("collect", func(p sched.Proc) {
				defer a.Close()
				defer b.Close()
				seen := map[string]bool{}
				for i := 0; i < n; i++ {
					v, ok := p.RecvTimeout(results, 20*time.Second)
					if !ok {
						t.Error("missing result")
						return
					}
					if err, isErr := v.(error); isErr {
						t.Errorf("call error: %v", err)
						continue
					}
					seen[v.(string)] = true
				}
				for i := 0; i < n; i++ {
					if !seen[fmt.Sprintf("msg-%d", i)] {
						t.Errorf("result msg-%d missing (cross-matched responses?)", i)
					}
				}
			})
			w.join()
		})
	}
}

func TestSelfCall(t *testing.T) {
	// A station calling a service on its own node exercises the
	// loopback path of every transport.
	for _, w := range worlds(t, 1) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			names := nodeNames(1)
			a := newStation(t, w, names[0])
			w.spawn("caller", func(p sched.Proc) {
				defer a.Close()
				body, err := a.Call(p, names[0], "echo", "ping", MustMarshal(42), 5*time.Second)
				if err != nil {
					t.Errorf("self call: %v", err)
					return
				}
				var v int
				if err := Unmarshal(body, &v); err != nil || v != 42 {
					t.Errorf("got %d, %v", v, err)
				}
			})
			w.join()
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	w := fabWorld(simnet.UniformCluster(simnet.Ultra10_300, 2)) // deterministic
	names := nodeNames(2)
	a := newStation(t, w, names[0])
	b := newStation(t, w, names[1])
	w.spawn("caller", func(p sched.Proc) {
		defer a.Close()
		defer b.Close()
		for i := 0; i < 5; i++ {
			if _, err := a.Call(p, names[1], "echo", "ping", MustMarshal(i), time.Second); err != nil {
				t.Errorf("call: %v", err)
			}
		}
		a.Post(p, names[1], "echo", "ping", nil)
		sa, sb := a.Stats(), b.Stats()
		if sa.CallsSent != 5 || sa.OneWaySent != 1 {
			t.Errorf("a stats = %+v", sa)
		}
		if sb.Served < 5 || sb.BytesIn == 0 {
			t.Errorf("b stats = %+v", sb)
		}
		if sa.BytesOut == 0 || sa.BytesIn == 0 {
			t.Errorf("byte counters zero: %+v", sa)
		}
		total := sa.Add(sb)
		if total.CallsSent != 5 {
			t.Errorf("aggregate = %+v", total)
		}
	})
	w.join()
}

func TestRegisterDynamic(t *testing.T) {
	s := sched.Real()
	net := NewMem(s, 0)
	ep, _ := net.Attach("n")
	st := NewStation(s, ep)
	st.Start()
	defer st.Close()
	st.Register("late", func(p sched.Proc, from, method string, body []byte) ([]byte, error) {
		return MustMarshal("ok"), nil
	})
	p := sched.RealProc(s)
	body, err := st.Call(p, "n", "late", "m", nil, time.Second)
	if err != nil {
		t.Fatalf("call to late-registered service: %v", err)
	}
	var got string
	if Unmarshal(body, &got) != nil || got != "ok" {
		t.Fatalf("got %q", got)
	}
	st.Unregister("late")
	if _, err := st.Call(p, "n", "late", "m", nil, time.Second); !errors.Is(err, ErrNoService) {
		t.Fatalf("after Unregister: %v, want ErrNoService", err)
	}
	// Duplicate registration of a live name still panics.
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	st.Register("echo", nil)
	st.Register("echo", nil)
}

func TestDuplicateAttach(t *testing.T) {
	s := sched.Real()
	for _, net := range []Network{NewMem(s, 0), NewTCP(s)} {
		if _, err := net.Attach("x"); err != nil {
			t.Fatalf("first attach: %v", err)
		}
		if _, err := net.Attach("x"); err == nil {
			t.Fatalf("%T: duplicate attach accepted", net)
		}
	}
}

func TestCallAfterClose(t *testing.T) {
	s := sched.Real()
	net := NewMem(s, 0)
	ep, _ := net.Attach("n")
	st := NewStation(s, ep)
	st.Start()
	st.Close()
	st.Close() // idempotent
	_, err := st.Call(sched.RealProc(s), "n", "echo", "ping", nil, time.Second)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	type payload struct {
		A int
		B string
		C []float32
	}
	in := payload{A: 7, B: "x", C: []float32{1, 2, 3}}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != in.A || out.B != in.B || len(out.C) != 3 || out.C[2] != 3 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestMarshalError(t *testing.T) {
	if _, err := Marshal(make(chan int)); err == nil {
		t.Fatal("marshal of channel succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustMarshal did not panic")
		}
	}()
	MustMarshal(make(chan int))
}

func TestFabAttachUnknownMachine(t *testing.T) {
	c := vclock.New()
	fab := simnet.New(c, simnet.UniformCluster(simnet.Ultra10_300, 1), simnet.Idle, 1)
	n := NewFab(fab, DefaultCost)
	if _, err := n.Attach("ghost"); err == nil {
		t.Fatal("attach to unknown machine accepted")
	}
}

func TestTCPRequiresReal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTCP accepted a virtual scheduler")
		}
	}()
	NewTCP(sched.Virtual(vclock.New()))
}

func TestFabCallCostsVirtualTime(t *testing.T) {
	// On the simulated fabric a call must consume virtual time: CPU
	// marshalling cost + NIC + latency, both ways.
	w := fabWorld(simnet.UniformCluster(simnet.Ultra10_300, 2))
	s := w.s
	names := nodeNames(2)
	a := newStation(t, w, names[0])
	b := newStation(t, w, names[1])
	var rtt time.Duration
	w.spawn("caller", func(p sched.Proc) {
		defer a.Close()
		defer b.Close()
		start := s.Now()
		if _, err := a.Call(p, names[1], "echo", "ping", MustMarshal(1), 10*time.Second); err != nil {
			t.Errorf("call: %v", err)
		}
		rtt = s.Now() - start
	})
	w.join()
	// Two messages, each ~100k flops at 95 MFlop/s ≈ 1.05 ms, plus two
	// 300 µs latencies: expect ~2.7 ms, certainly within [1ms, 10ms].
	if rtt < time.Millisecond || rtt > 10*time.Millisecond {
		t.Fatalf("simulated RTT = %v, want ~2-3ms", rtt)
	}
}

// TestReplyQueueReuse pins when a call's reply queue goes back to the
// station's free list: after a call whose one response was consumed,
// and never after a call that timed out, or that met Close.  A response
// may still land in the queue of a call that gave up (the dispatch loop
// took the pending entry just before the caller did), so a queue
// recycled on those paths could hand it to the next call.
func TestReplyQueueReuse(t *testing.T) {
	w := fabWorld(simnet.UniformCluster(simnet.Ultra10_300, 2))
	names := nodeNames(2)
	a := newStation(t, w, names[0])
	b := newStation(t, w, names[1])
	pooled := func() int {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.replies)
	}
	w.spawn("caller", func(p sched.Proc) {
		defer b.Close()
		call := func(arg string, timeout time.Duration) (string, error) {
			body, err := a.Call(p, names[1], "echo", "upper", MustMarshal(arg), timeout)
			if err != nil {
				return "", err
			}
			var s string
			if err := Unmarshal(body, &s); err != nil {
				t.Fatal(err)
			}
			return s, nil
		}
		if got, err := call("one", time.Second); got != "ONE" || err != nil {
			t.Fatalf("first call: %q, %v", got, err)
		}
		if n := pooled(); n != 1 {
			t.Fatalf("%d queues pooled after a call that succeeded, want 1", n)
		}
		if got, err := call("two", time.Microsecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("call with a budget shorter than a round trip: %q, %v; want a timeout", got, err)
		}
		if n := pooled(); n != 0 {
			t.Fatalf("%d queues pooled after a call that timed out, want 0", n)
		}
		if got, err := call("three", time.Second); got != "THREE" || err != nil {
			t.Fatalf("call after a timeout: %q, %v", got, err)
		}
		done := w.s.NewQueue("done")
		w.spawn("closer", func(p sched.Proc) {
			p.Sleep(time.Microsecond) // the call below is in flight
			a.Close()
			done.Put(true, 0)
		})
		if _, err := a.Call(p, names[1], "echo", "slow", nil, time.Second); !errors.Is(err, ErrClosed) {
			t.Fatalf("call met Close: %v", err)
		}
		p.Recv(done)
		if n := pooled(); n != 0 {
			t.Fatalf("%d queues pooled after a call that met Close, want 0", n)
		}
	})
	w.join()
}
