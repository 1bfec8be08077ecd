package rmi

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
)

// unencodable compiles as a request or reply type, but a value holding
// a channel has no encoding.  It is a protocol struct, so it takes the
// typed glue's unboxed encode.
type unencodable struct{ V any }

const tagUnencodable byte = 0xf4

func init() { RegisterWire(tagUnencodable, unencodable{}) }

// TestMethods drives a Methods table through Typed, Void and Ask on the
// in-memory cell.  A request of the wrong type is a compile error, so
// the encode failure it checks is a value of the right type.
func TestMethods(t *testing.T) {
	var noted string
	table := Methods[*string]{
		"upper": Typed(func(_ *string, _ sched.Proc, s string) (string, error) { return strings.ToUpper(s), nil }),
		"unencodable": Typed(func(_ *string, _ sched.Proc, _ string) (unencodable, error) {
			return unencodable{make(chan int)}, nil
		}),
		"note": Void(func(n *string, _ sched.Proc, s string) error {
			*n = s
			return nil
		}),
	}
	rows := []struct {
		name string
		run  func(t *testing.T, p sched.Proc, st *Station, to string)
	}{
		{"typed round trip", func(t *testing.T, p sched.Proc, st *Station, to string) {
			if got, err := Ask[string, string](p, st, to, "svc", "upper", "hello", time.Second); err != nil || got != "HELLO" {
				t.Errorf("Ask upper = %q, %v", got, err)
			}
		}},
		{"void reply has no body", func(t *testing.T, p sched.Proc, st *Station, to string) {
			body, err := st.Call(p, to, "svc", "note", MustMarshal("x"), time.Second)
			if err != nil || len(body) != 0 || noted != "x" {
				t.Errorf("note: body %x, err %v, noted %q", body, err, noted)
			}
		}},
		{"undecodable request", func(t *testing.T, p sched.Proc, st *Station, to string) {
			_, err := st.Call(p, to, "svc", "upper", []byte{0xff}, time.Second)
			var re *RemoteError
			if !errors.As(err, &re) || !strings.HasPrefix(re.Msg, ErrCodec.Error()) {
				t.Errorf("undecodable request: err = %v, want a RemoteError with the %q text", err, ErrCodec)
			}
		}},
		{"unencodable request is never sent", func(t *testing.T, p sched.Proc, st *Station, to string) {
			sent := st.Stats().CallsSent
			if _, err := Ask[unencodable, string](p, st, to, "svc", "upper", unencodable{make(chan int)}, time.Second); !errors.Is(err, ErrCodec) {
				t.Errorf("Ask with a channel: err = %v, want ErrCodec", err)
			}
			if st.Stats().CallsSent != sent {
				t.Error("Ask sent a request it could not encode")
			}
		}},
		{"unencodable reply fails the call, not the node", func(t *testing.T, p sched.Proc, st *Station, to string) {
			_, err := Ask[string, unencodable](p, st, to, "svc", "unencodable", "x", time.Second)
			var re *RemoteError
			if !errors.As(err, &re) || !strings.HasPrefix(re.Msg, ErrCodec.Error()) {
				t.Errorf("unencodable reply: err = %v, want a RemoteError with the %q text", err, ErrCodec)
			}
			if got, err := Ask[string, string](p, st, to, "svc", "upper", "again", time.Second); err != nil || got != "AGAIN" {
				t.Errorf("after the unencodable reply: Ask upper = %q, %v", got, err)
			}
		}},
		{"unknown method", func(t *testing.T, p sched.Proc, st *Station, to string) {
			if _, err := st.Call(p, to, "svc", "nosuch", nil, time.Second); !IsRemote(err, `rmi: no method "nosuch"`) {
				t.Errorf("unknown method: err = %v", err)
			}
		}},
	}
	w := realWorld("mem-real", func(s sched.Sched) Network { return NewMem(s, 100*time.Microsecond) })
	names := nodeNames(2)
	a := newStation(t, w, names[0])
	b := newStation(t, w, names[1])
	b.Register("svc", table.Serve(&noted))
	w.spawn("caller", func(p sched.Proc) {
		defer a.Close()
		defer b.Close()
		for _, r := range rows {
			t.Run(r.name, func(t *testing.T) { r.run(t, p, a, names[1]) })
		}
	})
	w.join()
}

// TestMarshalUnencodableInsideAny: a value the codec cannot encode deep
// inside a layout is Marshal's error, not a panic; MustMarshal panics.
func TestMarshalUnencodableInsideAny(t *testing.T) {
	v := struct{ V any }{make(chan int)}
	if _, err := Marshal(v); !errors.Is(err, ErrCodec) {
		t.Fatalf("Marshal = %v, want ErrCodec", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustMarshal did not panic")
		}
	}()
	MustMarshal(v)
}

// keptReq is a protocol struct with every kind of field a decoded
// request shares with something: a top-level []byte aliases the body it
// arrived in (DESIGN.md §15), and the []string, string and []any are
// the decode's own allocations.
type keptReq struct {
	Data  []byte
	Names []string
	Name  string
	Args  []any
}

const tagKeptReq byte = 0xf3

func init() { RegisterWire(tagKeptReq, keptReq{}) }

// keptFor is the request caller c sends on its i-th call.
func keptFor(c, i int) keptReq {
	id := fmt.Sprintf("%d.%d", c, i)
	return keptReq{
		Data:  []byte("data-" + id),
		Names: []string{"a-" + id, "b-" + id},
		Name:  id,
		Args:  []any{i, "arg-" + id, c%2 == 0},
	}
}

// TestTypedScratchRetention: a request decodes into pooled scratch that
// the next request reuses, so a handler must get a copy that shares
// nothing the scratch is later cleared of.  A Void and a Typed handler
// each keep every request they get; after 200 calls, from 4 concurrent
// callers, every kept request still equals what was sent.  On the
// real-time cell the callers run in parallel, so the pool is shared
// across goroutines.
func TestTypedScratchRetention(t *testing.T) {
	const callers, calls = 4, 50
	for _, w := range []*world{
		fabWorld(simnet.UniformCluster(simnet.Ultra10_300, 2)),
		realWorld("mem-real", func(s sched.Sched) Network { return NewMem(s, 0) }),
	} {
		t.Run(w.name, func(t *testing.T) {
			var mu sync.Mutex
			kept := map[string][]keptReq{}
			keep := func(method string, r keptReq) {
				mu.Lock()
				kept[method] = append(kept[method], r)
				mu.Unlock()
			}
			table := Methods[struct{}]{
				"void": Void(func(_ struct{}, _ sched.Proc, r keptReq) error {
					keep("void", r)
					return nil
				}),
				"typed": Typed(func(_ struct{}, _ sched.Proc, r keptReq) (keptReq, error) {
					keep("typed", r)
					return r, nil
				}),
			}
			names := nodeNames(2)
			a, b := newStation(t, w, names[0]), newStation(t, w, names[1])
			b.Register("keep", table.Serve(struct{}{}))
			done := w.s.NewQueue("done")
			for c := 0; c < callers; c++ {
				w.spawn(fmt.Sprintf("caller%d", c), func(p sched.Proc) {
					defer done.Put(c, 0)
					for i := 0; i < calls; i++ {
						req := keptFor(c, i)
						if _, err := a.Call(p, names[1], "keep", "void", MustMarshal(req), 10*time.Second); err != nil {
							t.Errorf("void: %v", err)
							return
						}
						if echo, err := Ask[keptReq, keptReq](p, a, names[1], "keep", "typed", req, 10*time.Second); err != nil || !reflect.DeepEqual(echo, req) {
							t.Errorf("typed: %+v, %v; want %+v", echo, err, req)
							return
						}
					}
				})
			}
			w.spawn("closer", func(p sched.Proc) {
				for c := 0; c < callers; c++ {
					p.Recv(done)
				}
				a.Close()
				b.Close()
			})
			w.join()
			for _, method := range []string{"void", "typed"} {
				got := kept[method]
				if len(got) != callers*calls {
					t.Errorf("%s kept %d requests, want %d", method, len(got), callers*calls)
				}
				for _, r := range got {
					var c, i int
					if _, err := fmt.Sscanf(r.Name, "%d.%d", &c, &i); err != nil {
						t.Fatalf("%s kept a request named %q", method, r.Name)
					}
					if want := keptFor(c, i); !reflect.DeepEqual(r, want) {
						t.Errorf("%s: a kept request reads %+v, want %+v", method, r, want)
					}
				}
			}
		})
	}
}
