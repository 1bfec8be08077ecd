package rmi

import (
	"errors"
	"strings"
	"testing"
	"time"

	"jsymphony/internal/sched"
)

// TestMethods drives a Methods table through Typed, Void and Ask on the
// in-memory cell.
func TestMethods(t *testing.T) {
	var noted string
	table := Methods[*string]{
		"upper": Typed(func(_ *string, _ sched.Proc, s string) (string, error) { return strings.ToUpper(s), nil }),
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
			if got, err := Ask[string](p, st, to, "svc", "upper", "hello", time.Second); err != nil || got != "HELLO" {
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
			if _, err := Ask[string](p, st, to, "svc", "upper", make(chan int), time.Second); !errors.Is(err, ErrCodec) {
				t.Errorf("Ask with a channel: err = %v, want ErrCodec", err)
			}
			if st.Stats().CallsSent != sent {
				t.Error("Ask sent a request it could not encode")
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
