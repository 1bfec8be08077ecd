package rmi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"jsymphony/internal/rmi/wire"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
)

func TestCallPaddedChargesWire(t *testing.T) {
	// A padded call must cost transmission time for the pad on the
	// simulated fabric even though no real bytes exist.
	w := fabWorld(simnet.UniformCluster(simnet.Ultra10_300, 2))
	s, net := w.s, w.net
	names := nodeNames(2)
	epA, _ := net.Attach(names[0])
	epB, _ := net.Attach(names[1])
	a := NewStation(s, epA)
	b := NewStation(s, epB)
	b.Register("svc", func(p sched.Proc, from, method string, body []byte) ([]byte, error) {
		return nil, nil
	})
	a.Start()
	b.Start()
	var plain, padded time.Duration
	s.Spawn("caller", func(p sched.Proc) {
		defer a.Close()
		defer b.Close()
		t0 := s.Now()
		if _, err := a.Call(p, names[1], "svc", "m", nil, time.Minute); err != nil {
			t.Errorf("plain: %v", err)
		}
		plain = s.Now() - t0
		t0 = s.Now()
		// 1.25 MB pad over 100 Mbit/s = 100 ms of wire time alone.
		if _, err := a.CallPadded(p, names[1], "svc", "m", nil, 1_250_000, time.Minute); err != nil {
			t.Errorf("padded: %v", err)
		}
		padded = s.Now() - t0
	})
	w.join()
	if padded < plain+90*time.Millisecond {
		t.Fatalf("pad not charged: plain=%v padded=%v", plain, padded)
	}
	if a.Stats().BytesOut < 1_250_000 {
		t.Fatalf("pad missing from byte stats: %d", a.Stats().BytesOut)
	}
}

func TestStaleResponseCounted(t *testing.T) {
	// A response arriving after its call timed out is dropped and
	// counted, not delivered to anyone.
	s := sched.Real()
	net := NewMem(s, 0)
	epA, _ := net.Attach("a")
	epB, _ := net.Attach("b")
	a := NewStation(s, epA)
	b := NewStation(s, epB)
	b.Register("slow", func(p sched.Proc, from, method string, body []byte) ([]byte, error) {
		p.Sleep(80 * time.Millisecond)
		return MustMarshal("late"), nil
	})
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()
	p := sched.RealProc(s)
	if _, err := a.Call(p, "b", "slow", "m", nil, 10*time.Millisecond); err == nil {
		t.Fatal("slow call did not time out")
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().Stale == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stale response never counted: %+v", a.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMessageWireSizeIncludesPad(t *testing.T) {
	m := &Message{Service: "s", Method: "m", From: "a", To: "b", Body: []byte{1, 2, 3}}
	base := m.wireSize()
	m.Pad = 1000
	if m.wireSize() != base+1000 {
		t.Fatalf("wireSize pad wrong: %d vs %d", m.wireSize(), base)
	}
}

func TestCostModelFlops(t *testing.T) {
	cm := CostModel{PerMsgFlops: 100, PerByteFlops: 2}
	if got := cm.flops(10); got != 120 {
		t.Fatalf("flops(10) = %v", got)
	}
}

func TestCloseIsIdempotentAndStopsDispatch(t *testing.T) {
	s := sched.Real()
	net := NewMem(s, 0)
	ep, _ := net.Attach("solo")
	st := NewStation(s, ep)
	st.Start()
	st.Close()
	st.Close()
	// Post after close fails cleanly.
	if err := st.Post(sched.RealProc(s), "solo", "x", "y", nil); err == nil {
		t.Fatal("post after close succeeded")
	}
}

// frameReader frames body as the TCP transport does: a big-endian
// length, then the bytes.
func frameReader(body []byte) *bufio.Reader {
	return bufio.NewReader(bytes.NewReader(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)))
}

// frameCase is a named TCP frame body.
type frameCase struct {
	name string
	body []byte
}

// frameCases is a valid TCP frame body, the message it encodes, and
// named corrupt variants of it: a kind out of range, a kind that
// overflows Kind's byte, and another struct's tag or none at all.
func frameCases() (in Message, body []byte, bad []frameCase) {
	in = Message{From: "a", To: "b", Kind: KindOneWay, ID: 3, Service: "echo", Method: "ping", Body: []byte("x")}
	body = msgWire.encode(nil, reflect.ValueOf(in))
	const kindAt = 5 // tag, "a", "b"
	return in, body, []frameCase{
		{"kind 0", append(append(body[:kindAt:kindAt], 0), body[kindAt+1:]...)},
		{"kind 300", append(append(body[:kindAt:kindAt], 0xac, 0x02), body[kindAt+1:]...)},
		{"batch tag", append([]byte{tagBatch}, body[1:]...)},
		{"no such tag", append([]byte{0x7f}, body[1:]...)},
	}
}

// TestReadFrameChecks: a TCP frame decodes into the message it framed,
// through a cold header table and a warm one, and a frame whose kind is
// out of range, overflows Kind's byte or carries another struct's tag
// fails as corrupt.
func TestReadFrameChecks(t *testing.T) {
	in, body, bad := frameCases()
	names := headerNames{}
	for range 2 { // a cold table, then a warm one
		if got, err := readFrame(frameReader(body), names); err != nil || !reflect.DeepEqual(*got, in) {
			t.Fatalf("valid frame: %+v, %v", got, err)
		}
	}
	for _, c := range bad {
		if _, err := readFrame(frameReader(c.body), names); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: %v, want wire.ErrCorrupt", c.name, err)
		}
	}
}

// TestHeaderNamesBounded: a connection's header table stops growing at
// its bound, strings past the bound or too long to keep still decode
// exactly, and a kept string is handed out again rather than rebuilt.
func TestHeaderNamesBounded(t *testing.T) {
	names := headerNames{}
	long := strings.Repeat("s", maxHeaderNameLen+1)
	for i := 0; i < 3*maxHeaderNames; i++ {
		in := Message{From: fmt.Sprintf("node%04d", i), To: "b", Kind: KindRequest, Service: long, Method: "m"}
		got, err := readFrame(frameReader(msgWire.encode(nil, reflect.ValueOf(in))), names)
		if err != nil || !reflect.DeepEqual(*got, in) {
			t.Fatalf("frame %d: %+v, %v", i, got, err)
		}
	}
	if len(names) != maxHeaderNames {
		t.Fatalf("table holds %d strings, bound %d", len(names), maxHeaderNames)
	}
	if _, kept := names[long]; kept {
		t.Error("table kept a string longer than its bound")
	}
	body := msgWire.encode(nil, reflect.ValueOf(Message{From: "node0000", To: "b", Kind: KindRequest}))
	if allocs := testing.AllocsPerRun(100, func() {
		d := wire.NewDec(body[1:])
		names.read(&d)
	}); allocs != 0 {
		t.Errorf("reading a kept string: %.1f allocs, want 0", allocs)
	}
}

// TestWireBodyTarget: a wire body decodes only into the struct its tag
// names, and an unknown tag is corrupt input.
func TestWireBodyTarget(t *testing.T) {
	body := MustMarshal(&Message{Kind: KindRequest})
	if err := Unmarshal(body, new(Batch)); !errors.Is(err, ErrCodec) || !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("message body into a Batch: %v, want ErrCodec and wire.ErrCorrupt", err)
	}
	if err := Unmarshal([]byte{FormatWire, 0x7f}, new(Message)); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("unknown struct tag: %v, want wire.ErrCorrupt", err)
	}
}
