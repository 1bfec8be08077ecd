package rmi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
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

// TestReadFrameChecks: a TCP frame decodes into the message it framed,
// and a frame whose kind is out of range, overflows Kind's byte or
// carries another struct's tag fails as corrupt.
func TestReadFrameChecks(t *testing.T) {
	frame := func(body []byte) *bufio.Reader {
		return bufio.NewReader(bytes.NewReader(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)))
	}
	in := Message{From: "a", To: "b", Kind: KindOneWay, ID: 3, Body: []byte("x")}
	body := msgWire.encode(nil, reflect.ValueOf(in))
	if got, err := readFrame(frame(body)); err != nil || !reflect.DeepEqual(*got, in) {
		t.Fatalf("valid frame: %+v, %v", got, err)
	}
	const kindAt = 5 // tag, "a", "b"
	for name, bad := range map[string][]byte{
		"kind 0":      append(append(body[:kindAt:kindAt], 0), body[kindAt+1:]...),
		"kind 300":    append(append(body[:kindAt:kindAt], 0xac, 0x02), body[kindAt+1:]...),
		"batch tag":   append([]byte{tagBatch}, body[1:]...),
		"no such tag": append([]byte{0x7f}, body[1:]...),
	} {
		if _, err := readFrame(frame(bad)); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: %v, want wire.ErrCorrupt", name, err)
		}
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
