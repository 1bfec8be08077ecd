package rmi

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
)

// lossPair runs fn on a proc of the fabric cell with two connected
// stations, "a" and "b"; b's echo service counts its executions.  Loss is
// injected where chaos and every experiment inject it: the fabric's link
// policy, seeded and in virtual time.
func lossPair(t *testing.T, fn func(p sched.Proc, w *lossWorld)) {
	t.Helper()
	ma, mb := simnet.Ultra10_300, simnet.Ultra10_300
	ma.Name, mb.Name = "a", "b"
	w := &lossWorld{world: fabWorld([]simnet.MachineSpec{ma, mb})}
	epA, _ := w.net.Attach("a")
	epB, _ := w.net.Attach("b")
	w.a, w.b = NewStation(w.s, epA), NewStation(w.s, epB)
	w.b.Register("echo", func(p sched.Proc, from, method string, body []byte) ([]byte, error) {
		w.served++
		return body, nil
	})
	w.a.Start()
	w.b.Start()
	w.spawn("caller", func(p sched.Proc) {
		defer w.a.Close()
		defer w.b.Close()
		fn(p, w)
	})
	w.join()
}

type lossWorld struct {
	*world
	a, b   *Station
	served int // written under the run token
}

// setLoss makes every link drop the given fraction of its messages.
func (w *lossWorld) setLoss(rate float64) {
	w.fab.SetLinkPolicy("*", "*", simnet.LinkPolicy{Loss: rate})
}

// dropped is the number of bytes the two stations sent that neither
// received: what the link policy took off the wire.  Tests of recovery
// from loss assert it is non-zero, so a fabric that silently stopped
// losing messages cannot make them pass.
func (w *lossWorld) dropped() int64 {
	st := w.a.Stats().Add(w.b.Stats())
	return st.BytesOut - st.BytesIn
}

// TestTimeoutIsTyped pins the satellite fix: a sync-call timeout is the
// typed ErrTimeout, recognizable with errors.Is even through further
// wrapping, and the message names the call.
func TestTimeoutIsTyped(t *testing.T) {
	lossPair(t, func(p sched.Proc, w *lossWorld) {
		w.setLoss(1)
		_, err := w.a.Call(p, "b", "echo", "m", nil, 15*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("want ErrTimeout, got %v", err)
			return
		}
		wrapped := fmt.Errorf("invoking object: %w", err)
		if !errors.Is(wrapped, ErrTimeout) {
			t.Errorf("ErrTimeout lost through wrapping: %v", wrapped)
			return
		}
		for _, frag := range []string{"echo", "on b"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("timeout error %q does not mention %q", err, frag)
				return
			}
		}
		if w.dropped() == 0 {
			t.Error("the link policy dropped nothing at 100% loss")
		}
	})
}

// TestZeroPolicySingleAttempt: the zero Policy is the historical
// behavior — one attempt, no retries, and requests are not marked
// idempotent (so the receiver keeps no dedup state).
func TestZeroPolicySingleAttempt(t *testing.T) {
	lossPair(t, func(p sched.Proc, w *lossWorld) {
		if _, err := w.a.Call(p, "b", "echo", "m", nil, time.Second); err != nil {
			t.Errorf("clean call: %v", err)
			return
		}
		w.setLoss(1)
		if _, err := w.a.Call(p, "b", "echo", "m", nil, 15*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("lossy call: %v", err)
			return
		}
		st := w.a.Stats()
		if st.Retries != 0 {
			t.Errorf("zero policy retried: %+v", st)
			return
		}
		if bs := w.b.Stats(); bs.Dups != 0 {
			t.Errorf("zero policy produced dedup hits: %+v", bs)
			return
		}
		if w.served != 1 {
			t.Errorf("handler ran %d times, want 1", w.served)
			return
		}
		if w.dropped() == 0 {
			t.Error("the link policy dropped nothing at 100% loss")
		}
	})
}

// TestRetryRecoversFromLoss: with a retry policy, every call survives
// 20% message loss, and the handler runs exactly once per call — the
// receiver's (sender, ID) dedup turns at-least-once resends into
// exactly-once execution even when responses (not requests) are lost.
func TestRetryRecoversFromLoss(t *testing.T) {
	lossPair(t, func(p sched.Proc, w *lossWorld) {
		w.a.SetPolicy(Policy{
			AttemptTimeout: 20 * time.Millisecond,
			Retries:        10,
			Backoff:        2 * time.Millisecond,
			BackoffMax:     20 * time.Millisecond,
			Multiplier:     2,
		})
		w.setLoss(0.2)
		const calls = 40
		for i := 0; i < calls; i++ {
			body, err := w.a.Call(p, "b", "echo", fmt.Sprintf("m%d", i), []byte{byte(i)}, 2*time.Second)
			if err != nil {
				t.Errorf("call %d under 20%% loss: %v", i, err)
				return
			}
			if len(body) != 1 || body[0] != byte(i) {
				t.Errorf("call %d: wrong body %v", i, body)
				return
			}
		}
		if w.served != calls {
			t.Errorf("handler ran %d times for %d calls — dedup failed", w.served, calls)
			return
		}
		if st := w.a.Stats(); st.Retries == 0 {
			t.Error("no retries recorded under 20% loss")
			return
		}
		if w.dropped() == 0 {
			t.Error("the link policy dropped nothing at 20% loss")
		}
	})
}

// TestDedupInFlight: resends arriving while the original execution is
// still running are dropped silently (no second execution, no cached
// response yet), and the original response still completes the call.
func TestDedupInFlight(t *testing.T) {
	s := sched.Real()
	net := NewMem(s, 0)
	epA, _ := net.Attach("a")
	epB, _ := net.Attach("b")
	a := NewStation(s, epA)
	b := NewStation(s, epB)
	var served atomic.Int64
	b.Register("slow", func(p sched.Proc, from, method string, body []byte) ([]byte, error) {
		served.Add(1)
		p.Sleep(60 * time.Millisecond) // slower than several attempt windows
		return []byte("done"), nil
	})
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()
	a.SetPolicy(Policy{
		AttemptTimeout: 10 * time.Millisecond,
		Retries:        8,
		Backoff:        5 * time.Millisecond,
	})
	p := sched.RealProc(s)
	body, err := a.Call(p, "b", "slow", "m", nil, 2*time.Second)
	if err != nil {
		t.Fatalf("slow call with retries: %v", err)
	}
	if string(body) != "done" {
		t.Fatalf("wrong body %q", body)
	}
	if served.Load() != 1 {
		t.Fatalf("slow handler ran %d times, want 1", served.Load())
	}
	if bs := b.Stats(); bs.Dups == 0 {
		t.Fatal("no in-flight duplicates recorded despite resends")
	}
	if as := a.Stats(); as.Retries == 0 {
		t.Fatal("no retries recorded despite a 60ms handler and 10ms attempts")
	}
}

// TestRetryHookFires: the per-retry hook observes each resend.
func TestRetryHookFires(t *testing.T) {
	lossPair(t, func(p sched.Proc, w *lossWorld) {
		hooks := 0
		w.a.SetRetryHook(func(to, service, method string) { hooks++ })
		w.a.SetPolicy(Policy{AttemptTimeout: 10 * time.Millisecond, Retries: 3, Backoff: 2 * time.Millisecond})
		w.setLoss(1)
		if _, err := w.a.Call(p, "b", "echo", "m", nil, time.Second); !errors.Is(err, ErrTimeout) {
			t.Errorf("call at 100%% loss: %v", err)
			return
		}
		if hooks != 3 {
			t.Errorf("retry hook fired %d times, want 3", hooks)
			return
		}
		if w.dropped() == 0 {
			t.Error("the link policy dropped nothing at 100% loss")
		}
	})
}
