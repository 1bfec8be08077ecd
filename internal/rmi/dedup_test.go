package rmi

import (
	"fmt"
	"testing"
	"time"

	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
)

// soloStation runs fn against a station whose dedup table can be driven
// directly; no network traffic is needed to exercise the idempotency
// bookkeeping.  The station lives on a virtual clock, so fn waits out
// dedupTTL by sleeping for free.
func soloStation(t *testing.T, fn func(st *Station, p sched.Proc)) {
	t.Helper()
	w := fabWorld(simnet.UniformCluster(simnet.Ultra10_300, 1))
	ep, _ := w.net.Attach(nodeNames(1)[0])
	st := NewStation(w.s, ep)
	w.spawn("driver", func(p sched.Proc) {
		defer st.Close()
		fn(st, p)
	})
	w.join()
}

func idemMsg(from string, id uint64) *Message {
	return &Message{From: from, To: "n", Kind: KindRequest, ID: id, Idem: true}
}

// TestDedupTTLExpiry: entries older than dedupTTL are garbage
// collected, and a duplicate arriving after expiry is treated as fresh
// (re-executed) rather than answered from a cache that no longer exists.
func TestDedupTTLExpiry(t *testing.T) {
	soloStation(t, func(st *Station, p sched.Proc) {
		for i := uint64(0); i < 10; i++ {
			if _, dup := st.dedupCheck(idemMsg("a", i)); dup {
				t.Fatalf("fresh request %d reported as duplicate", i)
			}
		}
		if got := st.DedupSize(); got != 10 {
			t.Fatalf("DedupSize = %d, want 10", got)
		}
		// Within the TTL a resend is a duplicate.
		p.Sleep(dedupTTL - time.Millisecond)
		if _, dup := st.dedupCheck(idemMsg("a", 3)); !dup {
			t.Fatal("resend inside the TTL not deduplicated")
		}
		p.Sleep(time.Millisecond)
		if got := st.DedupSize(); got != 0 {
			t.Fatalf("DedupSize after TTL = %d, want 0", got)
		}
		// The order slice was fully reclaimed, not just re-sliced.
		st.mu.Lock()
		head, n := st.dedupHead, len(st.dedupOrder)
		st.mu.Unlock()
		if head != 0 || n != 0 {
			t.Fatalf("order slice not compacted: head=%d len=%d", head, n)
		}
		// A late retry past the TTL is fresh again (re-execution is the
		// documented trade-off of a finite window).
		if _, dup := st.dedupCheck(idemMsg("a", 3)); dup {
			t.Fatal("retry after TTL still deduplicated against freed entry")
		}
	})
}

// TestDedupCapEviction: the dedupMax FIFO cap still applies with the
// head-index scheme, and the live count matches the order window.
func TestDedupCapEviction(t *testing.T) {
	soloStation(t, func(st *Station, p sched.Proc) { // no time passes: TTL out of the way
		for i := uint64(0); i < dedupMax+32; i++ {
			st.dedupCheck(idemMsg("a", i))
		}
		if got := st.DedupSize(); got != dedupMax {
			t.Fatalf("DedupSize = %d, want %d", got, dedupMax)
		}
		st.mu.Lock()
		live := len(st.dedupOrder) - st.dedupHead
		ok := live == len(st.dedup)
		st.mu.Unlock()
		if !ok {
			t.Fatalf("order window (%d) out of sync with map", live)
		}
		// The oldest entries were evicted: id 0 is fresh again.
		if _, dup := st.dedupCheck(idemMsg("a", 0)); dup {
			t.Fatal("evicted entry still answers as duplicate")
		}
	})
}

// TestDedupStoreAfterExpiry: storing a response for an entry the GC
// already dropped is a harmless no-op.
func TestDedupStoreAfterExpiry(t *testing.T) {
	soloStation(t, func(st *Station, p sched.Proc) {
		msg := idemMsg("a", 1)
		st.dedupCheck(msg)
		p.Sleep(dedupTTL + time.Millisecond)
		st.DedupSize() // forces the sweep
		st.dedupStore(msg, &Message{Kind: KindResponse})
		if got := st.DedupSize(); got != 0 {
			t.Fatalf("dedupStore resurrected an expired entry: size %d", got)
		}
	})
}

// TestDedupBoundedUnderLoss is the regression for the unbounded-table
// leak: a receiver under sustained loss-heavy retry traffic keeps its
// idempotency table (and the backing array of its eviction order) sized
// to the TTL window, not to the lifetime call count — previously the
// order slice was advanced with order = order[1:], which pins the whole
// backing array, and entries were never aged out below the cap.
func TestDedupBoundedUnderLoss(t *testing.T) {
	lossPair(t, func(p sched.Proc, w *lossWorld) {
		a, b := w.a, w.b
		a.SetPolicy(Policy{
			AttemptTimeout: 20 * time.Millisecond,
			Retries:        10,
			Backoff:        2 * time.Millisecond,
			BackoffMax:     20 * time.Millisecond,
			Multiplier:     2,
		})
		w.setLoss(0.3)
		// One call every 200ms: the sequence spans two dedupTTL windows,
		// and the TTL far exceeds the caller's whole retry window
		// (~0.4s with the policy above), so no late retry re-executes.
		const calls = 300
		peak := 0
		for i := 0; i < calls; i++ {
			if _, err := a.Call(p, "b", "echo", fmt.Sprintf("m%d", i), nil, 2*time.Second); err != nil {
				t.Errorf("call %d under loss: %v", i, err)
				return
			}
			if n := b.DedupSize(); n > peak {
				peak = n
			}
			p.Sleep(200 * time.Millisecond)
		}
		if w.served != calls {
			t.Errorf("handler ran %d times for %d calls — dedup broke under GC", w.served, calls)
		}
		if w.dropped() == 0 {
			t.Error("the link policy dropped nothing at 30% loss")
		}
		if peak >= calls {
			t.Errorf("dedup table grew to %d entries over %d calls — TTL never pruned", peak, calls)
		}
		// Once traffic stops and the TTL passes, everything is reclaimed
		// and the order slice's backing array is bounded by the peak
		// window (2× for the dead prefix, 2× for append growth), not the
		// call count.
		p.Sleep(dedupTTL)
		if n := b.DedupSize(); n != 0 {
			t.Errorf("idle table still holds %d entries", n)
		}
		b.mu.Lock()
		orderCap := cap(b.dedupOrder)
		b.mu.Unlock()
		if orderCap > 4*peak+64 {
			t.Errorf("order backing array cap %d vs peak live %d — prefix never reclaimed", orderCap, peak)
		}
	})
}
