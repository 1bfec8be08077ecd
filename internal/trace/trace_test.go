package trace

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestLogBasics(t *testing.T) {
	l := NewLog(8)
	if l.Len() != 0 {
		t.Fatal("new log not empty")
	}
	l.Emit(Event{Kind: ObjCreated, Node: "a", App: "app:1", Obj: 1, Detail: "C"})
	l.Emit(Event{Kind: ObjMigrated, Node: "b", App: "app:1", Obj: 1, Detail: "a -> b"})
	l.Emit(Event{Kind: NodeFailed, Node: "c"})
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	evs := l.Events()
	if evs[0].Kind != ObjCreated || evs[2].Kind != NodeFailed {
		t.Fatalf("order wrong: %v", evs)
	}
	// Sequence numbers are strictly increasing.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatal("sequence numbers not increasing")
		}
	}
	if got := l.Filter(ObjMigrated); len(got) != 1 || got[0].Detail != "a -> b" {
		t.Fatalf("Filter = %v", got)
	}
	out := l.String()
	for _, want := range []string{"obj.created", "obj.migrated", "node.failed", "app:1/1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String missing %q:\n%s", want, out)
		}
	}
}

func TestLogBounded(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 10; i++ {
		l.Emit(Event{Kind: ObjCreated, Obj: uint64(i)})
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	if evs[0].Obj != 6 || evs[3].Obj != 9 {
		t.Fatalf("wrong window: %v", evs)
	}
}

func TestEmptyLogString(t *testing.T) {
	if NewLog(4).String() != "(no events)\n" {
		t.Fatal("empty rendering wrong")
	}
	if NewLog(0).cap != 1 {
		t.Fatal("cap clamp missing")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1500 * time.Millisecond, Kind: ObjStored, Node: "n", App: "a", Obj: 7, Detail: "key"}
	s := e.String()
	for _, want := range []string{"1.5s", "obj.stored", "n", "a/7", "key"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Event.String missing %q: %q", want, s)
		}
	}
	// Installation events have no app part.
	s = Event{Kind: NodeFailed, Node: "x"}.String()
	if strings.Contains(s, "/") {
		t.Fatalf("installation event rendered object id: %q", s)
	}
}

// Property: after any emission sequence, Events() is the last
// min(emitted, capacity) events, sorted by Seq, whether the ring is
// still growing or has wrapped.
func TestLogOrderProperty(t *testing.T) {
	f := func(kinds []uint8, cap8 uint8) bool {
		cap := int(cap8%32) + 1
		l := NewLog(cap)
		for range kinds {
			l.Emit(Event{Kind: ObjCreated})
		}
		evs := l.Events()
		if len(evs) != min(len(kinds), cap) || l.Len() != len(evs) {
			return false
		}
		if len(evs) > 0 && evs[len(evs)-1].Seq != uint64(len(kinds)) {
			return false
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq != evs[i-1].Seq+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLogConcurrent exercises Emit/Events/Filter/ForObject from many
// goroutines at once; run with -race it proves the single-lock collect
// path is data-race free.
func TestLogConcurrent(t *testing.T) {
	l := NewLog(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Emit(Event{Kind: ObjInvoked, App: "app:1", Obj: uint64(w), Detail: "m"})
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = l.Events()
				_ = l.Filter(ObjInvoked)
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 64 {
		t.Fatalf("Len = %d, want full ring", l.Len())
	}
	evs := l.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatal("sequence gap after concurrent emits")
		}
	}
}

func TestSpanLog(t *testing.T) {
	l := NewSpanLog(8)
	if l.NextID() != 1 || l.NextID() != 2 {
		t.Fatal("NextID not sequential from 1")
	}
	l.Record(Span{ID: 1, App: "app:1", Obj: 3, Method: "Step", Kind: SpanSync,
		Origin: "a", Target: "b", Queue: time.Millisecond, Service: 2 * time.Millisecond,
		Wire: 3 * time.Millisecond})
	l.Record(Span{ID: 2, Parent: 1, App: "app:1", Obj: 4, Method: "Leaf", Kind: SpanOneway,
		Origin: "b", Target: "b", Err: "timeout"})
	l.Record(Span{ID: 3, App: "app:2", Obj: 3, Method: "Other", Kind: SpanAsync})
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := l.ForApp("app:1"); len(got) != 2 {
		t.Fatalf("ForApp = %v", got)
	}
	if got := l.ForObject("app:1", 3); len(got) != 1 || got[0].Method != "Step" {
		t.Fatalf("ForObject = %v", got)
	}
	s := l.Spans()[0]
	if s.Total() != 6*time.Millisecond {
		t.Fatalf("Total = %v", s.Total())
	}
	out := s.String()
	for _, want := range []string{"sync", "app:1/3.Step", "a->b", "total=6ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Span.String missing %q: %q", want, out)
		}
	}
	child := l.Spans()[1].String()
	for _, want := range []string{"parent=#1", "err=timeout"} {
		if !strings.Contains(child, want) {
			t.Fatalf("Span.String missing %q: %q", want, child)
		}
	}
}

func TestSpanLogBounded(t *testing.T) {
	l := NewSpanLog(4)
	for i := 1; i <= 10; i++ {
		l.Record(Span{ID: uint64(i)})
	}
	spans := l.Spans()
	if len(spans) != 4 || spans[0].ID != 7 || spans[3].ID != 10 {
		t.Fatalf("wrong window: %v", spans)
	}
	if NewSpanLog(0).cap != 1 {
		t.Fatal("cap clamp missing")
	}
}
