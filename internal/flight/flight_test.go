package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"jsymphony/internal/metrics"
	"jsymphony/internal/slo"
	"jsymphony/internal/trace"
)

func testSources(now *time.Duration, nEvents, nSpans int) Sources {
	return Sources{
		Now: func() time.Duration { return *now },
		Events: func() []trace.Event {
			out := make([]trace.Event, nEvents)
			for i := range out {
				out[i] = trace.Event{Seq: uint64(i + 1), Kind: trace.ObjInvoked, Detail: fmt.Sprintf("e%d", i)}
			}
			return out
		},
		Spans: func() []trace.Span {
			out := make([]trace.Span, nSpans)
			for i := range out {
				out[i] = trace.Span{ID: uint64(i + 1), Method: fmt.Sprintf("m%d", i)}
			}
			return out
		},
		Metrics: func() metrics.Snapshot { return metrics.Snapshot{} },
		SLO:     func() slo.Report { return slo.Report{} },
	}
}

// TestTriggerTruncates: dumps keep only the most recent events/spans.
func TestTriggerTruncates(t *testing.T) {
	now := 3 * time.Second
	r := New(testSources(&now, maxEvents+6, maxSpans+7))
	d := r.Trigger("chaos: node crash")
	if d.Seq != 1 || d.AtUs != 3_000_000 || d.Reason != "chaos: node crash" {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Events) != maxEvents || d.Events[0].Seq != 7 {
		t.Fatalf("%d events, first seq %d", len(d.Events), d.Events[0].Seq)
	}
	if len(d.Spans) != maxSpans || d.Spans[0].ID != 8 {
		t.Fatalf("%d spans, first id %d", len(d.Spans), d.Spans[0].ID)
	}
}

// TestRingBound: the dump ring drops the oldest past capacity but the
// trigger count keeps climbing.
func TestRingBound(t *testing.T) {
	now := time.Duration(0)
	r := New(testSources(&now, 0, 0))
	for i := 0; i < maxDumps+3; i++ {
		r.Trigger(fmt.Sprintf("r%d", i))
	}
	dumps := r.Dumps()
	if len(dumps) != maxDumps || dumps[0].Seq != 4 || dumps[maxDumps-1].Seq != maxDumps+3 {
		t.Fatalf("dumps = %+v", dumps)
	}
	if r.Len() != maxDumps+3 {
		t.Fatalf("len = %d", r.Len())
	}
}

// TestWriteJSONDeterministic: identical recorder state serializes
// byte-identically (the experiments' artifact writer encodes Dumps).
func TestWriteJSONDeterministic(t *testing.T) {
	build := func() *Recorder {
		now := 7 * time.Millisecond
		r := New(testSources(&now, 2, 2))
		r.Trigger("breach: read burn 4.0")
		return r
	}
	a, err := json.Marshal(build().Dumps())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build().Dumps())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("twin serializations differ:\n%s\nvs\n%s", a, b)
	}
}
