// Package flight is the incident flight recorder: a bounded ring of
// dumps, each a snapshot of the installation's recent observability
// state — trace events, invocation spans, a metrics snapshot, and the
// SLO report — captured at the moment something went wrong (a chaos
// fault was injected, an SLO burn-rate window breached, or an operator
// asked).
//
// The recorder holds no state of its own between dumps: it reads
// through the Sources closures at trigger time, truncates to the most
// recent maxSpans/maxEvents, and files the dump in the ring.  All
// content comes from scheduler-time-deterministic substrates, so dumps
// from identically-seeded runs are byte-identical.
package flight

import (
	"sync"
	"time"

	"jsymphony/internal/metrics"
	"jsymphony/internal/slo"
	"jsymphony/internal/trace"
)

// Dump is one captured incident snapshot.
type Dump struct {
	Seq     int              `json:"seq"`
	AtUs    int64            `json:"at_us"`
	Reason  string           `json:"reason"`
	Events  []trace.Event    `json:"events"`
	Spans   []trace.Span     `json:"spans"`
	Metrics metrics.Snapshot `json:"metrics"`
	SLO     slo.Report       `json:"slo"`
}

// Sources are the read hooks the recorder snapshots through.  Any nil
// hook contributes its zero value.
type Sources struct {
	Now     func() time.Duration
	Events  func() []trace.Event
	Spans   func() []trace.Span
	Metrics func() metrics.Snapshot
	SLO     func() slo.Report
}

// The rings are bounded; no installation sets other depths.
const (
	maxDumps  = 8   // dump ring depth
	maxEvents = 256 // most recent events kept per dump
	maxSpans  = 256 // most recent spans kept per dump
)

// Recorder captures dumps into a bounded ring.
type Recorder struct {
	src Sources

	mu    sync.Mutex
	seq   int
	dumps []Dump // oldest first, len <= maxDumps
}

// New returns a recorder reading through src.
func New(src Sources) *Recorder {
	return &Recorder{src: src}
}

// Trigger captures one dump and files it.
func (r *Recorder) Trigger(reason string) Dump {
	d := Dump{Reason: reason}
	if r.src.Now != nil {
		d.AtUs = r.src.Now().Microseconds()
	}
	if r.src.Events != nil {
		d.Events = tail(r.src.Events(), maxEvents)
	}
	if r.src.Spans != nil {
		d.Spans = tail(r.src.Spans(), maxSpans)
	}
	if r.src.Metrics != nil {
		d.Metrics = r.src.Metrics()
	}
	if r.src.SLO != nil {
		d.SLO = r.src.SLO()
	}
	r.mu.Lock()
	r.seq++
	d.Seq = r.seq
	r.dumps = append(r.dumps, d)
	if len(r.dumps) > maxDumps {
		r.dumps = append(r.dumps[:0], r.dumps[len(r.dumps)-maxDumps:]...)
	}
	r.mu.Unlock()
	return d
}

// tail returns the last n elements of s (a copy).
func tail[T any](s []T, n int) []T {
	if len(s) > n {
		s = s[len(s)-n:]
	}
	return append([]T(nil), s...)
}

// Dumps returns the retained dumps, oldest first.
func (r *Recorder) Dumps() []Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Dump(nil), r.dumps...)
}

// Len reports how many dumps were ever triggered.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
