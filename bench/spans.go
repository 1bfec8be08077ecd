package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The harness traces itself from outside the program: a span around the
// run, each set-up and tear-down phase, the timed window, and — on the
// traced blocks of a traced run — every unit.  Spans stay in memory and
// are written out when the run ends.

// span is one recorded interval; parent is an index into tracer.spans
// (-1 for the root).
type span struct {
	name       string
	start, end hostTime
	parent     int
}

// unitSpan is a unit's span, kept pointer-free off the heap; its parent
// is the window span and its name is workload.kinds[kind].
type unitSpan struct {
	start, end hostTime
	kind       uint8
}

type tracer struct {
	spans  []span
	root   int
	stage  int // the enclosing set-up or tear-down span
	cur    int // the open phase span, -1 when none
	window int
	units  []unitSpan
	nUnits int
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, start: hostNow(), parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = hostNow() }

// phaseMs sums the durations of every span with the given name, in
// milliseconds, and divides by how many set-ups ran them.
func (t *tracer) phaseMs(name string, setups int) float64 {
	var total hostTime
	for _, s := range t.spans {
		if s.name == name {
			total += s.end - s.start
		}
	}
	return ratio(total.millis(), float64(setups))
}

// kindP50 is the median duration in microseconds of the traced unit
// spans of one kind, and how many there were.
func (t *tracer) kindP50(kind uint8) (float64, int) {
	var d []float64
	for _, u := range t.units[:t.nUnits] {
		if u.kind == kind {
			d = append(d, (u.end - u.start).micros())
		}
	}
	sort.Float64s(d)
	return percentile(d, 50), len(d)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(dir, runID string, kinds []string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, runID+"-spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	line := func(id int, name string, start, end hostTime, parent int) {
		fmt.Fprintf(w, `{"run":%q,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d}`+"\n",
			runID, id, name, start, end, parent)
	}
	for i, s := range t.spans {
		line(i, s.name, s.start, s.end, s.parent)
	}
	for i, u := range t.units[:t.nUnits] {
		line(len(t.spans)+i, kinds[u.kind], u.start, u.end, t.window)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
