package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // length of the timed window; ignored when units > 0
	units   int     // fixed number of host-timed units (tests, exact twin runs)
	setups  int     // times set-up runs; setup_s is the median
	traced  bool
	quick   bool // tests: price the layers with a few small batches
	outDir  string
}

// A workload builds its system (timed as setup_s), calls body once with
// the function that performs host-timed unit i, and tears the system
// down when body returns.  A unit is the smallest piece of work the host
// clock can bracket from outside: one blocking call where there is one,
// a batch of simulated requests where latency is virtual.
type workload struct {
	name       string
	why        string
	unitOps    int               // operations per unit
	blockUnits int               // units per block; ops_per_s is the median block rate
	unitKind   func(i int) uint8 // span name index of unit i (into kinds)
	kinds      []string          // span names of this workload's units
	run        func(r *run, body func(unit func(i int)))
}

// run is the state of one workload execution, shared by the workload's
// set-up code and the harness.
type run struct {
	cfg config
	w   *workload
	tr  tracer

	mu           sync.Mutex
	attempted    int64
	failed       int64
	firstFailure string

	// model holds the exact simulated-work counters read when set-up
	// ends (after a fixed number of warm-up operations), so they repeat
	// for a seed however long the window runs.  counters reads the same
	// counters live; the harness calls it at the window's edges.
	model     modelRows
	counters  func() modelRows
	recoverMs float64 // sim_durable: host time of the log replay after the restart
}

// modelRows are exact counts of simulated work.
type modelRows struct {
	virtualMs  float64
	rmiCalls   float64
	rmiBytes   float64
	spans      float64
	walAppends float64
	walFlushes float64
}

func (m modelRows) sub(o modelRows) modelRows {
	return modelRows{m.virtualMs - o.virtualMs, m.rmiCalls - o.rmiCalls, m.rmiBytes - o.rmiBytes,
		m.spans - o.spans, m.walAppends - o.walAppends, m.walFlushes - o.walFlushes}
}

func (m modelRows) add(o modelRows) modelRows {
	return modelRows{m.virtualMs + o.virtualMs, m.rmiCalls + o.rmiCalls, m.rmiBytes + o.rmiBytes,
		m.spans + o.spans, m.walAppends + o.walAppends, m.walFlushes + o.walFlushes}
}

// failf records one failed operation.
func (r *run) failf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// setupError aborts a run whose system did not come up: nothing can be
// measured on it.  execute turns the panic back into an error.
type setupError struct{ err error }

// must aborts the run if a set-up step failed.
func (r *run) must(err error, what string) {
	if err != nil {
		panic(setupError{fmt.Errorf("%s: %w", what, err)})
	}
}

// maxUnits bounds the off-heap sample buffer of a window that is not
// given a unit count; at a microsecond a unit it outlasts 16 s.
const maxUnits = 1 << 24

// outcome is everything one workload execution measured.
type outcome struct {
	setupS     []float64 // one per set-up
	samples    []int64   // ns per unit, in order
	wallNs     int64
	cpuUs      float64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	peakRSSMiB float64   // high-water resident set when the workload ended
	window     modelRows // simulated work done inside the window
	release    func()    // frees the off-heap buffers samples lives in
}

// tracedBlock reports whether a traced run records unit spans in block
// b: every other block, so traced and untraced blocks share one window.
func tracedBlock(b int) bool { return b%2 == 0 }

// execute runs the workload's set-up cfg.setups times and the timed
// window once, on the last set-up.
func execute(w *workload, cfg config) (r *run, out *outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			se, ok := p.(setupError)
			if !ok {
				panic(p)
			}
			err = se.err
		}
	}()
	r = &run{cfg: cfg, w: w, tr: tracer{cur: -1}}
	capacity := maxUnits
	if cfg.units > 0 {
		capacity = cfg.units
	}
	samples, freeSamples, err := offHeap[int64](capacity)
	if err != nil {
		return nil, nil, err
	}
	out = &outcome{release: freeSamples}
	if cfg.traced {
		var freeSpans func()
		if r.tr.units, freeSpans, err = offHeap[unitSpan](capacity); err != nil {
			freeSamples()
			return nil, nil, err
		}
		out.release = func() { freeSamples(); freeSpans() }
	}
	r.tr.root = r.tr.begin("run", -1)
	for s := 0; s < cfg.setups; s++ {
		last := s == cfg.setups-1
		t0 := hostNow()
		r.tr.stage = r.tr.begin("setup", r.tr.root)
		w.run(r, func(unit func(i int)) {
			runtime.GC()
			r.phase("")
			r.tr.end(r.tr.stage)
			out.setupS = append(out.setupS, (hostNow() - t0).seconds())
			if last {
				out.samples = r.window(unit, samples, out)
			}
			r.tr.stage = r.tr.begin("teardown", r.tr.root)
		})
		r.phase("")
		r.tr.end(r.tr.stage)
	}
	r.tr.end(r.tr.root)
	out.peakRSSMiB = peakRSSMiB()
	return r, out, nil
}

// phase closes the current set-up or tear-down phase span and opens the
// next; "" only closes.
func (r *run) phase(name string) {
	if r.tr.cur >= 0 {
		r.tr.end(r.tr.cur)
		r.tr.cur = -1
	}
	if name != "" {
		r.tr.cur = r.tr.begin("phase."+name, r.tr.stage)
	}
}

// window is the timed loop.  It reads the host clock once per unit (the
// end of one unit is the start of the next, so the samples sum to the
// window), touches MemStats and getrusage only at the edges, and in a
// traced run records a span per unit on every other block so the same
// window prices the tracing.
func (r *run) window(unit func(i int), samples []int64, out *outcome) []int64 {
	cfg, w := r.cfg, r.w
	limit := hostTime(cfg.seconds * 1e9)
	stop := func(i int, elapsed hostTime) bool {
		if cfg.units > 0 {
			return i >= cfg.units
		}
		return elapsed >= limit || i >= maxUnits
	}
	var before modelRows
	if r.counters != nil {
		before = r.counters()
	}
	win := r.tr.begin("window", r.tr.root)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuMicros()
	start := hostNow()
	prev := start
	i := 0
	for {
		unit(i)
		t := hostNow()
		samples[i] = int64(t - prev)
		if cfg.traced && tracedBlock(i/w.blockUnits) {
			r.tr.units[r.tr.nUnits] = unitSpan{start: prev, end: t, kind: w.unitKind(i)}
			r.tr.nUnits++
		}
		prev = t
		i++
		if stop(i, t-start) {
			break
		}
	}
	out.wallNs = int64(prev - start)
	out.cpuUs = cpuMicros() - cpu0
	runtime.ReadMemStats(&m1)
	r.tr.end(win)
	r.tr.window = win
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.gcCycles = m1.NumGC - m0.NumGC
	out.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	if r.counters != nil {
		out.window = r.counters().sub(before)
	}
	r.attempted = int64(i * w.unitOps)
	return samples[:i]
}

// cpuMicros is the process's user+system CPU time so far.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// blockRates splits the unit samples into full blocks and returns each
// block's operations per second, with the block index it came from.
func blockRates(samples []int64, blockUnits, unitOps int) (rates []float64) {
	for b := 0; (b+1)*blockUnits <= len(samples); b++ {
		var ns int64
		for _, s := range samples[b*blockUnits : (b+1)*blockUnits] {
			ns += s
		}
		rates = append(rates, ratio(float64(blockUnits*unitOps)*1e9, float64(ns)))
	}
	return rates
}

// A window's samples are cut into up to maxSegments consecutive parts of
// at least minSegment samples for percentiles.
const (
	maxSegments = 15
	minSegment  = 100
)

// segmentPercentiles takes the 50th and 99th percentile in each
// consecutive part of the window and returns the median over the parts,
// with the samples in a part.  A disturbance of the machine that lasts a
// second or two then moves one part and not the reported value, where it
// would set the tail of the window taken whole.  A window of fewer than
// two parts' worth of samples is taken whole.
func segmentPercentiles(inOrder []float64) (p50, p99 float64, perSegment int) {
	parts := len(inOrder) / minSegment
	if parts > maxSegments {
		parts = maxSegments
	}
	if parts < 1 {
		parts = 1
	}
	var p50s, p99s []float64
	for g := 0; g < parts; g++ {
		part := append([]float64(nil), inOrder[g*len(inOrder)/parts:(g+1)*len(inOrder)/parts]...)
		sort.Float64s(part)
		p50s = append(p50s, percentile(part, 50))
		p99s = append(p99s, percentile(part, 99))
	}
	return median(p50s), median(p99s), len(inOrder) / parts
}

// endToEnd derives the eight user-visible metrics from a window.
func endToEnd(r *run, out *outcome) []metric {
	w := r.w
	n := len(out.samples)
	ops := float64(n * w.unitOps)
	perOp := make([]float64, n)
	for i, s := range out.samples {
		perOp[i] = float64(s) / 1e3 / float64(w.unitOps)
	}
	p50, p99, perSegment := segmentPercentiles(perOp)
	rates := blockRates(out.samples, w.blockUnits, w.unitOps)
	opsPerS := median(rates)
	if len(rates) == 0 {
		opsPerS = ratio(ops*1e9, float64(out.wallNs))
	}
	return []metric{
		{"setup_s", median(out.setupS), "s", len(out.setupS)},
		{"ops_per_s", opsPerS, "1/s", len(rates)},
		{"cpu_us_per_op", ratio(out.cpuUs, ops), "us", int(ops)},
		{"allocs_per_op", ratio(float64(out.mallocs), ops), "count", int(ops)},
		{"kib_per_op", ratio(float64(out.allocBytes)/1024, ops), "KiB", int(ops)},
		{"op_p50_us", p50, "us", perSegment},
		{"op_p99_us", p99, "us", perSegment},
		{"ok_ratio", ratio(float64(r.attempted-r.failed), float64(r.attempted)), "ratio", int(r.attempted)},
	}
}
