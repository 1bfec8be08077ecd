// Package slo is the request-level objective engine: per-class latency
// histograms in scheduler time, declared latency objectives
// (SLO{Class, Target, Percentile}), rolling burn-rate windows, and a
// deterministic Report with p50/p99/p999 and attainment per class.
//
// Like the metrics package, everything accumulates in integers against
// the scheduler clock, so on a simulated installation two
// identically-seeded runs produce byte-identical reports.  The burn
// rate follows the multiwindow error-budget convention: with an
// objective of "Percentile% of requests under Target", the allowed
// miss fraction is 1 - Percentile/100, and the burn rate is the
// observed miss fraction over a rolling window divided by that
// allowance — burn 1.0 spends the budget exactly, burn ≥ the breach
// threshold pages (here: trips the flight recorder).
package slo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// SLO declares one request class's latency objective: Percentile% of
// requests must finish within Target.
type SLO struct {
	Class      string
	Target     time.Duration
	Percentile float64 // e.g. 99 or 99.9
}

// Validate rejects unusable declarations.
func (s SLO) Validate() error {
	if s.Class == "" {
		return fmt.Errorf("slo: declaration needs a class")
	}
	if s.Target <= 0 {
		return fmt.Errorf("slo: class %q needs a positive target, got %v", s.Class, s.Target)
	}
	if s.Percentile <= 0 || s.Percentile >= 100 {
		return fmt.Errorf("slo: class %q needs a percentile in (0, 100), got %v", s.Class, s.Percentile)
	}
	return nil
}

// The burn-rate window is fixed: no installation sets another.
const (
	// window is the rolling burn-rate window in scheduler time, rolled
	// over windowBuckets sub-buckets.
	window        = 5 * time.Second
	windowBuckets = 5
	// burnThreshold is the burn rate at which OnBreach fires: the budget
	// is being spent at twice the sustainable rate.
	burnThreshold = 2.0
	// minCount is the minimum number of requests in the window before a
	// breach can fire, so a single early miss cannot page.
	minCount = 20
)

// Options configure an Engine.
type Options struct {
	// OnBreach, when set, is called (outside the engine lock) when a
	// class's window burn rate crosses burnThreshold, at most once per
	// window per class.
	OnBreach func(class string, burn float64)
}

// burnBucket is one sub-window of miss accounting.
type burnBucket struct {
	start         time.Duration
	total, missed int64
}

// classState is the accounting of one request class.
type classState struct {
	slo      SLO // zero Target when the class is tracked but undeclared
	declared bool
	hist     Histogram
	total    int64
	errors   int64
	missed   int64 // over target or failed
	buckets  []burnBucket
	lastFire time.Duration // last breach notification (dedup per window)
	fired    bool
}

// Engine tracks per-class latency against declared objectives.
type Engine struct {
	now func() time.Duration
	opt Options

	mu      sync.Mutex
	classes map[string]*classState
}

// NewEngine returns an engine reading scheduler time from now.
func NewEngine(now func() time.Duration, opt Options) *Engine {
	return &Engine{now: now, opt: opt, classes: make(map[string]*classState)}
}

// Declare installs (or replaces) one class objective.
func (e *Engine) Declare(s SLO) error {
	if err := s.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cs := e.class(s.Class)
	cs.slo = s
	cs.declared = true
	return nil
}

// class returns (creating if needed) a class state.  Caller holds e.mu.
func (e *Engine) class(name string) *classState {
	cs, ok := e.classes[name]
	if !ok {
		cs = &classState{slo: SLO{Class: name}}
		e.classes[name] = cs
	}
	return cs
}

// Record accounts one finished request: its end-to-end latency and
// whether it failed.  Classes observed before (or without) a Declare
// are tracked for quantiles but have no objective.  Returns whether
// the request missed its objective (always false for undeclared
// classes unless the request failed).
func (e *Engine) Record(class string, latency time.Duration, failed bool) bool {
	if class == "" {
		return false
	}
	now := e.now()
	e.mu.Lock()
	cs := e.class(class)
	cs.hist.ObserveDuration(latency)
	cs.total++
	if failed {
		cs.errors++
	}
	miss := failed || (cs.declared && latency > cs.slo.Target)
	var breach func(string, float64)
	var burn float64
	if miss {
		cs.missed++
	}
	if cs.declared {
		b := e.bucket(cs, now)
		b.total++
		if miss {
			b.missed++
		}
		burn = e.burnLocked(cs, now)
		if burn >= burnThreshold && e.windowTotal(cs, now) >= minCount {
			if !cs.fired || now-cs.lastFire >= window {
				cs.fired = true
				cs.lastFire = now
				breach = e.opt.OnBreach
			}
		} else if burn < burnThreshold {
			cs.fired = false
		}
	}
	e.mu.Unlock()
	if breach != nil {
		breach(class, burn)
	}
	return miss
}

// bucket returns the live sub-window bucket for now, rolling expired
// ones off.  Caller holds e.mu.
func (e *Engine) bucket(cs *classState, now time.Duration) *burnBucket {
	step := window / windowBuckets
	start := now - now%step
	// Drop buckets that left the window.
	keep := cs.buckets[:0]
	for i := range cs.buckets {
		if cs.buckets[i].start > now-window {
			keep = append(keep, cs.buckets[i])
		}
	}
	cs.buckets = keep
	if n := len(cs.buckets); n > 0 && cs.buckets[n-1].start == start {
		return &cs.buckets[n-1]
	}
	cs.buckets = append(cs.buckets, burnBucket{start: start})
	return &cs.buckets[len(cs.buckets)-1]
}

// windowTotal sums request counts over the live window.  Caller holds
// e.mu.
func (e *Engine) windowTotal(cs *classState, now time.Duration) int64 {
	var total int64
	for i := range cs.buckets {
		if cs.buckets[i].start > now-window {
			total += cs.buckets[i].total
		}
	}
	return total
}

// burnLocked computes the class's burn rate over the live window.
// Caller holds e.mu.
func (e *Engine) burnLocked(cs *classState, now time.Duration) float64 {
	if !cs.declared {
		return 0
	}
	var total, missed int64
	for i := range cs.buckets {
		if cs.buckets[i].start > now-window {
			total += cs.buckets[i].total
			missed += cs.buckets[i].missed
		}
	}
	if total == 0 {
		return 0
	}
	allowed := 1 - cs.slo.Percentile/100
	if allowed <= 0 {
		return 0
	}
	return float64(missed) / float64(total) / allowed
}

// Burn returns the class's current burn rate over the live window — the
// observed miss fraction divided by the objective's allowance (burn 1.0
// spends the error budget exactly at the sustainable rate).  Undeclared
// or unseen classes burn 0.  This is the control signal admission
// controllers consume: it is a pure function of the recorded request
// stream and the scheduler clock, so control decisions driven by it
// stay deterministic.
func (e *Engine) Burn(class string) float64 {
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	cs, ok := e.classes[class]
	if !ok {
		return 0
	}
	return e.burnLocked(cs, now)
}

// ClassReport is one class's line in a Report.
type ClassReport struct {
	Class      string  `json:"class"`
	Declared   bool    `json:"declared"`
	TargetUs   int64   `json:"target_us"`
	Percentile float64 `json:"percentile"`
	Count      int64   `json:"count"`
	Errors     int64   `json:"errors"`
	P50Us      int64   `json:"p50_us"`
	P99Us      int64   `json:"p99_us"`
	P999Us     int64   `json:"p999_us"`
	MaxUs      int64   `json:"max_us"`
	Missed     int64   `json:"missed"`
	Attainment float64 `json:"attainment"` // fraction of requests that met the objective
	Met        bool    `json:"met"`        // attainment >= Percentile/100
	Burn       float64 `json:"burn"`       // current window burn rate
}

// Report is the engine's exported state, classes sorted by name.
type Report struct {
	AtUs    int64         `json:"at_us"`
	Classes []ClassReport `json:"classes"`
}

// Report snapshots every class.
func (e *Engine) Report() Report {
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := Report{AtUs: now.Microseconds()}
	names := make([]string, 0, len(e.classes))
	for name := range e.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := e.classes[name]
		cr := ClassReport{
			Class:      name,
			Declared:   cs.declared,
			TargetUs:   cs.slo.Target.Microseconds(),
			Percentile: cs.slo.Percentile,
			Count:      cs.total,
			Errors:     cs.errors,
			P50Us:      cs.hist.Quantile(0.50),
			P99Us:      cs.hist.Quantile(0.99),
			P999Us:     cs.hist.Quantile(0.999),
			MaxUs:      cs.hist.Max(),
			Missed:     cs.missed,
			Burn:       e.burnLocked(cs, now),
		}
		if cs.total > 0 {
			cr.Attainment = float64(cs.total-cs.missed) / float64(cs.total)
		}
		if cs.declared {
			cr.Met = cs.total > 0 && cr.Attainment >= cs.slo.Percentile/100
		}
		rep.Classes = append(rep.Classes, cr)
	}
	return rep
}

// Format renders the report as the shell's slo command prints it.
func (r Report) Format() string {
	if len(r.Classes) == 0 {
		return "(no classified requests)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %10s %10s %7s %10s %6s %6s\n",
		"CLASS", "COUNT", "P50", "P99", "P999", "TARGET", "PCTL", "ATTAINED", "MET", "BURN")
	for _, c := range r.Classes {
		target, pctl, met := "-", "-", "-"
		if c.Declared {
			target = (time.Duration(c.TargetUs) * time.Microsecond).String()
			pctl = fmt.Sprintf("p%g", c.Percentile)
			if c.Met {
				met = "yes"
			} else {
				met = "NO"
			}
		}
		fmt.Fprintf(&b, "%-10s %8d %10s %10s %10s %10s %7s %9.2f%% %6s %6.2f\n",
			c.Class, c.Count,
			time.Duration(c.P50Us)*time.Microsecond,
			time.Duration(c.P99Us)*time.Microsecond,
			time.Duration(c.P999Us)*time.Microsecond,
			target, pctl, c.Attainment*100, met, c.Burn)
	}
	return b.String()
}
