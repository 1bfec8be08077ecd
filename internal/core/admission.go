package core

// Admission control at the shard router.  A shard group that declares
// an AdmissionPolicy sheds its lowest-priority client classes when the
// surviving classes burn their SLO error budgets too fast, and re-admits
// them when the burn subsides.  The control signal is internal/slo's
// rolling burn-rate window — a pure function of the recorded request
// stream and the scheduler clock — so on a simulated installation the
// controller's decisions are a deterministic function of the seed.
//
// Contrast with the per-object queue bound (runtime.go): the bound is
// the last-ditch backstop at the mailbox, indiscriminate by design; the
// admission controller is the policy layer in front of it, deciding
// *which* traffic is worth the capacity that remains.  Both reject with
// the same typed rmi.ErrOverload, and neither rejection is ever retried
// by the RMI layer (see the shed-vs-retry contract, DESIGN.md §12).

import (
	"fmt"
	"time"

	"sync"

	"jsymphony/internal/metrics"
	"jsymphony/internal/rmi"
	"jsymphony/internal/trace"
)

// AdmissionPolicy declares router-side load shedding for a shard group.
type AdmissionPolicy struct {
	// Classes lists the client classes under the controller's authority
	// in priority order, most important first.  Classes[0] is never
	// shed; escalation drops classes from the end of the list.  Request
	// classes not listed here (including the implicit "read"/"write")
	// bypass admission entirely.
	Classes []string
	// Hold is the minimum dwell before a re-admission (default 250ms of
	// scheduler time).  The controller is deliberately asymmetric —
	// fast attack, slow release: escalation takes effect on the very
	// next request once a surviving class's burn crosses
	// admitThreshold, because every request admitted past that point
	// deepens the backlog the protected classes queue behind;
	// re-admission waits out Hold so one good window cannot flap the
	// level.
	Hold time.Duration
}

const (
	// admitThreshold escalates shedding: when any surviving class's
	// burn rate reaches it, the lowest surviving class is shed (1.0 —
	// the error budget is being spent exactly as fast as it accrues).
	admitThreshold = 1.0
	// admitRecover de-escalates: when every surviving class burns below
	// it, the highest shed class is re-admitted.  Below admitThreshold
	// so the controller has hysteresis.
	admitRecover = admitThreshold / 2
)

// withDefaults fills unset fields.
func (p AdmissionPolicy) withDefaults() AdmissionPolicy {
	if p.Hold <= 0 {
		p.Hold = 250 * time.Millisecond
	}
	return p
}

// validate rejects unusable policies (after withDefaults).
func (p AdmissionPolicy) validate() error {
	if len(p.Classes) < 2 {
		return fmt.Errorf("core: admission needs >= 2 classes (one to protect, one to shed), got %d", len(p.Classes))
	}
	seen := make(map[string]bool, len(p.Classes))
	for _, c := range p.Classes {
		if c == "" {
			return fmt.Errorf("core: admission class names must be non-empty")
		}
		if seen[c] {
			return fmt.Errorf("core: duplicate admission class %q", c)
		}
		seen[c] = true
	}
	return nil
}

// AdmissionState snapshots a group's controller for the shell and tests.
type AdmissionState struct {
	Level     int      `json:"level"`      // how many of the lowest classes are shed
	Shed      []string `json:"shed"`       // classes currently shed (lowest priority first)
	Changes   int64    `json:"changes"`    // level transitions so far
	ShedTotal int64    `json:"shed_total"` // requests refused at this router
}

// admission is one group's controller.
type admission struct {
	pol   AdmissionPolicy
	rank  map[string]int     // class -> index in pol.Classes
	gauge *metrics.Gauge     // js_shard_admission_level of the group
	shed  []*metrics.Counter // js_shard_admission_sheds_total by rank

	mu      sync.Mutex
	level   int
	since   time.Duration // scheduler time of the last level change
	changes int64
	sheds   int64
}

// SetAdmission installs (or replaces) the group's admission policy.
func (g *ShardGroup) SetAdmission(pol AdmissionPolicy) error {
	pol = pol.withDefaults()
	if err := pol.validate(); err != nil {
		return err
	}
	reg := g.app.world.reg
	adm := &admission{pol: pol, rank: make(map[string]int, len(pol.Classes)),
		gauge: reg.GaugeHandle(metrics.Label("js_shard_admission_level", "group", g.name))}
	for i, c := range pol.Classes {
		adm.rank[c] = i
		adm.shed = append(adm.shed, reg.CounterHandle(metrics.Label("js_shard_admission_sheds_total", "group", g.name, "class", c)))
	}
	g.mu.Lock()
	old := g.adm
	g.adm = adm
	g.mu.Unlock()
	if old != nil {
		// The replaced controller's marks must not outlive it in the
		// installation-wide shed registry.
		old.mu.Lock()
		stillShed := old.pol.Classes[len(old.pol.Classes)-old.level:]
		old.mu.Unlock()
		for _, c := range stillShed {
			g.app.world.markClassShed(c, false)
		}
	}
	// Hosts need the priority order too: the mailbox bound check counts
	// only same-or-higher-priority occupancy against a ranked class, so
	// low classes saturating the slots cannot exclude the protected ones.
	g.app.world.setClassRanks(pol.Classes)
	adm.gauge.Set(0)
	return nil
}

// Admission snapshots the controller (ok=false when no policy is set).
func (g *ShardGroup) Admission() (AdmissionState, bool) {
	g.mu.Lock()
	adm := g.adm
	g.mu.Unlock()
	if adm == nil {
		return AdmissionState{}, false
	}
	adm.mu.Lock()
	defer adm.mu.Unlock()
	st := AdmissionState{Level: adm.level, Changes: adm.changes, ShedTotal: adm.sheds}
	for i := len(adm.pol.Classes) - adm.level; i < len(adm.pol.Classes); i++ {
		st.Shed = append(st.Shed, adm.pol.Classes[i])
	}
	return st, true
}

// admit runs one request through the group's admission controller: it
// re-evaluates the shed level against the surviving classes' burn
// rates (escalation immediately, re-admission at most once per Hold),
// then either admits the request (nil) or refuses it with a typed
// overload error.  A refusal is still a finished request: it files a
// zero-latency failed span under the request's class, so SLO
// attainment and the critical-path analyzer see the shed traffic
// instead of a silent gap.
func (g *ShardGroup) admit(class, method string) error {
	g.mu.Lock()
	adm := g.adm
	g.mu.Unlock()
	if adm == nil {
		return nil
	}
	rank, ranked := adm.rank[class]
	w := g.app.world
	now := w.s.Now()

	adm.mu.Lock()
	surviving := len(adm.pol.Classes) - adm.level
	var maxBurn float64
	for _, c := range adm.pol.Classes[:surviving] {
		if b := w.slo.Burn(c); b > maxBurn {
			maxBurn = b
		}
	}
	prev := adm.level
	switch {
	case maxBurn >= admitThreshold && adm.level < len(adm.pol.Classes)-1:
		adm.level++ // fast attack: every admit past the threshold deepens the backlog
	case maxBurn < admitRecover && adm.level > 0 && now-adm.since >= adm.pol.Hold:
		adm.level-- // slow release: one good window must not flap the level
	}
	if adm.level != prev {
		adm.since = now
		adm.changes++
		level, dropped := adm.level, adm.pol.Classes[len(adm.pol.Classes)-adm.level:]
		// Publish the transition to the installation-wide shed registry
		// so hosts refuse the class too: requests already past this
		// router — in flight or parked in a mailbox — are doomed work,
		// and evaporating them at the host frees their queue slots in
		// one scheduler tick instead of one service time each.
		if adm.level > prev {
			w.markClassShed(adm.pol.Classes[len(adm.pol.Classes)-adm.level], true)
		} else {
			w.markClassShed(adm.pol.Classes[len(adm.pol.Classes)-prev], false)
		}
		adm.mu.Unlock()
		adm.gauge.Set(float64(level))
		w.emit(trace.Event{Kind: trace.AdmissionLevel, Node: g.app.Home(), App: g.app.id,
			Detail: fmt.Sprintf("%s: level %d (max burn %.2f, shedding %v)", g.name, level, maxBurn, dropped)})
		adm.mu.Lock()
	}
	shed := ranked && rank >= len(adm.pol.Classes)-adm.level
	level := adm.level
	if shed {
		adm.sheds++
	}
	adm.mu.Unlock()

	if !shed {
		return nil
	}
	err := fmt.Errorf("%w: class %s shed by %s admission (level %d)", rmi.ErrOverload, class, g.name, level)
	adm.shed[rank].Inc()
	// A router shed never reached a shard: the span has zero segments
	// (Total 0, fully attributed) but carries the class and the error,
	// feeding the class's SLO window as a miss.
	w.observeSpan(trace.Span{
		ID: w.spans.NextID(), App: g.app.id, Method: method,
		Origin: g.app.Home(), Kind: trace.SpanSync, Class: class,
		Start: now, Err: err.Error(),
	})
	return err
}
