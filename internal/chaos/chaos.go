package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/trace"
)

// Target is the surface the injector breaks.  core.World implements it
// over the simulated fabric and the runtime stack; the indirection keeps
// chaos free of a core dependency so core can embed an injector.
type Target interface {
	// Nodes lists every node name; the first entry hosts the directory
	// and is exempt from stochastic crashes.
	Nodes() []string
	// Crash takes the node down: machine dead, process state lost.
	Crash(node string) error
	// Restart brings a crashed node back with an empty object store.
	Restart(node string) error
	// SetPartitioned cuts (or heals) both directions of a link.
	SetPartitioned(a, b string, on bool) error
	// SetLink installs the per-link wire-fault policy ("*"/"*" = default
	// for all links).
	SetLink(a, b string, pol simnet.LinkPolicy) error
	// SetSlowdown sets the extra owner-returned background load on a node
	// (0 clears it).
	SetSlowdown(node string, extra float64) error
}

// Config assembles an Injector.
type Config struct {
	Sched  sched.Sched
	Target Target
	Spec   *Spec
	Seed   int64
	Emit   func(trace.Event) // optional: fault/heal trace events
}

// Injector drives a Spec against a Target on the virtual clock.  All
// randomness comes from a splitmix64 chain over (Seed, draw index), so a
// run is a pure function of (Spec, Seed).
type Injector struct {
	cfg Config

	mu       sync.Mutex
	stopped  bool
	down     map[string]bool
	parts    map[[2]string]bool
	links    map[[2]string]simnet.LinkPolicy
	slow     map[string]float64
	injected int
	rngCtr   uint64
}

// New builds an injector; Start launches it.
func New(cfg Config) *Injector {
	if cfg.Spec == nil {
		cfg.Spec = &Spec{}
	}
	return &Injector{
		cfg:   cfg,
		down:  make(map[string]bool),
		parts: make(map[[2]string]bool),
		links: make(map[[2]string]simnet.LinkPolicy),
		slow:  make(map[string]float64),
	}
}

// rand returns the next pseudo-random uint64 of the seeded chain.
// Caller holds the lock.
func (inj *Injector) rand() uint64 {
	inj.rngCtr++
	return splitmix64(uint64(inj.cfg.Seed) + inj.rngCtr*0x9e3779b97f4a7c15)
}

// unit maps a draw to [0,1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Start spawns the timeline proc (scheduled faults, ordered by At) and
// the stochastic generators.  Call it from a context where spawning is
// deterministic (core.World does so under the clock hold or from an
// actor).
func (inj *Injector) Start() {
	spec := inj.cfg.Spec
	if len(spec.Faults) > 0 {
		faults := append([]Fault(nil), spec.Faults...)
		sort.SliceStable(faults, func(i, j int) bool { return faults[i].At < faults[j].At })
		inj.cfg.Sched.Spawn("chaos.timeline", func(p sched.Proc) {
			for _, f := range faults {
				if d := f.At - p.Sched().Now(); d > 0 {
					p.Sleep(d)
				}
				if inj.isStopped() {
					return
				}
				inj.Inject(f)
			}
		})
	}
	if spec.CrashEvery > 0 {
		inj.cfg.Sched.Spawn("chaos.crashgen", func(p sched.Proc) {
			for {
				p.Sleep(inj.jittered(spec.CrashEvery))
				if inj.isStopped() {
					return
				}
				node, ok := inj.pickVictim()
				if !ok {
					continue
				}
				inj.Inject(Fault{Kind: Crash, Node: node, For: spec.CrashDown})
			}
		})
	}
	if spec.FlapEvery > 0 {
		inj.cfg.Sched.Spawn("chaos.flapgen", func(p sched.Proc) {
			for {
				p.Sleep(inj.jittered(spec.FlapEvery))
				if inj.isStopped() {
					return
				}
				a, b, ok := inj.pickLink()
				if !ok {
					continue
				}
				inj.Inject(Fault{Kind: Partition, A: a, B: b, For: spec.FlapFor})
			}
		})
	}
}

// Stop halts the injector: generators exit at their next wake and any
// pending Inject (including scheduled reverts) becomes a no-op.  Already
// applied faults are left in place.
func (inj *Injector) Stop() {
	inj.mu.Lock()
	inj.stopped = true
	inj.mu.Unlock()
}

func (inj *Injector) isStopped() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stopped
}

// jittered returns mean ±50%, from the seeded chain.
func (inj *Injector) jittered(mean time.Duration) time.Duration {
	inj.mu.Lock()
	u := unit(inj.rand())
	inj.mu.Unlock()
	return time.Duration(float64(mean) * (0.5 + u))
}

// pickVictim chooses a random live node, excluding the directory node
// (Nodes()[0]): crashing the installation's control plane is a different
// experiment than crashing a worker, and the recovery machinery the
// harness exercises lives above the directory.
func (inj *Injector) pickVictim() (string, bool) {
	nodes := inj.cfg.Target.Nodes()
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var up []string
	for i, n := range nodes {
		if i == 0 || inj.down[n] {
			continue
		}
		up = append(up, n)
	}
	if len(up) == 0 {
		return "", false
	}
	return up[int(inj.rand()%uint64(len(up)))], true
}

// pickLink chooses a random ordered pair of distinct nodes.
func (inj *Injector) pickLink() (string, string, bool) {
	nodes := inj.cfg.Target.Nodes()
	if len(nodes) < 2 {
		return "", "", false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	i := int(inj.rand() % uint64(len(nodes)))
	j := int(inj.rand() % uint64(len(nodes)-1))
	if j >= i {
		j++
	}
	return nodes[i], nodes[j], true
}

// Inject applies one fault now.  If f.For > 0 a revert proc is spawned
// that applies the inverse fault f.For later.  After Stop, Inject is a
// no-op (so late reverts cannot resurrect state during shutdown).
func (inj *Injector) Inject(f Fault) error {
	inj.mu.Lock()
	if inj.stopped {
		inj.mu.Unlock()
		return nil
	}
	inj.mu.Unlock()
	if err := inj.apply(f); err != nil {
		return err
	}
	if f.For > 0 {
		if rev, ok := f.inverse(); ok {
			inj.cfg.Sched.Spawn(fmt.Sprintf("chaos.revert:%s", f.Kind), func(p sched.Proc) {
				p.Sleep(f.For)
				if inj.isStopped() {
					return
				}
				_ = inj.apply(rev)
			})
		}
	}
	return nil
}

// apply performs the state change, records it, and reports it.
func (inj *Injector) apply(f Fault) error {
	t := inj.cfg.Target
	var err error
	switch f.Kind {
	case Crash:
		err = t.Crash(f.Node)
	case Restart:
		err = t.Restart(f.Node)
	case Partition:
		err = t.SetPartitioned(f.A, f.B, true)
	case Heal:
		err = t.SetPartitioned(f.A, f.B, false)
	case Loss, Dup, Reorder:
		key := linkKey(f.A, f.B)
		inj.mu.Lock()
		pol := inj.links[key]
		switch f.Kind {
		case Loss:
			pol.Loss = f.Rate
		case Dup:
			pol.Dup = f.Rate
		case Reorder:
			pol.Reorder = f.Jitter
		}
		inj.links[key] = pol
		inj.mu.Unlock()
		err = t.SetLink(f.A, f.B, pol)
	case Slow:
		err = t.SetSlowdown(f.Node, f.Extra)
	default:
		err = fmt.Errorf("chaos: unknown fault kind %q", f.Kind)
	}
	if err != nil {
		return err
	}

	inj.mu.Lock()
	inj.injected++
	switch f.Kind {
	case Crash:
		inj.down[f.Node] = true
	case Restart:
		delete(inj.down, f.Node)
	case Partition:
		inj.parts[linkKey(f.A, f.B)] = true
	case Heal:
		delete(inj.parts, linkKey(f.A, f.B))
	case Slow:
		if f.Extra > 0 {
			inj.slow[f.Node] = f.Extra
		} else {
			delete(inj.slow, f.Node)
		}
	}
	inj.mu.Unlock()

	if inj.cfg.Emit != nil {
		kind := trace.ChaosFault
		if f.healing() {
			kind = trace.ChaosHeal
		}
		node := f.Node
		if node == "" {
			node = f.A
		}
		inj.cfg.Emit(trace.Event{Kind: kind, Node: node, Detail: f.String()})
	}
	return nil
}

// linkKey normalizes an unordered endpoint pair.
func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Plan renders the spec's schedule — the shell's "chaos plan".
func (inj *Injector) Plan() string { return inj.cfg.Spec.String() }

// Status renders the currently active faults, sorted, for "chaos status".
func (inj *Injector) Status() string {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "faults applied: %d\n", inj.injected)
	if len(inj.down) > 0 {
		nodes := make([]string, 0, len(inj.down))
		for n := range inj.down {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		fmt.Fprintf(&b, "down: %s\n", strings.Join(nodes, " "))
	}
	if len(inj.parts) > 0 {
		keys := make([][2]string, 0, len(inj.parts))
		for k := range inj.parts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			fmt.Fprintf(&b, "partitioned: %s/%s\n", k[0], k[1])
		}
	}
	if len(inj.links) > 0 {
		keys := make([][2]string, 0, len(inj.links))
		for k := range inj.links {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			pol := inj.links[k]
			if pol == (simnet.LinkPolicy{}) {
				continue
			}
			fmt.Fprintf(&b, "link %s/%s: loss=%.1f%% dup=%.1f%% reorder=%v\n",
				k[0], k[1], pol.Loss*100, pol.Dup*100, pol.Reorder)
		}
	}
	if len(inj.slow) > 0 {
		nodes := make([]string, 0, len(inj.slow))
		for n := range inj.slow {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		for _, n := range nodes {
			fmt.Fprintf(&b, "slow: %s +%.2f\n", n, inj.slow[n])
		}
	}
	if b.Len() == len("faults applied: 0\n") && inj.injected == 0 {
		return "no active faults\n"
	}
	return b.String()
}

// splitmix64 is the same mixer load.go uses for background-load noise; a
// private copy keeps the fault stream independent of the load stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
