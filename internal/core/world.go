package core

import (
	"errors"
	"fmt"
	"time"

	"sync"
	"sync/atomic"

	"jsymphony/internal/chaos"
	"jsymphony/internal/codebase"
	flightrec "jsymphony/internal/flight"
	"jsymphony/internal/metrics"
	"jsymphony/internal/nas"
	"jsymphony/internal/params"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/slo"
	"jsymphony/internal/trace"
	"jsymphony/internal/vclock"
	"jsymphony/internal/wal"
)

// Options tune a World.  The zero value gives sensible defaults.
type Options struct {
	NAS      nas.Config          // network agent timing
	Storage  Storage             // persistent-object store (default in-memory)
	Registry *codebase.Registry  // class registry (default codebase.Default)
	Cost     rmi.CostModel       // simulated RMI CPU cost (default rmi.DefaultCost)
	Default  *params.Constraints // JS-Shell default constraints for automatic decisions
	// Durability enables the per-node write-ahead log (internal/wal):
	// objects marked durable survive node crashes and whole-cluster
	// restarts via log replay.  nil keeps durability off.
	Durability *DurabilityOptions
}

func (o Options) withDefaults() Options {
	if o.Storage == nil {
		o.Storage = NewMemStorage()
	}
	if o.Registry == nil {
		o.Registry = codebase.Default
	}
	if o.Cost == (rmi.CostModel{}) {
		o.Cost = rmi.DefaultCost
	}
	return o
}

// memLatency is the in-memory transport's one-way latency.
const memLatency = 200 * time.Microsecond

// World is one JRS installation: a scheduler, a transport, and a runtime
// (station + agent + PubOA) per node, plus the directory the JS-Shell
// uses.  Sim worlds run in virtual time on a simulated cluster; local
// and TCP worlds run in real time.
type World struct {
	s        sched.Sched
	clk      *vclock.Clock  // nil in real time
	fab      *simnet.Fabric // nil outside the simulation
	storage  Storage
	registry *codebase.Registry
	nasCfg   nas.Config
	dirNode  string
	dir      *nas.Directory

	tracer  *trace.Log
	spans   *trace.SpanLog
	reg     *metrics.Registry
	router  *replica.Router // nearest-replica read routing
	slo     *slo.Engine     // per-class latency objectives
	durOpts *DurabilityOptions

	// queueBound caps each hosted object's in-flight invocations
	// (-1 = unbounded).  Atomic: the invoke hot path reads it on every
	// request, and experiments flip it between runs.
	queueBound atomic.Int64

	// shedClasses is the installation-wide set of request classes some
	// admission controller is currently refusing, counted per class so
	// independent groups shedding the same class compose.  Runtimes
	// consult it at invoke arrival and at the write-serialization
	// dequeue point: a request whose class was shed while it traveled
	// or queued is refused instead of executed, so escalation drains
	// doomed backlog instantly rather than one service time at a time
	// (DESIGN.md §12).  Own mutex: read on the host's invoke path,
	// which must not contend with w.mu.
	shedMu      sync.Mutex
	shedClasses map[string]int
	classRanks  map[string]int // class -> admission priority (0 = most important)

	// The flight recorder has its own mutex: dump triggers fire from
	// emit and from the SLO engine's breach callback, and a dump reads
	// back through the tracer/metrics/slo surfaces — none of which may
	// happen under w.mu.
	flightMu  sync.Mutex
	flightRec *flightrec.Recorder

	mu          sync.Mutex
	runtimes    map[string]*Runtime
	order       []string
	apps        []*App
	appSeq      int
	defaults    *params.Constraints
	autoPeriod  time.Duration // auto-migration period (0 = disabled)
	started     bool
	shutDown    bool
	hierarchies []*nas.Hierarchy
	detector    *nas.Detector   // nil until ArmFailureDetector
	chaosInj    *chaos.Injector // nil until InstallChaos
}

// NewSimWorld builds a virtual-time world over a simulated cluster.
func NewSimWorld(specs []simnet.MachineSpec, profile simnet.LoadProfile, seed int64, opt Options) *World {
	opt = opt.withDefaults()
	clk := vclock.New()
	s := sched.Virtual(clk)
	fab := simnet.New(clk, specs, profile, seed)
	w := newWorld(s, opt)
	w.clk = clk
	w.fab = fab
	fab.Instrument(w.reg)
	net := rmi.NewFab(fab, opt.Cost)
	for _, m := range fab.Machines() {
		w.addNode(net, m.Name(), m, nas.SimSampler{M: m})
	}
	return w
}

// NewLocalWorld builds a real-time world over the in-memory transport
// with synthetic node metrics.
func NewLocalWorld(nodeNames []string, opt Options) *World {
	opt = opt.withDefaults()
	s := sched.Real()
	w := newWorld(s, opt)
	net := rmi.NewMem(s, memLatency)
	for i, name := range nodeNames {
		w.addNode(net, name, nil, synthSampler(name, i))
	}
	return w
}

// NewTCPWorld builds a real-time world whose nodes talk real TCP over
// loopback.
func NewTCPWorld(nodeNames []string, opt Options) *World {
	opt = opt.withDefaults()
	s := sched.Real()
	w := newWorld(s, opt)
	net := rmi.NewTCP(s)
	for i, name := range nodeNames {
		w.addNode(net, name, nil, synthSampler(name, i))
	}
	return w
}

// synthSampler fabricates plausible static metrics for real-time worlds.
func synthSampler(name string, i int) *nas.SynthSampler {
	snap := params.Snapshot{
		params.NodeName:   params.Text(name),
		params.OSName:     params.Text("linux"),
		params.ArchType:   params.Text("amd64"),
		params.Idle:       params.Float(95),
		params.CPUSysLoad: params.Float(2),
		params.AvailMem:   params.Float(1024),
		params.TotalMem:   params.Float(2048),
		params.SwapRatio:  params.Float(0.05),
		params.PeakMFlops: params.Float(1000 + float64(i)),
		params.PeakBandwd: params.Float(1000),
	}
	return nas.NewSynthSampler(snap)
}

func newWorld(s sched.Sched, opt Options) *World {
	w := &World{
		s:        s,
		storage:  opt.Storage,
		registry: opt.Registry,
		nasCfg:   opt.NAS,
		runtimes: make(map[string]*Runtime),
		defaults: opt.Default,
		tracer:   trace.NewLog(trace.DefaultDepth),
		spans:    trace.NewSpanLog(trace.DefaultSpanDepth),
		reg:      metrics.NewRegistry(),
		router:   replica.NewRouter(),
	}
	w.slo = slo.NewEngine(s.Now, slo.Options{OnBreach: w.onSLOBreach})
	w.queueBound.Store(-1)
	if opt.Durability != nil {
		d := opt.Durability.withDefaults()
		w.durOpts = &d
	}
	return w
}

// SetInvokeQueueBound caps the number of invocations that may execute
// concurrently on any one hosted object.  A request arriving at a full
// mailbox is shed immediately with a typed rmi.ErrOverload — it is never
// queued, never retried by the RMI layer (a shed is a response, not a
// lost message), and surfaces to the caller unwrapped by the location
// retry loop.  n < 0 restores the default unbounded mailboxes; n == 0
// is a zero-capacity queue that sheds everything (useful for drains and
// tests).  The bound is installation-wide and takes effect on the next
// invocation.
func (w *World) SetInvokeQueueBound(n int) {
	if n < 0 {
		n = -1
	}
	w.queueBound.Store(int64(n))
}

// InvokeQueueBound returns the current per-object invoke-queue bound
// (-1 = unbounded).
func (w *World) InvokeQueueBound() int { return int(w.queueBound.Load()) }

// markClassShed records that one admission controller started (on) or
// stopped (off) shedding class.  Counted, not boolean: two groups
// shedding "bronze" must both re-admit before hosts execute it again.
func (w *World) markClassShed(class string, on bool) {
	w.shedMu.Lock()
	defer w.shedMu.Unlock()
	if w.shedClasses == nil {
		w.shedClasses = make(map[string]int)
	}
	if on {
		w.shedClasses[class]++
	} else if w.shedClasses[class] > 0 {
		w.shedClasses[class]--
	}
}

// classShed reports whether any admission controller currently sheds
// class.  The empty class (untagged traffic) is never shed here.
func (w *World) classShed(class string) bool {
	if class == "" {
		return false
	}
	w.shedMu.Lock()
	defer w.shedMu.Unlock()
	return w.shedClasses[class] > 0
}

// setClassRanks publishes an admission policy's priority order so hosts
// can run the priority mailbox (rank 0 = most important).  When two
// groups rank the same class the later policy wins; ranks only shape
// which occupancy a bound check counts, so a stale entry degrades to
// the old class-blind behaviour, never to lost requests.
func (w *World) setClassRanks(classes []string) {
	w.shedMu.Lock()
	defer w.shedMu.Unlock()
	if w.classRanks == nil {
		w.classRanks = make(map[string]int)
	}
	for i, c := range classes {
		w.classRanks[c] = i
	}
}

// classRank looks up a class's admission priority (ok=false for
// unranked traffic, which every bound check counts conservatively).
func (w *World) classRank(class string) (int, bool) {
	if class == "" {
		return 0, false
	}
	w.shedMu.Lock()
	defer w.shedMu.Unlock()
	r, ok := w.classRanks[class]
	return r, ok
}

// addNode attaches one node: station, agent, runtime.  The first node
// added hosts the directory.
func (w *World) addNode(net rmi.Network, name string, mach *simnet.Machine, sampler nas.Sampler) {
	ep, err := net.Attach(name)
	if err != nil {
		panic(fmt.Sprintf("core: attach %s: %v", name, err))
	}
	st := rmi.NewStation(w.s, ep)
	st.SetMetrics(w.reg)
	st.SetTimeoutHook(func(to, service, method string) {
		w.emit(trace.Event{Kind: trace.CallTimeout, Node: name,
			Detail: fmt.Sprintf("%s.%s on %s", service, method, to)})
	})
	st.SetRetryHook(func(to, service, method string) {
		w.emit(trace.Event{Kind: trace.CallRetry, Node: name,
			Detail: fmt.Sprintf("%s.%s on %s", service, method, to)})
	})
	first := w.dirNode == ""
	if first {
		w.dirNode = name
		w.dir = nas.NewDirectory(st, w.nasCfg)
		w.dir.SetMetrics(w.reg)
	}
	agent := nas.NewAgent(st, sampler, w.nasCfg, w.dirNode)
	rt := newRuntime(w, st, agent, mach)
	if w.durOpts != nil && mach != nil {
		// One stable medium per node: it outlives crashes (and even this
		// World — whole-cluster restart replays from the same Stable).
		m := w.durOpts.Stable.Node(name)
		rt.dur = &durState{log: wal.NewLog(m), media: m}
	}
	if first {
		// The directory node also hosts the static-object manager.
		installStaticManager(rt)
	}
	w.mu.Lock()
	w.runtimes[name] = rt
	w.order = append(w.order, name)
	w.mu.Unlock()
}

// Sched returns the world's scheduler.
func (w *World) Sched() sched.Sched { return w.s }

// Clock returns the virtual clock (nil for real-time worlds).
func (w *World) Clock() *vclock.Clock { return w.clk }

// Fabric returns the simulated fabric (nil outside the simulation).
func (w *World) Fabric() *simnet.Fabric { return w.fab }

// Directory returns the installation directory.
func (w *World) Directory() *nas.Directory { return w.dir }

// Storage returns the persistent-object store.
func (w *World) Storage() Storage { return w.storage }

// Trace returns the installation's event log.
func (w *World) Trace() *trace.Log { return w.tracer }

// Spans returns the installation's invocation span log.
func (w *World) Spans() *trace.SpanLog { return w.spans }

// Metrics returns the installation's metrics registry.  All timing
// metrics are recorded against the world's scheduler clock, so on sim
// worlds a snapshot is a deterministic function of the seed.
func (w *World) Metrics() *metrics.Registry { return w.reg }

// routeRead picks the replica-set member a declared read should target,
// given the caller's node and the members it already failed against.
// Nearest by fabric latency wins; equally-near members are rotated
// per-object so a uniform cluster spreads load instead of hammering one
// copy.  ok is false when no routable member remains (the caller then
// falls back to the primary location it already has).
func (w *World) routeRead(key, origin string, set replica.Set, avoid map[string]bool) (string, bool) {
	return w.router.Pick(key, origin, set.Members(), avoid, w.replicaMetric())
}

// replicaMetric adapts the fabric and the directory to the router's view
// of the installation.  Real-time worlds have no fabric: distances
// degrade to zero and the per-key rotation alone spreads reads.
func (w *World) replicaMetric() replica.Metric {
	m := replica.Metric{}
	if w.fab != nil {
		m.Latency = func(from, to string) time.Duration {
			a, okA := w.fab.ByName(from)
			b, okB := w.fab.ByName(to)
			if !okA || !okB {
				return 0
			}
			return w.fab.Latency(a, b)
		}
		m.Bandwidth = func(from, to string) float64 {
			a, okA := w.fab.ByName(from)
			b, okB := w.fab.ByName(to)
			if !okA || !okB {
				return 0
			}
			return w.fab.Bandwidth(a, b)
		}
	}
	if w.dir != nil {
		live := make(map[string]bool)
		for _, n := range w.dir.Nodes(w.s.Now()) {
			live[n] = true
		}
		m.Alive = func(node string) bool { return live[node] }
	}
	return m
}

// noteRead records where a successful declared read was served, feeding
// the replica-hit ratio the shell's metrics command shows (the span
// carries how stale the state was).
func (w *World) noteRead(read bool, resp invokeResp) {
	if !read {
		return
	}
	if resp.Replica {
		w.reg.Counter("js_replica_read_hits_total").Inc()
	} else {
		w.reg.Counter("js_replica_read_primary_total").Inc()
	}
}

// Apps returns the registered applications in registration order.
func (w *World) Apps() []*App {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]*App(nil), w.apps...)
}

// emit records an installation event with the current scheduler time.
// An injected chaos fault additionally trips the flight recorder (when
// armed): the dump captures the installation's state at the moment the
// fault landed, before the blast radius unfolds.
func (w *World) emit(e trace.Event) {
	e.At = w.s.Now()
	w.tracer.Emit(e)
	if e.Kind == trace.ChaosFault {
		w.triggerFlightDump("chaos: " + e.Detail)
	}
}

// observeSpan files one finished span: into the span log always, and —
// for classified request spans — into the SLO engine.  Retry and
// propagation spans are causal annotations, not requests: their time is
// already inside their causing span's segments.
func (w *World) observeSpan(sp trace.Span) {
	w.spans.Record(sp)
	if sp.Kind == trace.SpanRetry || sp.Kind == trace.SpanPropagate {
		return
	}
	w.slo.Record(sp.Class, sp.Total(), sp.Err != "")
}

// DeclareSLO installs one request-class latency objective.
func (w *World) DeclareSLO(s slo.SLO) error { return w.slo.Declare(s) }

// SLOReport snapshots per-class attainment.
func (w *World) SLOReport() slo.Report { return w.slo.Report() }

// onSLOBreach reacts to a class burning its error budget past the
// engine's threshold: trace it and trip the flight recorder.
// The engine invokes this outside its lock, so the dump may read the
// SLO report back.
func (w *World) onSLOBreach(class string, burn float64) {
	w.emit(trace.Event{Kind: trace.SLOBreach, Node: w.dirNode,
		Detail: fmt.Sprintf("class %s burn %.1f", class, burn)})
	w.triggerFlightDump(fmt.Sprintf("slo: class %s burn %.1f", class, burn))
}

// ArmFlightRecorder installs the incident flight recorder (idempotent;
// the first call wins).  Once armed, chaos faults and SLO burn-rate
// breaches capture dumps automatically; Trigger captures one on demand.
func (w *World) ArmFlightRecorder() *flightrec.Recorder {
	w.flightMu.Lock()
	defer w.flightMu.Unlock()
	if w.flightRec == nil {
		w.flightRec = flightrec.New(flightrec.Sources{
			Now:     w.s.Now,
			Events:  w.tracer.Events,
			Spans:   w.spans.Spans,
			Metrics: w.reg.Snapshot,
			SLO:     w.slo.Report,
		})
	}
	return w.flightRec
}

// FlightRecorder returns the armed recorder (nil before
// ArmFlightRecorder).
func (w *World) FlightRecorder() *flightrec.Recorder {
	w.flightMu.Lock()
	defer w.flightMu.Unlock()
	return w.flightRec
}

// triggerFlightDump captures a dump if a recorder is armed.
func (w *World) triggerFlightDump(reason string) {
	w.flightMu.Lock()
	rec := w.flightRec
	w.flightMu.Unlock()
	if rec != nil {
		rec.Trigger(reason)
		w.reg.Counter("js_flight_dumps_total").Inc()
	}
}

// NASConfig returns the effective network-agent configuration.
func (w *World) NASConfig() nas.Config {
	cfg := w.nasCfg
	if cfg.MonitorPeriod <= 0 || cfg.FailTimeout <= 0 || cfg.CallTimeout <= 0 {
		d := nas.DefaultConfig()
		if cfg.MonitorPeriod <= 0 {
			cfg.MonitorPeriod = d.MonitorPeriod
		}
		if cfg.FailTimeout <= 0 {
			cfg.FailTimeout = d.FailTimeout
		}
		if cfg.CallTimeout <= 0 {
			cfg.CallTimeout = d.CallTimeout
		}
	}
	return cfg
}

// Registry returns the class registry.
func (w *World) Registry() *codebase.Registry { return w.registry }

// Nodes returns all node names in attach order.
func (w *World) Nodes() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.order...)
}

// Runtime returns the named node's runtime.
func (w *World) Runtime(name string) (*Runtime, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	rt, ok := w.runtimes[name]
	return rt, ok
}

// MustRuntime is Runtime for nodes known to exist.
func (w *World) MustRuntime(name string) *Runtime {
	rt, ok := w.Runtime(name)
	if !ok {
		panic("core: no runtime for node " + name)
	}
	return rt
}

// DefaultConstraints returns the JS-Shell default constraint set (may be
// nil).
func (w *World) DefaultConstraints() *params.Constraints {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.defaults
}

// SetDefaultConstraints installs the JS-Shell default constraints used
// for automatic placement and migration when an application gives none.
func (w *World) SetDefaultConstraints(c *params.Constraints) {
	w.mu.Lock()
	w.defaults = c
	w.mu.Unlock()
}

// SetAutoMigration enables (period > 0) or disables (0) automatic object
// migration — the JS-Shell toggle of §5.2.  Affects applications
// registered afterwards and the engines of already-registered ones at
// their next cycle.
func (w *World) SetAutoMigration(period time.Duration) {
	w.mu.Lock()
	w.autoPeriod = period
	apps := append([]*App(nil), w.apps...)
	w.mu.Unlock()
	for _, a := range apps {
		a.setAutoPeriod(period)
	}
}

// SetRMIPolicy installs a sync-call retry policy on every station of the
// installation (see rmi.Policy).  Call before heavy traffic starts;
// in-flight calls keep the policy they began with.
func (w *World) SetRMIPolicy(pol rmi.Policy) {
	w.mu.Lock()
	rts := make([]*Runtime, 0, len(w.order))
	for _, n := range w.order {
		rts = append(rts, w.runtimes[n])
	}
	w.mu.Unlock()
	for _, rt := range rts {
		rt.st.SetPolicy(pol)
	}
}

// chaosTarget adapts the world to the chaos.Target surface: faults act
// on the simulated fabric and on the per-node runtime state.
type chaosTarget struct{ w *World }

func (t chaosTarget) Nodes() []string { return t.w.Nodes() }

func (t chaosTarget) machine(node string) (*Runtime, error) {
	rt, ok := t.w.Runtime(node)
	if !ok {
		return nil, fmt.Errorf("core: chaos: no such node %q", node)
	}
	if rt.mach == nil {
		return nil, errors.New("core: chaos requires a simulated fabric")
	}
	return rt, nil
}

// Crash kills the machine and drops the node's process state: hosted
// objects and location caches are lost, exactly as a JRS process death
// would lose them.
func (t chaosTarget) Crash(node string) error {
	rt, err := t.machine(node)
	if err != nil {
		return err
	}
	rt.mach.Kill()
	rt.Crash()
	rt.durCrash()
	return nil
}

// Restart revives the machine with an empty object store and relaunches
// its monitoring agent, so the directory sees it reporting again.
func (t chaosTarget) Restart(node string) error {
	rt, err := t.machine(node)
	if err != nil {
		return err
	}
	rt.mach.Revive()
	rt.durRepair()
	rt.agent.Restart()
	return nil
}

func (t chaosTarget) checkEndpoint(name string) error {
	if name == "*" {
		return nil
	}
	if _, ok := t.w.Runtime(name); !ok {
		return fmt.Errorf("core: chaos: no such node %q", name)
	}
	return nil
}

func (t chaosTarget) SetPartitioned(a, b string, on bool) error {
	if err := t.checkEndpoint(a); err != nil {
		return err
	}
	if err := t.checkEndpoint(b); err != nil {
		return err
	}
	t.w.fab.SetPartitioned(a, b, on)
	return nil
}

func (t chaosTarget) SetLink(a, b string, pol simnet.LinkPolicy) error {
	if err := t.checkEndpoint(a); err != nil {
		return err
	}
	if err := t.checkEndpoint(b); err != nil {
		return err
	}
	t.w.fab.SetLinkPolicy(a, b, pol)
	return nil
}

func (t chaosTarget) SetSlowdown(node string, extra float64) error {
	rt, err := t.machine(node)
	if err != nil {
		return err
	}
	rt.mach.SetExtraLoad(extra)
	return nil
}

// InstallChaos builds and starts the fault injector for this world.  It
// also arms the failure detector, so injected crashes surface as
// NodeFailed/NodeRecovered events and trigger recovery for applications
// that enabled it.  Only simulated worlds support chaos; installing
// twice is an error (the injector owns the world's fault state).
func (w *World) InstallChaos(spec *chaos.Spec, seed int64) (*chaos.Injector, error) {
	if w.fab == nil {
		return nil, errors.New("core: chaos requires a simulated world")
	}
	inj := chaos.New(chaos.Config{
		Sched:  w.s,
		Target: chaosTarget{w},
		Spec:   spec,
		Seed:   seed,
		Emit:   w.emit,
	})
	w.mu.Lock()
	if w.chaosInj != nil {
		w.mu.Unlock()
		return nil, errors.New("core: chaos already installed")
	}
	w.chaosInj = inj
	w.mu.Unlock()
	w.ArmFailureDetector()
	inj.Start()
	return inj, nil
}

// Chaos returns the installed injector (nil if InstallChaos was never
// called).
func (w *World) Chaos() *chaos.Injector {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.chaosInj
}

// ArmFailureDetector starts the directory-side failure detector
// (idempotent).  Detected failures are traced, counted, and — for
// applications with recovery enabled — handed to RecoverFrom.
func (w *World) ArmFailureDetector() {
	w.mu.Lock()
	if w.detector != nil || w.dir == nil {
		w.mu.Unlock()
		return
	}
	det := nas.NewDetector(w.s, w.dir, w.nasCfg, w.onLiveness)
	w.detector = det
	w.mu.Unlock()
	det.Start()
}

// onLiveness reacts to detector events.
func (w *World) onLiveness(e nas.Event) {
	switch e.Kind {
	case nas.EventNodeFailed:
		w.emit(trace.Event{Kind: trace.NodeFailed, Node: e.Node, Detail: "detector"})
		w.mu.Lock()
		apps := append([]*App(nil), w.apps...)
		w.mu.Unlock()
		for _, a := range apps {
			a.onNodeFailed(e.Node)
		}
	case nas.EventNodeRecovered:
		w.emit(trace.Event{Kind: trace.NodeRecovered, Node: e.Node, Detail: "detector"})
		w.mu.Lock()
		apps := append([]*App(nil), w.apps...)
		w.mu.Unlock()
		for _, a := range apps {
			// Post-heal zombie cleanup: a healed node may still host the
			// deposed primary lineage a promotion fenced off while the
			// node was partitioned away.  Tear it down so its replState
			// and fan-out state stop leaking (and stop blocking re-seeds).
			if a.hasFencedOn(e.Node) {
				app, node := a, e.Node
				w.s.Spawn("oas.zombieclean:"+app.id, func(p sched.Proc) {
					app.cleanupZombies(p, node)
				})
			}
		}
	}
}

// Start launches every station and agent.
func (w *World) Start() {
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		return
	}
	w.started = true
	rts := make([]*Runtime, 0, len(w.order))
	for _, n := range w.order {
		rts = append(rts, w.runtimes[n])
	}
	w.mu.Unlock()
	for _, rt := range rts {
		rt.st.Start()
	}
	for _, rt := range rts {
		rt.agent.Start()
	}
	for _, rt := range rts {
		if rt.dur != nil {
			r := rt
			w.s.Spawn("oas.wal:"+r.Node(), r.durLoop)
		}
	}
}

// trackHierarchy remembers a hierarchy for shutdown.
func (w *World) trackHierarchy(h *nas.Hierarchy) {
	w.mu.Lock()
	w.hierarchies = append(w.hierarchies, h)
	w.mu.Unlock()
}

// Shutdown stops agents, hierarchies, application engines, and stations.
// p is used to let periodic loops observe their stop flags; pass any live
// proc (sim worlds) — real worlds may pass nil.
func (w *World) Shutdown(p sched.Proc) {
	w.mu.Lock()
	if w.shutDown {
		w.mu.Unlock()
		return
	}
	w.shutDown = true
	apps := append([]*App(nil), w.apps...)
	hiers := append([]*nas.Hierarchy(nil), w.hierarchies...)
	rts := make([]*Runtime, 0, len(w.order))
	for _, n := range w.order {
		rts = append(rts, w.runtimes[n])
	}
	inj := w.chaosInj
	det := w.detector
	w.mu.Unlock()

	// Quiesce fault injection first: no new faults, reverts, or failure
	// detections may fire into a tearing-down installation.
	if inj != nil {
		inj.Stop()
	}
	if det != nil {
		det.Stop()
	}
	for _, a := range apps {
		a.stopEngine()
	}
	for _, h := range hiers {
		h.Stop()
	}
	for _, rt := range rts {
		rt.agent.Stop()
	}
	if p != nil {
		cfg := w.nasCfg
		if cfg.MonitorPeriod <= 0 {
			cfg = nas.DefaultConfig()
		}
		p.Sleep(2 * cfg.MonitorPeriod)
	}
	for _, rt := range rts {
		rt.st.Close()
	}
}

// RunMain is the canonical way to drive a simulated world: it starts the
// world, runs fn on an adopted main proc, shuts everything down, and
// drains the simulation.  It panics on real-time worlds (just call Start
// and your own goroutines there).
func (w *World) RunMain(fn func(p sched.Proc)) {
	if w.clk == nil {
		panic("core: RunMain is for simulated worlds")
	}
	w.Start()
	p, done := sched.AdoptVirtual(w.s, "main")
	fn(p)
	w.Shutdown(p)
	done()
	w.clk.Run()
}
