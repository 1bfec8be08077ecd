package nas

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"jsymphony/internal/params"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
)

// Config bundles the NAS timing knobs, all adjustable from the JS-Shell
// in the paper ("the performance measurement and collection periods can
// be controlled under the JS-Shell").
type Config struct {
	// MonitorPeriod is the sampling / reporting / aggregation period.
	MonitorPeriod time.Duration
	// FailTimeout is how long an unresponsive node may stay silent
	// before it "is said to have caused a failure" (§5.1).
	FailTimeout time.Duration
	// CallTimeout bounds individual NAS RMI calls.
	CallTimeout time.Duration
}

// DefaultConfig mirrors sensible paper-era values.
func DefaultConfig() Config {
	return Config{
		MonitorPeriod: 500 * time.Millisecond,
		FailTimeout:   2 * time.Second,
		CallTimeout:   1500 * time.Millisecond,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MonitorPeriod <= 0 {
		c.MonitorPeriod = d.MonitorPeriod
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = d.FailTimeout
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = d.CallTimeout
	}
	return c
}

// AgentService is the RMI service name every network agent registers.
const AgentService = "nas.agent"

// reportMsg is the agent → directory periodic report.
type reportMsg struct {
	Node string
	Snap params.Snapshot
}

// aggMsg carries a component aggregate request/response.
type aggMsg struct {
	Component string
	Snap      params.Snapshot
	OK        bool
}

// Agent is one node's network agent.  It samples the node periodically,
// keeps the latest snapshot, reports to the directory, and serves RMI
// queries; when this node manages architecture components it also stores
// their aggregated snapshots.
type Agent struct {
	st      *rmi.Station
	sampler Sampler
	cfg     Config
	dirNode string

	mu      sync.Mutex
	latest  params.Snapshot
	history *History
	aggs    map[string]params.Snapshot
	objects int // JavaSymphony objects hosted (fed by the OAS layer)
	stopped bool
	gen     int // monitor-loop generation; stale loops exit at their next tick
}

// NewAgent builds the agent for st's node and registers the AgentService.
// dirNode names the directory's node ("" disables reporting).
func NewAgent(st *rmi.Station, sampler Sampler, cfg Config, dirNode string) *Agent {
	a := &Agent{
		st:      st,
		sampler: sampler,
		cfg:     cfg.withDefaults(),
		dirNode: dirNode,
		aggs:    make(map[string]params.Snapshot),
		history: NewHistory(DefaultHistoryDepth),
	}
	a.latest = sampler.Sample(0)
	st.Register(AgentService, a.handle)
	return a
}

// Node returns the agent's node name.
func (a *Agent) Node() string { return a.st.Node() }

// Station returns the agent's RMI station.
func (a *Agent) Station() *rmi.Station { return a.st }

// Config returns the agent's timing configuration.
func (a *Agent) Config() Config { return a.cfg }

// Alive reports node liveness.
func (a *Agent) Alive() bool { return a.sampler.Alive() }

// Start spawns the monitor loop.
func (a *Agent) Start() {
	a.mu.Lock()
	a.stopped = false
	a.gen++
	gen := a.gen
	a.mu.Unlock()
	a.st.Sched().Spawn("nas:"+a.Node(), func(p sched.Proc) { a.monitor(p, gen) })
}

// Restart re-launches the monitor loop after a node restart (the loop
// exits permanently when its machine dies).  The generation counter
// retires any loop a previous Start left behind, so Restart never
// double-reports.  It is a no-op on a closed station.
func (a *Agent) Restart() {
	if a.st.Closed() {
		return
	}
	a.Start()
}

// Stop halts the monitor loop at its next tick.
func (a *Agent) Stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
}

// SetObjects lets the object agent system feed the jrs.objects parameter.
func (a *Agent) SetObjects(n int) {
	a.mu.Lock()
	a.objects = n
	a.mu.Unlock()
}

// Latest returns the most recent local snapshot.
func (a *Agent) Latest() params.Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.latest.Clone()
}

// HistoryFormat renders one parameter's history for shell display.
func (a *Agent) HistoryFormat(id params.ID) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.history.Format(id)
}

// SetAgg stores an aggregated snapshot for a component this node manages.
func (a *Agent) SetAgg(component string, snap params.Snapshot) {
	a.mu.Lock()
	a.aggs[component] = snap
	a.mu.Unlock()
}

// Agg returns a managed component's aggregate.
func (a *Agent) Agg(component string) (params.Snapshot, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.aggs[component]
	if !ok {
		return nil, false
	}
	return s.Clone(), true
}

// monitor is the periodic sampling/reporting loop.  gen guards against a
// restarted agent running two loops: the stale one exits here.
func (a *Agent) monitor(p sched.Proc, gen int) {
	lastServed := a.st.Stats().Served
	for {
		a.mu.Lock()
		stopped := a.stopped || a.gen != gen
		objects := a.objects
		a.mu.Unlock()
		if stopped {
			return
		}
		if !a.sampler.Alive() {
			return // node died; the agent dies with it
		}
		snap := a.sampler.Sample(p.Sched().Now())
		snap.SetFloat(params.JSObjects, float64(objects))
		// jrs.rmi.rate: requests served per second since the last tick.
		served := a.st.Stats().Served
		snap.SetFloat(params.RMIRate, float64(served-lastServed)/a.cfg.MonitorPeriod.Seconds())
		lastServed = served
		a.mu.Lock()
		a.latest = snap
		a.history.Add(p.Sched().Now(), snap)
		a.mu.Unlock()
		if a.dirNode != "" {
			body := rmi.MustMarshal(reportMsg{Node: a.Node(), Snap: snap})
			// Report one-sided: the directory never answers reports.
			_ = a.st.Post(p, a.dirNode, DirService, "report", body)
		}
		p.Sleep(a.cfg.MonitorPeriod)
	}
}

// errNodeDown is returned (after a delay) by handlers on dead nodes when
// the transport itself does not drop traffic (the in-memory one).
var errNodeDown = errors.New("nas: node down")

// handle serves the AgentService RMI methods.
func (a *Agent) handle(p sched.Proc, from, method string, body []byte) ([]byte, error) {
	if !a.sampler.Alive() {
		// A dead machine answers nothing: stall past any caller timeout
		// so in-memory transports behave like the dropped-packet fabric.
		p.Sleep(a.cfg.FailTimeout * 16)
		return nil, errNodeDown
	}
	switch method {
	case "ping":
		return nil, nil
	case "get":
		return rmi.MustMarshal(a.Latest()), nil
	case "getAgg":
		var comp string
		if err := rmi.Unmarshal(body, &comp); err != nil {
			return nil, err
		}
		snap, ok := a.Agg(comp)
		return rmi.MustMarshal(aggMsg{Component: comp, Snap: snap, OK: ok}), nil
	}
	return nil, fmt.Errorf("nas: agent has no method %q", method)
}

// FetchSnapshot retrieves another node's latest snapshot over RMI.
func (a *Agent) FetchSnapshot(p sched.Proc, node string) (params.Snapshot, error) {
	if node == a.Node() {
		return a.Latest(), nil
	}
	body, err := a.st.Call(p, node, AgentService, "get", nil, a.cfg.CallTimeout)
	if err != nil {
		return nil, err
	}
	var snap params.Snapshot
	if err := rmi.Unmarshal(body, &snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// FetchAgg retrieves a component aggregate from its manager node.
func (a *Agent) FetchAgg(p sched.Proc, node, component string) (params.Snapshot, error) {
	if node == a.Node() {
		snap, ok := a.Agg(component)
		if !ok {
			return nil, fmt.Errorf("nas: no aggregate for %q on %s", component, node)
		}
		return snap, nil
	}
	body, err := a.st.Call(p, node, AgentService, "getAgg", rmi.MustMarshal(component), a.cfg.CallTimeout)
	if err != nil {
		return nil, err
	}
	var m aggMsg
	if err := rmi.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	if !m.OK {
		return nil, fmt.Errorf("nas: no aggregate for %q on %s", component, node)
	}
	return m.Snap, nil
}

// Ping checks another node's agent, returning false on timeout.
func (a *Agent) Ping(p sched.Proc, node string) bool {
	if node == a.Node() {
		return a.sampler.Alive()
	}
	_, err := a.st.Call(p, node, AgentService, "ping", nil, a.cfg.CallTimeout)
	return err == nil
}
