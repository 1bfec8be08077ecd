package jsymphony

import (
	"time"

	"jsymphony/internal/core"
	"jsymphony/internal/sched"
)

// Env is one running JRS installation — the deployment an application
// registers with.  Sim environments run in virtual time on a simulated
// cluster; Local and TCP environments run in real time.
type Env struct {
	w *core.World
}

// EnvOptions tune an environment; the zero value is fine.
type EnvOptions struct {
	// NAS configures monitoring/failure-detection periods.
	NAS NASConfig
	// Storage backs persistent objects (default: in-memory).
	Storage Storage
	// Cost overrides the simulated RMI CPU cost model.
	Cost RMICost
	// Default installs JS-Shell default constraints applied to all
	// automatic placement and migration decisions.
	Default *Constraints
	// Durability enables the per-node write-ahead log on simulated
	// environments: objects marked Persist survive node crashes and
	// whole-cluster restarts via log replay (DESIGN.md §13).  nil keeps
	// durability off.
	Durability *DurabilityOptions
}

func (o EnvOptions) coreOptions() core.Options {
	return core.Options{
		NAS:        o.NAS,
		Storage:    o.Storage,
		Cost:       o.Cost,
		Default:    o.Default,
		Durability: o.Durability,
	}
}

// NewSimEnv builds a virtual-time environment over the given simulated
// machines under the given background-load profile.  The seed fixes the
// load traces, making runs reproducible.
func NewSimEnv(machines []MachineSpec, profile LoadProfile, seed int64, opt EnvOptions) *Env {
	return &Env{w: core.NewSimWorld(machines, profile, seed, opt.coreOptions())}
}

// NewLocalEnv builds a real-time environment whose nodes communicate
// through an in-process transport.
func NewLocalEnv(nodeNames []string, opt EnvOptions) *Env {
	return &Env{w: core.NewLocalWorld(nodeNames, opt.coreOptions())}
}

// NewTCPEnv builds a real-time environment whose nodes communicate over
// real TCP loopback sockets.
func NewTCPEnv(nodeNames []string, opt EnvOptions) *Env {
	return &Env{w: core.NewTCPWorld(nodeNames, opt.coreOptions())}
}

// World exposes the underlying world for advanced use (benchmarks, the
// shell).
func (e *Env) World() *core.World { return e.w }

// Nodes lists the environment's node names.
func (e *Env) Nodes() []string { return e.w.Nodes() }

// DeclareSLO registers a latency objective; subsequent classified
// requests are measured against it.
func (e *Env) DeclareSLO(s SLO) error { return e.w.DeclareSLO(s) }

// SLOReport returns per-class latency quantiles, attainment, and
// burn rates at the current scheduler time.
func (e *Env) SLOReport() SLOReport { return e.w.SLOReport() }

// Spans snapshots the retained invocation spans (the causal DAG the
// critical-path analyzer consumes).
func (e *Env) Spans() []Span { return e.w.Spans().Spans() }

// ArmFlightRecorder installs (or returns the already-armed) flight
// recorder: bounded observability dumps are preserved automatically on
// every injected chaos fault and SLO burn-rate breach.
func (e *Env) ArmFlightRecorder() *FlightRecorder { return e.w.ArmFlightRecorder() }

// FlightRecorder returns the armed recorder, or nil.
func (e *Env) FlightRecorder() *FlightRecorder { return e.w.FlightRecorder() }

// SetAutoMigration enables (period > 0) or disables (0) automatic object
// migration installation-wide — the JS-Shell toggle of §5.2.
func (e *Env) SetAutoMigration(period time.Duration) { e.w.SetAutoMigration(period) }

// Start launches the environment (stations and agents).  RunMain does
// this automatically; real-time environments call it before Attach.
func (e *Env) Start() { e.w.Start() }

// InstallChaos arms the deterministic fault-injection subsystem on a
// simulated environment: the spec's scheduled and stochastic faults are
// driven by the virtual clock and a splitmix64 chain over seed, so a
// chaos run is byte-reproducible from (spec, seed).  Call before
// RunMain.  The injector starts with the installation and is quiesced
// by shutdown.
func (e *Env) InstallChaos(spec *ChaosSpec, seed int64) (*ChaosInjector, error) {
	return e.w.InstallChaos(spec, seed)
}

// SetRMIPolicy installs a retry/timeout/backoff policy on every node's
// RMI station.  The zero policy restores the historical single-attempt
// behavior.  With retries enabled, synchronous calls become
// exactly-once under message loss, duplication, and reordering:
// retried requests carry the same correlation ID and receivers dedup
// by (sender, ID).
func (e *Env) SetRMIPolicy(pol RMIPolicy) { e.w.SetRMIPolicy(pol) }

// SetInvokeQueueBound caps every hosted object's concurrent in-flight
// invocations: a request arriving at a full mailbox is shed immediately
// with a typed ErrOverload instead of queueing without bound.  n < 0
// (the default) restores unbounded mailboxes; n == 0 sheds everything.
// Sheds are responses, not lost messages — the RMI layer never retries
// them (see DESIGN.md §12).
func (e *Env) SetInvokeQueueBound(n int) { e.w.SetInvokeQueueBound(n) }

// WALStatus reports every durability-enabled node's write-ahead-log
// media statistics (appends, flushes, checkpoints, torn bytes), in
// node-attach order.  Empty when durability is off.
func (e *Env) WALStatus() []WALStats { return e.w.WALStatus() }

// RunMain drives a simulated environment: it starts the installation,
// waits one monitoring round so agents report in, registers an
// application on the given home node ("" = the first node), runs fn,
// unregisters, and shuts the simulation down.  This is the virtual-time
// analogue of a JavaSymphony main program (paper Fig. 6).
func (e *Env) RunMain(home string, fn func(js *JS)) { e.runMain(home, fn, true) }

// RunMainDurable is RunMain without the final Unregister: on a
// durability-enabled environment the application's persisted objects
// are supposed to outlive the installation, and unregistering would
// tombstone them.  A later environment over the same stable media
// replays them with JS.RecoverDurable — the whole-cluster-restart path
// of DESIGN.md §13.
func (e *Env) RunMainDurable(home string, fn func(js *JS)) { e.runMain(home, fn, false) }

// runMain is the body of both; unregister is the whole difference.
func (e *Env) runMain(home string, fn func(js *JS), unregister bool) {
	e.w.RunMain(func(p sched.Proc) {
		p.Sleep(settleTime(e))
		if home == "" {
			home = e.w.Nodes()[0]
		}
		app, err := e.w.Register(home)
		if err != nil {
			panic(err)
		}
		if unregister {
			defer app.Unregister(p)
		}
		fn(&JS{env: e, app: app, p: p})
	})
}

// settleTime gives agents one reporting round before allocation starts.
func settleTime(e *Env) time.Duration {
	cfg := e.w.NASConfig()
	return cfg.MonitorPeriod + cfg.MonitorPeriod/2
}

// Attach registers an application on a real-time environment (after
// Start).  The returned session is bound to the calling goroutine.
func (e *Env) Attach(home string) (*JS, error) {
	if home == "" {
		home = e.w.Nodes()[0]
	}
	app, err := e.w.Register(home)
	if err != nil {
		return nil, err
	}
	return &JS{env: e, app: app, p: sched.RealProc(e.w.Sched())}, nil
}

// Shutdown stops a real-time environment.  Simulated environments shut
// down inside RunMain.
func (e *Env) Shutdown() {
	var p sched.Proc
	if e.w.Clock() == nil {
		p = sched.RealProc(e.w.Sched())
	}
	e.w.Shutdown(p)
}
