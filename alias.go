// Package jsymphony is a Go implementation of JavaSymphony (Thomas
// Fahringer, IEEE CLUSTER 2000): a programming paradigm for
// locality-oriented distributed and parallel applications.
//
// JavaSymphony lets the programmer — rather than an opaque runtime —
// control data locality and load balancing: virtual architectures
// (nodes, clusters, sites, domains) impose a hierarchy on the physical
// installation; objects are created on, mapped to, and migrated between
// architecture components, optionally under constraints over ~50
// hardware/software system parameters; objects interact through
// synchronous, asynchronous, and one-sided method invocation; classes
// are selectively loaded onto exactly the nodes that need them; and
// objects can be made persistent on external storage.
//
// The package runs on three substrates behind one API: a deterministic
// discrete-event simulation of a heterogeneous workstation cluster (the
// paper's evaluation environment), an in-process transport in real time,
// and real TCP sockets.  See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the reproduction of the paper's evaluation.
package jsymphony

import (
	"jsymphony/internal/chaos"
	"jsymphony/internal/codebase"
	"jsymphony/internal/core"
	"jsymphony/internal/flight"
	"jsymphony/internal/heat"
	"jsymphony/internal/nas"
	"jsymphony/internal/params"
	"jsymphony/internal/place"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/simnet"
	"jsymphony/internal/slo"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
	"jsymphony/internal/wal"
)

// Virtual architecture components (paper §3, §4.2).
type (
	// Node is one allocated computing node.
	Node = virtarch.Node
	// Cluster is a collection of nodes.
	Cluster = virtarch.Cluster
	// Site is a collection of clusters.
	Site = virtarch.Site
	// Domain is a collection of sites — the top of an architecture.
	Domain = virtarch.Domain
	// Component is any of the above, usable as a placement target.
	Component = virtarch.Component
)

// Constraint machinery (paper §4.2).
type (
	// Constraints is the paper's JSConstraints: a conjunction of
	// "parameter op value" conditions.
	Constraints = params.Constraints
	// ParamID names a system parameter.
	ParamID = params.ID
	// ParamValue is a system parameter value (number or string).
	ParamValue = params.Value
	// Snapshot is a full parameter snapshot of a node or component.
	Snapshot = params.Snapshot
)

// NewConstraints returns an empty constraint set ("new JSConstraints()").
func NewConstraints() *Constraints { return params.NewConstraints() }

// The JSConstants catalog (a selection; params package has all ~50).
const (
	NodeName   = params.NodeName
	OSName     = params.OSName
	CPUType    = params.CPUType
	CPUClock   = params.CPUClock
	PeakMFlops = params.PeakMFlops
	TotalMem   = params.TotalMem
	PeakBandwd = params.PeakBandwd
	CPUSysLoad = params.CPUSysLoad
	CPUUser    = params.CPUUserLoad
	Idle       = params.Idle
	AvailMem   = params.AvailMem
	SwapRatio  = params.SwapRatio
	NetLatency = params.NetLatency
	NetBandwd  = params.NetBandwidth
	LoadAvg1   = params.LoadAvg1
	JSObjects  = params.JSObjects
)

// Object system re-exports (paper §4.4–4.7, §5.2).
type (
	// Ref is a first-order object handle, transmissible as a method
	// parameter.
	Ref = core.Ref
	// Ctx is the execution context a hosted method receives when its
	// first parameter is *jsymphony.Ctx.
	Ctx = core.Ctx
	// RuntimeAware objects are handed their hosting runtime on
	// creation, migration, and load.
	RuntimeAware = core.RuntimeAware
	// Storage is the external store for persistent objects.
	Storage = core.Storage
	// PersistRecord is one stored object.
	PersistRecord = core.PersistRecord
)

// Durable log-structured object store (DESIGN.md §13): per-node
// write-ahead logs with group commit, incremental checkpoints, and
// crash-consistent replay.
type (
	// DurabilityOptions configures the per-node WALs (commit interval,
	// checkpoint watermarks, and the stable media they live on).
	DurabilityOptions = core.DurabilityOptions
	// WALStable is the simulated stable-storage layer the logs live on;
	// it survives environment teardown, so a second environment over the
	// same WALStable models a whole-cluster restart.
	WALStable = wal.Stable
	// WALStats is one node's media statistics.
	WALStats = wal.Stats
	// DurableRecovery reports one application's whole-cluster restore.
	DurableRecovery = core.DurableRecovery
)

// NewWALStable returns a fresh stable-storage layer for durable
// environments; the seed fixes the media CRC chain.
func NewWALStable(seed int64) *WALStable { return wal.NewStable(seed) }

// ErrNotFound marks a Storage.Get miss: no record is stored under the
// key.  Detect it with errors.Is.
var ErrNotFound = core.ErrNotFound

// NewMemStorage returns an in-memory persistent-object store.
func NewMemStorage() Storage { return core.NewMemStorage() }

// NewFileStorage returns a directory-backed persistent-object store.
func NewFileStorage(dir string) (Storage, error) { return core.NewFileStorage(dir) }

// Simulation re-exports: the evaluation substrate (paper §6).
type (
	// MachineSpec describes one simulated workstation.
	MachineSpec = simnet.MachineSpec
	// LoadProfile models owner-imposed background load.
	LoadProfile = simnet.LoadProfile
	// NASConfig tunes the network agent system periods.
	NASConfig = nas.Config
	// NASEvent is a failure/takeover notification.
	NASEvent = nas.Event
	// RMIPolicy configures sync-call retry/timeout/backoff; the zero
	// value is the historical single-attempt behavior.
	RMIPolicy = rmi.Policy
)

// Object replication (forward extension of the paper's OAS; see
// internal/replica and DESIGN.md §8).
type (
	// ReplicaPolicy declares how an object is replicated: how many read
	// replicas, which methods are read-only, and how writes propagate.
	ReplicaPolicy = replica.Policy
	// ReplicaMode selects the write-propagation protocol.
	ReplicaMode = replica.Mode
	// ReplicaSet is one object's materialized set (primary + replicas).
	ReplicaSet = replica.Set
	// ReplicaSetInfo pairs an object handle with its set.
	ReplicaSetInfo = core.ReplicaSetInfo
)

// Shard groups (key-space partitioning over replica sets; see
// internal/shard and DESIGN.md §10).
type (
	// ShardSpec declares a shard group: how many shards, ring density,
	// per-shard replication, and the class's handoff protocol methods.
	ShardSpec = core.ShardSpec
	// ShardInfo describes one shard's placement and replica set.
	ShardInfo = core.ShardInfo
	// ShardGroupInfo snapshots a whole group.
	ShardGroupInfo = core.ShardGroupInfo
)

// Admission control and load shedding (DESIGN.md §12).
type (
	// AdmissionPolicy declares router-side shedding for a shard group:
	// client classes in priority order, burn-rate thresholds, and the
	// dwell between level changes.
	AdmissionPolicy = core.AdmissionPolicy
	// AdmissionState snapshots a group's admission controller.
	AdmissionState = core.AdmissionState
)

// ErrOverload is the typed load-shed rejection: a bounded invoke queue
// or an admission controller refused the request.  Detect it with
// errors.Is; it is never retried by the RMI layer and is disjoint from
// ErrCallTimeout.
var ErrOverload = rmi.ErrOverload

// ErrCallTimeout marks a synchronous call abandoned on timeout (the
// peer may have crashed or the message was lost).  Disjoint from
// ErrOverload: a shed is a definitive answer, a timeout is no answer.
var ErrCallTimeout = rmi.ErrTimeout

// Replication modes.
const (
	// ReplicaStrong propagates writes synchronously and serves replica
	// reads under a lease: reads never observe stale state.
	ReplicaStrong = replica.Strong
	// ReplicaEventual propagates writes asynchronously; replica reads
	// may be stale, and report their staleness in invocation spans.
	ReplicaEventual = replica.Eventual
)

// Observability v2 re-exports (DESIGN.md §11): request-level SLOs,
// causal critical-path tracing, per-key heat telemetry, and the
// flight recorder.
type (
	// SLO declares a latency objective for one request class, e.g.
	// {Class: "read", Target: 5ms, Percentile: 99}.
	SLO = slo.SLO
	// SLOReport is the engine's point-in-time attainment report.
	SLOReport = slo.Report
	// Span is one recorded invocation with its causal edges and
	// latency decomposition (queue/retry/service/lease-wait/wire).
	Span = trace.Span
	// CritPath is one request's critical-path latency breakdown.
	CritPath = trace.CritPath
	// CritPathBreakdown sums critical-path segment time over many
	// requests.
	CritPathBreakdown = trace.Breakdown
	// ShardHeat is one shard's hottest keys.
	ShardHeat = core.ShardHeat
	// HeatEntry is one tracked key with its count upper bound.
	HeatEntry = heat.Entry
	// FlightDump is one preserved observability snapshot.
	FlightDump = flight.Dump
	// FlightRecorder keeps bounded dumps taken on chaos faults and
	// SLO burn-rate breaches.
	FlightRecorder = flight.Recorder
)

// SLO classes stamped on shard-group traffic.
const (
	// SLOClassRead is coalesced/replica-routed keyed reads.
	SLOClassRead = core.ClassRead
	// SLOClassWrite is keyed writes to shard primaries.
	SLOClassWrite = core.ClassWrite
)

// AggregateCritPath analyzes every retained root span accepted by keep
// (nil keeps all) and sums segment time by kind.
func AggregateCritPath(spans []Span, keep func(*Span) bool) CritPathBreakdown {
	return trace.AggregateCritPath(spans, keep)
}

// Static placement oracle (DESIGN.md §14): co-location hints computed
// by cmd/jsplace from the workload's source-level affinity graph.
type (
	// PlacementHints is one workload's jsplace output: co-location
	// groups of tagged creation sites, cut for a node budget.
	PlacementHints = place.Hints
	// PlacementGroup is one co-location set within the hints.
	PlacementGroup = place.Group
	// PlacementMember is one tagged creation-site instance of a group.
	PlacementMember = place.Member
)

// PlacementMainSite is the synthetic site naming the application driver
// in the affinity graph; its group anchors to the home node.
const PlacementMainSite = place.MainSite

// ParsePlacementHints decodes a committed jsplace.json (typically
// embedded in the workload package with go:embed).
func ParsePlacementHints(data []byte) (*PlacementHints, error) {
	return place.Decode(data)
}

// Fault injection (chaos) re-exports: deterministic, seeded faults on
// the simulated installation.
type (
	// ChaosSpec is a fault-injection plan: scheduled faults plus
	// stochastic crash/flap generators.
	ChaosSpec = chaos.Spec
	// ChaosFault is one injectable fault.
	ChaosFault = chaos.Fault
	// ChaosInjector drives a spec against a running installation.
	ChaosInjector = chaos.Injector
)

// ParseChaos parses a chaos plan DSL, e.g.
// "crash:node03@1.5s+2s; loss:*:0.05; crashes:20s+5s".
func ParseChaos(s string) (*ChaosSpec, error) { return chaos.Parse(s) }

// ParseChaosFault parses one fault entry, e.g. "partition:a/b@1s+500ms".
func ParseChaosFault(s string) (ChaosFault, error) { return chaos.ParseFault(s) }

// The paper's experimental conditions and cluster.
var (
	// Day is the paper's loaded-workstations condition.
	Day = simnet.Day
	// Night is the paper's idle-workstations condition.
	Night = simnet.Night
	// IdleProfile is a zero-load profile for exact-timing runs.
	IdleProfile = simnet.Idle
)

// PaperCluster returns the 13-workstation inventory of the paper's
// Section 6.
func PaperCluster() []MachineSpec { return simnet.PaperCluster() }

// UniformCluster returns n identical machines for controlled experiments.
func UniformCluster(spec MachineSpec, n int) []MachineSpec {
	return simnet.UniformCluster(spec, n)
}

// WideAreaCluster returns a two-site meta-computing installation (the
// paper's "large scale wide area meta computing" setting): perSite
// workstations in each of two sites connected by a WAN.
func WideAreaCluster(perSite int) []MachineSpec {
	return simnet.WideAreaCluster(perSite)
}

// Workstation models of the paper's cluster.
var (
	Sparc10_40  = simnet.Sparc10_40
	Sparc5_70   = simnet.Sparc5_70
	Sparc4_110  = simnet.Sparc4_110
	Ultra1_170  = simnet.Ultra1_170
	Ultra10_300 = simnet.Ultra10_300
	Ultra10_440 = simnet.Ultra10_440
)

// RegisterClass adds a class to the installation-wide registry (the
// CLASSPATH analogue): objects of the class can then be shipped with
// codebases, created remotely, migrated, and persisted.  size models the
// class's byte-code footprint; factory must return a pointer to a fresh
// zero value.
func RegisterClass(name string, size int, factory func() any) {
	codebase.Register(name, size, factory)
}

// RegisterWireType makes a concrete type transmissible as a method
// parameter or result (the analogue of implementing Serializable).
// Classes registered with RegisterClass are covered automatically; call
// this for auxiliary structs like task descriptors.
func RegisterWireType(v any) { rmi.RegisterType(v) }
