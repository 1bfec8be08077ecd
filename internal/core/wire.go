// Package core implements the JavaSymphony Object Agent System (paper
// §5.2) and the object programming model built on it (§4.4–4.7):
//
//   - Every node runs a Runtime hosting a public object agent (PubOA)
//     that owns the object instances generated on that node: creation,
//     method execution, migration, persistence, deletion.
//   - Every application attaches an App (the AppOA): it keeps the
//     local-objects-table mapping object handles to their current
//     location, answers "where is this object now?" queries, and drives
//     migration — so the agent the object originates from always knows
//     where it lives, and a remote invocation that races a migration is
//     transparently re-resolved (Fig. 4).
//   - Objects are addressed by first-order handles (Ref) that can cross
//     the wire as method parameters.
//   - sinvoke / ainvoke / oinvoke map to synchronous calls, calls run on
//     a dedicated proc returning a ResultHandle, and one-way posts.
package core

import (
	"time"

	"jsymphony/internal/replica"
)

// PubService is the RMI service name of every node's public object agent.
const PubService = "oas.pub"

// Ref is a first-order object handle (paper §5.2: "object handles
// (first-order objects) can be passed to methods of other objects").  It
// identifies the object globally and crosses the wire under its struct
// tag, inside arguments and results as a registered tagged value, and
// inside other bodies as its bare fields (wirecodec.go).
type Ref struct {
	App    string // owning application id ("app:<node>:<n>")
	ID     uint64 // object sequence number within the application
	Class  string // class name in the codebase registry
	Origin string // node of the owning AppOA (the locate authority)
}

// IsZero reports whether the ref is empty.
func (r Ref) IsZero() bool { return r.App == "" && r.ID == 0 }

// appService returns the RMI service name of the owning AppOA.
func (r Ref) appService() string { return "oas.app:" + r.App }

// Wire messages of the OAS protocols.
type (
	// createReq asks a PubOA to instantiate an object (AppOA → PubOA).
	createReq struct {
		Ref Ref
	}
	// invokeReq executes a method on a hosted object.  Span carries the
	// caller's span id so nested invocations made by the method body
	// (through Ctx) parent to it — causality survives the hop.  Read
	// marks the invocation as declared read-only by the caller's replica
	// policy: only read invocations may be served by a replica; anything
	// else arriving at a replica is deflected to the primary.
	invokeReq struct {
		App    string
		ID     uint64
		Method string
		Args   []any
		Span   uint64
		Read   bool
		// Class is the caller-declared request class (empty outside
		// shard-group InvokeClass traffic).  It rides the wire so the
		// host can refuse work whose class the admission controller shed
		// while the request was in flight or parked in the mailbox
		// (dequeue-time shedding, DESIGN.md §12).
		Class string
	}
	// invokeResp returns the method result.  Service is the scheduler
	// time the method body ran at the host, letting the caller split its
	// round trip into service vs. wire time.  Replica is set when a read
	// replica served the call; Staleness then bounds how old the served
	// state is (time since it left the primary; 0 under a strong lease).
	// RSet piggybacks the object's replica set when the primary of a
	// replicated object serves the call: a caller whose first-guess
	// target was right never re-locates, so without the piggyback it
	// would never learn the set and never route its reads.
	// LeaseWait is the time the serving replica spent renewing an
	// expired strong-mode lease before it could answer, so the caller's
	// span can attribute that stall separately from wire time.
	// Durability is the time a durable write stalled for its group
	// commit before the ack, so the caller's span can attribute the
	// fsync wait separately from wire time.
	invokeResp struct {
		Result     any
		Service    time.Duration
		Staleness  time.Duration
		LeaseWait  time.Duration
		Durability time.Duration
		Replica    bool
		RSet       replica.Set
	}
	// migrateOutReq asks the current host pa1 to move the object to
	// Dest (= pa2); sent by the origin AppOA (Fig. 3 step 1).
	migrateOutReq struct {
		App  string
		ID   uint64
		Dest string
	}
	// migrateInReq carries the serialized object to pa2 (Fig. 3 step 2).
	// A durable object ships its WAL identity along: the destination
	// starts logging it at DurVer, one past the tombstone the source
	// writes, so replay ownership hands over cleanly.
	migrateInReq struct {
		Ref      Ref
		State    []byte
		Durable  bool
		DurReads []string
		DurVer   uint64
	}
	// freeReq releases a hosted object.
	freeReq struct {
		App string
		ID  uint64
	}
	// storeReq persists a hosted object under Key.
	storeReq struct {
		App string
		ID  uint64
		Key string
	}
	// loadReq re-materializes a stored object on the receiving node.
	loadReq struct {
		Ref Ref
		Key string
	}
	// locateReq asks an AppOA where its object currently lives.
	locateReq struct {
		ID uint64
	}
	// locateResp answers with the current node — and, for a replicated
	// object, the whole replica set, so the caller can route declared
	// reads to a nearby replica instead of the primary.
	locateResp struct {
		Node string
		OK   bool
		RSet replica.Set
	}
	// codebaseReq loads classes onto the receiving node; the jar bytes
	// are modeled by the message pad.
	codebaseReq struct {
		Classes []string
	}

	// Replication protocol (AppOA ↔ PubOAs; forward extension, see
	// internal/replica).

	// replicaConfigureReq installs or refreshes the primary-side
	// replication state on the node hosting the writable copy: the peer
	// set writes fan out to, and the policy slice the fan-out needs.
	// AuthUntil grants write authority until that instant: past it the
	// primary deflects every call until the origin AppOA renews the
	// grant, which fences a deposed primary that a partition cut off
	// (it cannot ack writes the promoted lineage will never see).
	replicaConfigureReq struct {
		App       string
		ID        uint64
		Peers     []string
		Mode      replica.Mode
		Lease     time.Duration
		Reads     []string
		AuthUntil time.Duration
		MinSync   int // eventual mode: replicas updated synchronously per write
	}
	// replicaAuthRenewReq extends the primary's write authority (origin
	// AppOA -> primary, periodic).  A primary the AppOA cannot reach
	// stops being renewed and self-fences when the last grant expires;
	// promotion waits out that horizon before installing a survivor.
	// The renewer ships these per-node inside an rmi.Batch envelope
	// ("replicaAuthBatch"): one RMI carries the grants for every object
	// whose primary lives on that node, so a dead node burns one grant
	// budget in total instead of one per object.
	replicaAuthRenewReq struct {
		App   string
		ID    uint64
		Until time.Duration
	}
	// replicaUpdateReq ships one state update (or the initial seed) from
	// the primary to a replica.  Version orders updates: a replica
	// applies the state only if Version exceeds what it holds, so lost,
	// duplicated, or reordered propagation (the rmi layer may resend)
	// can never roll a replica backwards.  Force overrides the version
	// check for re-seeds after migration or promotion, where the version
	// counter restarts.
	// Durable marks updates of WAL-backed objects: the receiving
	// replica logs the state (at the shared DurVer) before answering a
	// synchronous propagation, so MinSync counts *logged* copies.
	replicaUpdateReq struct {
		Ref     Ref
		State   []byte
		Version uint64
		AsOf    time.Duration // primary's clock when the state was captured
		Lease   time.Duration // strong mode: how long reads may be served
		Mode    replica.Mode
		Primary string
		Force   bool
		Durable bool
		DurVer  uint64
	}
	// replicaDropReq discards a replica instance.
	replicaDropReq struct {
		App string
		ID  uint64
	}
	// replicaSnapshotReq asks a member for its current state + version
	// (seeding new replicas; electing the freshest survivor).
	replicaSnapshotReq struct {
		App string
		ID  uint64
	}
	replicaSnapshotResp struct {
		State   []byte
		Version uint64
	}
	// replicaRenewReq asks the primary for a fresh state and lease
	// (strong mode: a replica whose lease expired renews before serving).
	replicaRenewReq struct {
		App string
		ID  uint64
	}
	replicaRenewResp struct {
		State   []byte
		Version uint64
		AsOf    time.Duration
		Lease   time.Duration
	}
)

// Typed error sentinels tunneled through rmi.RemoteError by message.
const (
	errObjMoved     = "oas: object not hosted here"
	errObjBusy      = "oas: object is migrating"
	errObjUnknown   = "oas: no such object"
	errReplicaStale = "oas: replica lease expired"
)
