package simnet

import (
	"fmt"
	"sync"
	"time"

	"jsymphony/internal/metrics"
	"jsymphony/internal/vclock"
)

// Fabric is one simulated network of machines sharing a virtual clock.
type Fabric struct {
	clock   *vclock.Clock
	profile LoadProfile
	seed    int64
	specs   []MachineSpec
	byName  map[string]*Machine
	all     []*Machine

	// Wire-fault state, installed by the chaos layer.  Draws come from a
	// counter-hash chain over the fabric seed: because actors run one at a
	// time under the virtual clock's run token, the i-th send of a run is
	// always the same message, so the fate of every message is a pure
	// function of (topology, workload, seed).
	chaosMu    sync.Mutex
	partitions map[[2]string]bool
	linkPol    map[[2]string]LinkPolicy
	chaosCtr   uint64
}

// LinkPolicy describes wire-level faults on a link: each message is
// dropped with probability Loss, delivered twice with probability Dup,
// and delayed by a uniform extra 0..Reorder (which reorders it relative
// to later traffic).  The zero value is a healthy link.
type LinkPolicy struct {
	Loss    float64
	Dup     float64
	Reorder time.Duration
}

// Instrument points every machine at a metrics registry: each Snapshot
// refreshes the per-node js_simnet_util gauge, so "top"-style views see
// what the monitoring agents see.
func (f *Fabric) Instrument(reg *metrics.Registry) {
	for _, m := range f.all {
		m.mu.Lock()
		m.utilGauge = reg.Gauge(metrics.Label("js_simnet_util", "node", m.spec.Name))
		m.mu.Unlock()
	}
}

// New builds a fabric of machines from specs.  The seed makes all
// background-load traces (and nothing else) deterministic.
func New(c *vclock.Clock, specs []MachineSpec, profile LoadProfile, seed int64) *Fabric {
	f := &Fabric{
		clock:   c,
		profile: profile,
		seed:    seed,
		specs:   append([]MachineSpec(nil), specs...),
		byName:  make(map[string]*Machine, len(specs)),

		partitions: make(map[[2]string]bool),
		linkPol:    make(map[[2]string]LinkPolicy),
	}
	for i, spec := range f.specs {
		m := &Machine{
			spec:  spec,
			index: i,
			seed:  seed ^ int64(splitmix64(uint64(i)+0xabcd)),
			fab:   f,
			inbox: vclock.NewMailbox(c, "inbox:"+spec.Name),
			alive: true,
		}
		if _, dup := f.byName[spec.Name]; dup {
			panic(fmt.Sprintf("simnet: duplicate machine name %q", spec.Name))
		}
		f.byName[spec.Name] = m
		f.all = append(f.all, m)
	}
	return f
}

// Machines returns all machines in inventory order.
func (f *Fabric) Machines() []*Machine { return f.all }

// Machine returns the i-th machine.
func (f *Fabric) Machine(i int) *Machine { return f.all[i] }

// ByName looks a machine up by host name.
func (f *Fabric) ByName(name string) (*Machine, bool) {
	m, ok := f.byName[name]
	return m, ok
}

// Latency returns the one-way wire latency between two machines:
// sub-millisecond on the switched 100 Mbit/s segment, a full millisecond
// when either end sits on the shared 10 Mbit/s segment, tens of
// milliseconds between distinct geographic sites (WAN), and a small
// loopback cost for a machine talking to itself.
func (f *Fabric) Latency(src, dst *Machine) time.Duration {
	if src == dst {
		return 20 * time.Microsecond
	}
	if src.spec.Site != dst.spec.Site {
		return WANLatency
	}
	if src.spec.LinkMbps >= 100 && dst.spec.LinkMbps >= 100 {
		return 300 * time.Microsecond
	}
	return time.Millisecond
}

// Bandwidth returns the path bandwidth between two machines in bits/s:
// the slower of the two NICs, further capped by the WAN when the
// machines sit at different sites.
func (f *Fabric) Bandwidth(src, dst *Machine) float64 {
	mbps := src.spec.LinkMbps
	if dst.spec.LinkMbps < mbps {
		mbps = dst.spec.LinkMbps
	}
	if src.spec.Site != dst.spec.Site && mbps > WANMbps {
		mbps = WANMbps
	}
	return mbps * 1e6
}

// pairKey normalizes an unordered endpoint pair for the partition and
// link-policy maps.
func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// SetPartitioned cuts (on) or heals (off) the link between a and b, in
// both directions.  Partitioned messages vanish silently — to the stack
// above, the peer just stops answering.
func (f *Fabric) SetPartitioned(a, b string, on bool) {
	f.chaosMu.Lock()
	defer f.chaosMu.Unlock()
	if on {
		f.partitions[pairKey(a, b)] = true
	} else {
		delete(f.partitions, pairKey(a, b))
	}
}

// SetLinkPolicy installs wire faults on the a–b link; ("*", "*") sets
// the default policy for links with no specific one (a specific policy
// fully overrides the default, it does not merge).  A zero LinkPolicy
// restores the link.
func (f *Fabric) SetLinkPolicy(a, b string, pol LinkPolicy) {
	f.chaosMu.Lock()
	defer f.chaosMu.Unlock()
	key := pairKey(a, b)
	if pol == (LinkPolicy{}) {
		delete(f.linkPol, key)
		return
	}
	f.linkPol[key] = pol
}

// draw returns the next deterministic pseudo-random unit value of the
// fabric's wire-fault chain.  Caller holds chaosMu.
func (f *Fabric) draw() float64 {
	f.chaosCtr++
	return unit(splitmix64(uint64(f.seed) + f.chaosCtr*0x9e3779b97f4a7c15))
}

// linkFate decides what the chaos layer does to one message from src to
// dst: drop it, duplicate it, and/or delay it by jitter.
func (f *Fabric) linkFate(src, dst string) (drop, dup bool, jitter time.Duration) {
	f.chaosMu.Lock()
	defer f.chaosMu.Unlock()
	if len(f.partitions) > 0 && f.partitions[pairKey(src, dst)] {
		return true, false, 0
	}
	pol, ok := f.linkPol[pairKey(src, dst)]
	if !ok {
		pol, ok = f.linkPol[[2]string{"*", "*"}]
	}
	if !ok {
		return false, false, 0
	}
	if pol.Loss > 0 && f.draw() < pol.Loss {
		return true, false, 0
	}
	if pol.Dup > 0 && f.draw() < pol.Dup {
		dup = true
	}
	if pol.Reorder > 0 {
		jitter = time.Duration(f.draw() * float64(pol.Reorder))
	}
	return false, dup, jitter
}

// Machine is one simulated workstation.
type Machine struct {
	spec  MachineSpec
	index int
	seed  int64
	fab   *Fabric
	inbox *vclock.Mailbox

	mu        sync.Mutex
	active    int         // computations currently sharing the CPU
	nicFree   vclock.Time // when the transmit NIC next becomes free
	diskFree  vclock.Time // when the disk arm next becomes free
	alive     bool
	extra     float64        // injected owner load (failure/contention studies)
	utilGauge *metrics.Gauge // set by Fabric.Instrument; nil otherwise
}

// Spec returns the machine's hardware description.
func (m *Machine) Spec() MachineSpec { return m.spec }

// Name returns the host name.
func (m *Machine) Name() string { return m.spec.Name }

// Index returns the machine's position in the fabric inventory.
func (m *Machine) Index() int { return m.index }

// Inbox returns the machine's incoming-message mailbox.  The rmi layer
// drains it.
func (m *Machine) Inbox() *vclock.Mailbox { return m.inbox }

// Alive reports whether the machine is up.
func (m *Machine) Alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive
}

// Kill marks the machine as failed.  Subsequent sends to it are silently
// dropped (the caller observes a timeout), modelling the paper's "a node
// does not respond anymore" failure case (§5.1).
func (m *Machine) Kill() {
	m.mu.Lock()
	m.alive = false
	m.mu.Unlock()
}

// Revive brings a killed machine back (used by tests).
func (m *Machine) Revive() {
	m.mu.Lock()
	m.alive = true
	m.mu.Unlock()
}

// BackgroundLoad returns the owner-imposed CPU utilization at time t:
// the profile's trace plus any injected extra load.
func (m *Machine) BackgroundLoad(t vclock.Time) float64 {
	l := m.fab.profile.Load(m.seed, t)
	m.mu.Lock()
	l += m.extra
	m.mu.Unlock()
	if l > 0.95 {
		l = 0.95
	}
	return l
}

// SetExtraLoad injects additional owner load (the workstation's owner
// came back), visible both to computations running here and to the
// monitoring agents.  Negative values are clamped to zero.
func (m *Machine) SetExtraLoad(f float64) {
	if f < 0 {
		f = 0
	}
	m.mu.Lock()
	m.extra = f
	m.mu.Unlock()
}

// Send transmits a payload of size bytes to dst, delivering v into dst's
// inbox after the NIC-queueing, transmission, and propagation delays.  It
// never blocks the sender beyond the virtual cost of enqueueing (the NIC
// transmits asynchronously), which models a kernel socket buffer.
//
// The sender's NIC is occupied for the time it takes to push the bytes
// out at the sender's own link rate; the end-to-end transmission time is
// governed by the slower link on the path (the switch buffers in
// between).  A fast master feeding a slow workstation is therefore
// delayed per message, but not blocked for the receiver's whole
// reception time.
//
// Sends from or to a dead machine consume NIC time but are dropped.
func (m *Machine) Send(dst *Machine, bytes int, v any) {
	now := m.fab.clock.Now()
	tx := time.Duration(float64(bytes*8) / m.fab.Bandwidth(m, dst) * float64(time.Second))
	occupy := time.Duration(float64(bytes*8) / (m.spec.LinkMbps * 1e6) * float64(time.Second))
	lat := m.fab.Latency(m, dst)

	m.mu.Lock()
	start := m.nicFree
	if now > start {
		start = now
	}
	if m != dst { // loopback does not occupy the NIC
		m.nicFree = start + vclock.Time(occupy)
	}
	srcAlive := m.alive
	m.mu.Unlock()

	dst.mu.Lock()
	dstAlive := dst.alive
	dst.mu.Unlock()

	if !srcAlive || !dstAlive {
		return
	}
	delay := time.Duration(start-now) + tx + lat
	if m != dst { // loopback is exempt from wire faults
		drop, dup, jitter := m.fab.linkFate(m.spec.Name, dst.spec.Name)
		if drop {
			return
		}
		delay += jitter
		if dup {
			dst.inbox.Put(v, delay+lat)
		}
	}
	dst.inbox.Put(v, delay)
}

// diskAccess blocks actor a for one disk operation of the given size:
// a seek plus the sequential transfer of the bytes, serialized on the
// single disk arm exactly the way Send serializes on the transmit NIC.
// It returns the total virtual time the caller waited (queueing
// included), which is what the durability layer attributes to the span
// Durability segment.  A dead machine performs no I/O and returns 0.
func (m *Machine) diskAccess(a *vclock.Actor, bytes int) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	xfer := time.Duration(float64(bytes) / (m.spec.diskMBps() * 1e6) * float64(time.Second))
	op := m.spec.diskSeek() + xfer

	now := m.fab.clock.Now()
	m.mu.Lock()
	if !m.alive {
		m.mu.Unlock()
		return 0
	}
	start := m.diskFree
	if now > start {
		start = now
	}
	m.diskFree = start + vclock.Time(op)
	m.mu.Unlock()

	wait := time.Duration(start-now) + op
	a.Sleep(wait)
	return wait
}

// DiskWrite charges actor a the virtual cost of writing (and syncing)
// bytes to the local disk.  See diskAccess.
func (m *Machine) DiskWrite(a *vclock.Actor, bytes int) time.Duration {
	return m.diskAccess(a, bytes)
}

// DiskRead charges actor a the virtual cost of reading bytes from the
// local disk.  See diskAccess.
func (m *Machine) DiskRead(a *vclock.Actor, bytes int) time.Duration {
	return m.diskAccess(a, bytes)
}

// computeQuantum bounds how long a computation runs before re-observing
// the background load and the number of CPU sharers.  Smaller values
// track load changes more precisely at the cost of more events.
const computeQuantum = 20 * time.Millisecond

// Compute blocks actor a for the virtual time needed to execute the given
// number of floating-point operations on this machine, under processor
// sharing with the background load and any other concurrent Compute
// calls.  The effective rate at any instant is
//
//	MFlops × 1e6 × (1 − backgroundLoad(t)) / nActive(t)
//
// re-evaluated every computeQuantum and at every load-slot boundary.
func (m *Machine) Compute(a *vclock.Actor, flops float64) {
	if flops <= 0 {
		return
	}
	m.mu.Lock()
	m.active++
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.active--
		m.mu.Unlock()
	}()

	remaining := flops
	for remaining > 0.5 { // half a flop of slack absorbs rounding
		now := a.Now()
		load := m.BackgroundLoad(now)
		m.mu.Lock()
		sharers := m.active
		m.mu.Unlock()
		rate := m.spec.MFlops * 1e6 * (1 - load) / float64(sharers)
		if rate <= 0 {
			// Fully loaded slot: stall to its end.
			a.Sleep(time.Duration(m.fab.profile.slotEnd(now) - now))
			continue
		}
		// Run until done, the quantum expires, or the load may change.
		maxRun := computeQuantum
		if slotLeft := time.Duration(m.fab.profile.slotEnd(now) - now); slotLeft < maxRun {
			maxRun = slotLeft
		}
		need := time.Duration(remaining / rate * float64(time.Second))
		if need <= maxRun {
			a.Sleep(need)
			return
		}
		a.Sleep(maxRun)
		remaining -= rate * maxRun.Seconds()
	}
}

// Snapshot synthesizes the machine's operating-system metrics at time t,
// playing the role of the Solaris commands the paper's network agents
// exec to collect "close to 40" parameters (§5.1).
func (m *Machine) Snapshot(t vclock.Time) SnapshotData {
	load := m.BackgroundLoad(t)
	m.mu.Lock()
	sharers := m.active
	alive := m.alive
	utilGauge := m.utilGauge
	m.mu.Unlock()
	// JavaSymphony computations count toward utilization too.
	util := load + float64(sharers)*(1-load)
	if util > 1 {
		util = 1
	}
	if utilGauge != nil {
		utilGauge.Set(util)
	}
	return SnapshotData{
		Alive:    alive,
		Load:     load,
		Util:     util,
		Sharers:  sharers,
		AvailMem: m.spec.MemMB * (0.9 - 0.6*util),
	}
}

// SnapshotData is the raw simulated OS state; the nas package converts it
// into a params.Snapshot.  Keeping the conversion out of simnet avoids a
// dependency cycle and keeps this package purely physical.
type SnapshotData struct {
	Alive    bool
	Load     float64 // background (owner) utilization 0..1
	Util     float64 // total utilization incl. JavaSymphony work
	Sharers  int     // concurrent Compute calls
	AvailMem float64 // MB
}
