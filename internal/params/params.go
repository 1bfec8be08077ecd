// Package params defines the catalog of hardware/software system
// parameters exposed by the JavaSymphony runtime system (JRS).
//
// The paper (Section 4.2 and 5.1) describes "close to 40 different system
// parameters", split into static parameters that never change while an
// application executes (machine name, OS, CPU type, peak performance, ...)
// and dynamic parameters that do (CPU load, idle time, available memory,
// context switches, network latency and bandwidth, ...).  Constraints for
// requesting virtual architectures, object mapping, and migration are all
// expressed over this catalog, and the network agent system periodically
// samples, averages, and forwards these values up the manager hierarchy.
package params

import "fmt"

// ID names one system parameter.  IDs are stable strings so they can be
// serialized in wire messages and printed in shell output; the catalog
// below is the authoritative list.
type ID string

// Static parameters: fixed for the lifetime of an application (paper §4.2).
const (
	NodeName   ID = "node.name"   // machine host name
	IPAddress  ID = "node.ip"     // primary IP address
	OSName     ID = "os.name"     // operating system name
	OSVersion  ID = "os.version"  // operating system release
	ArchType   ID = "cpu.arch"    // architecture family (e.g. sparc)
	CPUType    ID = "cpu.type"    // CPU model string
	CPUClock   ID = "cpu.clock"   // clock rate, MHz
	NumCPUs    ID = "cpu.count"   // number of processors
	PeakMFlops ID = "cpu.peak"    // peak floating point rate, MFlop/s
	TotalMem   ID = "mem.total"   // physical memory, MBytes
	TotalSwap  ID = "swap.total"  // swap space, MBytes
	NetType    ID = "net.type"    // network interface type
	PeakBandwd ID = "net.peak"    // nominal link bandwidth, Mbit/s
	RTVersion  ID = "rt.version"  // runtime (JVM/Go) version string
	JRSVersion ID = "jrs.version" // JRS software version
	DiskTotal  ID = "disk.total"  // local disk capacity, MBytes
	SiteName   ID = "site.name"   // administrative site label
	SitePolicy ID = "site.policy" // site usage policy label
)

// Dynamic parameters: may change while an application executes (paper §5.1).
const (
	CPUUserLoad  ID = "cpu.user"      // % time in user mode
	CPUSysLoad   ID = "cpu.sys"       // % time in system mode
	Idle         ID = "cpu.idle"      // % time idle
	LoadAvg1     ID = "load.1m"       // 1-minute run-queue average
	LoadAvg5     ID = "load.5m"       // 5-minute run-queue average
	LoadAvg15    ID = "load.15m"      // 15-minute run-queue average
	RunQueue     ID = "load.queue"    // current run-queue length
	AvailMem     ID = "mem.avail"     // unused physical memory, MBytes
	UsedMem      ID = "mem.used"      // used physical memory, MBytes
	SwapRatio    ID = "swap.ratio"    // used/total swap, 0..1
	AvailSwap    ID = "swap.avail"    // free swap, MBytes
	NumProcesses ID = "proc.count"    // number of processes
	NumThreads   ID = "thread.count"  // number of threads
	NumUsers     ID = "user.count"    // logged-in users
	CtxSwitches  ID = "sys.ctxsw"     // context switches / s
	SysCalls     ID = "sys.calls"     // system calls / s
	Interrupts   ID = "sys.intr"      // interrupts / s
	PageIns      ID = "vm.pagein"     // page-ins / s
	PageOuts     ID = "vm.pageout"    // page-outs / s
	NetLatency   ID = "net.latency"   // round-trip latency, ms
	NetBandwidth ID = "net.bandwidth" // measured bandwidth, Mbit/s
	NetPktsIn    ID = "net.pkts.in"   // packets received / s
	NetPktsOut   ID = "net.pkts.out"  // packets sent / s
	NetErrors    ID = "net.errors"    // interface errors / s
	DiskReads    ID = "disk.reads"    // disk reads / s
	DiskWrites   ID = "disk.writes"   // disk writes / s
	DiskAvail    ID = "disk.avail"    // free disk space, MBytes
	Uptime       ID = "sys.uptime"    // seconds since boot
	JSObjects    ID = "jrs.objects"   // JavaSymphony objects hosted here
	JSApps       ID = "jrs.apps"      // JavaSymphony applications attached
	RMIRate      ID = "jrs.rmi.rate"  // remote invocations / s served
)

// Kind is the value domain of a parameter.
type Kind int

const (
	Number Kind = iota // floating point / integer values
	String             // free-form strings (names, versions, policies)
)

// Class partitions parameters by mutability.
type Class int

const (
	Static  Class = iota // fixed during an application run
	Dynamic              // periodically re-sampled by network agents
)

// Info is the catalog metadata for one parameter.  Units and
// descriptions are the comments of the constant blocks above.
type Info struct {
	ID    ID
	Kind  Kind
	Class Class
}

// catalog holds the authoritative parameter table.  Order is stable and
// mirrors the constant blocks above; a parameter's index here is its
// ordinal, its slot in a Snapshot, so the static parameters come first.
var catalog = [...]Info{
	{NodeName, String, Static},
	{IPAddress, String, Static},
	{OSName, String, Static},
	{OSVersion, String, Static},
	{ArchType, String, Static},
	{CPUType, String, Static},
	{CPUClock, Number, Static},
	{NumCPUs, Number, Static},
	{PeakMFlops, Number, Static},
	{TotalMem, Number, Static},
	{TotalSwap, Number, Static},
	{NetType, String, Static},
	{PeakBandwd, Number, Static},
	{RTVersion, String, Static},
	{JRSVersion, String, Static},
	{DiskTotal, Number, Static},
	{SiteName, String, Static},
	{SitePolicy, String, Static},

	{CPUUserLoad, Number, Dynamic},
	{CPUSysLoad, Number, Dynamic},
	{Idle, Number, Dynamic},
	{LoadAvg1, Number, Dynamic},
	{LoadAvg5, Number, Dynamic},
	{LoadAvg15, Number, Dynamic},
	{RunQueue, Number, Dynamic},
	{AvailMem, Number, Dynamic},
	{UsedMem, Number, Dynamic},
	{SwapRatio, Number, Dynamic},
	{AvailSwap, Number, Dynamic},
	{NumProcesses, Number, Dynamic},
	{NumThreads, Number, Dynamic},
	{NumUsers, Number, Dynamic},
	{CtxSwitches, Number, Dynamic},
	{SysCalls, Number, Dynamic},
	{Interrupts, Number, Dynamic},
	{PageIns, Number, Dynamic},
	{PageOuts, Number, Dynamic},
	{NetLatency, Number, Dynamic},
	{NetBandwidth, Number, Dynamic},
	{NetPktsIn, Number, Dynamic},
	{NetPktsOut, Number, Dynamic},
	{NetErrors, Number, Dynamic},
	{DiskReads, Number, Dynamic},
	{DiskWrites, Number, Dynamic},
	{DiskAvail, Number, Dynamic},
	{Uptime, Number, Dynamic},
	{JSObjects, Number, Dynamic},
	{JSApps, Number, Dynamic},
	{RMIRate, Number, Dynamic},
}

// nParams is the catalog size.  A Snapshot's presence bitmap is one
// uint64, so a catalog of more than 64 parameters does not compile.
const nParams = len(catalog)

var _ [64 - nParams]struct{}

// byID maps each parameter to its ordinal.
var byID = func() map[ID]int {
	m := make(map[ID]int, nParams)
	for o, in := range &catalog {
		if _, dup := m[in.ID]; dup {
			panic(fmt.Sprintf("params: duplicate catalog entry %q", in.ID))
		}
		m[in.ID] = o
	}
	return m
}()

// Count reports the catalog size ("close to 40" in the paper; this
// implementation ships 49).
func Count() int { return nParams }

// IsValid reports whether id names a cataloged parameter.
func IsValid(id ID) bool {
	_, ok := byID[id]
	return ok
}
