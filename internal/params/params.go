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

// Info is the catalog metadata for one parameter.
type Info struct {
	ID    ID
	Kind  Kind
	Class Class
	Unit  string // human-readable unit, empty for strings
	Doc   string // one-line description
}

// catalog holds the authoritative parameter table.  Order is stable and
// mirrors the constant blocks above.
var catalog = []Info{
	{NodeName, String, Static, "", "machine host name"},
	{IPAddress, String, Static, "", "primary IP address"},
	{OSName, String, Static, "", "operating system name"},
	{OSVersion, String, Static, "", "operating system release"},
	{ArchType, String, Static, "", "architecture family"},
	{CPUType, String, Static, "", "CPU model"},
	{CPUClock, Number, Static, "MHz", "CPU clock rate"},
	{NumCPUs, Number, Static, "", "number of processors"},
	{PeakMFlops, Number, Static, "MFlop/s", "peak floating point rate"},
	{TotalMem, Number, Static, "MB", "physical memory"},
	{TotalSwap, Number, Static, "MB", "swap space"},
	{NetType, String, Static, "", "network interface type"},
	{PeakBandwd, Number, Static, "Mbit/s", "nominal link bandwidth"},
	{RTVersion, String, Static, "", "runtime version"},
	{JRSVersion, String, Static, "", "JRS software version"},
	{DiskTotal, Number, Static, "MB", "local disk capacity"},
	{SiteName, String, Static, "", "administrative site label"},
	{SitePolicy, String, Static, "", "site usage policy"},

	{CPUUserLoad, Number, Dynamic, "%", "time in user mode"},
	{CPUSysLoad, Number, Dynamic, "%", "time in system mode"},
	{Idle, Number, Dynamic, "%", "idle time"},
	{LoadAvg1, Number, Dynamic, "", "1-minute load average"},
	{LoadAvg5, Number, Dynamic, "", "5-minute load average"},
	{LoadAvg15, Number, Dynamic, "", "15-minute load average"},
	{RunQueue, Number, Dynamic, "", "run-queue length"},
	{AvailMem, Number, Dynamic, "MB", "unused physical memory"},
	{UsedMem, Number, Dynamic, "MB", "used physical memory"},
	{SwapRatio, Number, Dynamic, "", "used/total swap ratio"},
	{AvailSwap, Number, Dynamic, "MB", "free swap"},
	{NumProcesses, Number, Dynamic, "", "number of processes"},
	{NumThreads, Number, Dynamic, "", "number of threads"},
	{NumUsers, Number, Dynamic, "", "logged-in users"},
	{CtxSwitches, Number, Dynamic, "/s", "context switches"},
	{SysCalls, Number, Dynamic, "/s", "system calls"},
	{Interrupts, Number, Dynamic, "/s", "interrupts"},
	{PageIns, Number, Dynamic, "/s", "page-ins"},
	{PageOuts, Number, Dynamic, "/s", "page-outs"},
	{NetLatency, Number, Dynamic, "ms", "round-trip latency"},
	{NetBandwidth, Number, Dynamic, "Mbit/s", "measured bandwidth"},
	{NetPktsIn, Number, Dynamic, "/s", "packets received"},
	{NetPktsOut, Number, Dynamic, "/s", "packets sent"},
	{NetErrors, Number, Dynamic, "/s", "interface errors"},
	{DiskReads, Number, Dynamic, "/s", "disk reads"},
	{DiskWrites, Number, Dynamic, "/s", "disk writes"},
	{DiskAvail, Number, Dynamic, "MB", "free disk space"},
	{Uptime, Number, Dynamic, "s", "time since boot"},
	{JSObjects, Number, Dynamic, "", "JavaSymphony objects hosted"},
	{JSApps, Number, Dynamic, "", "JavaSymphony applications attached"},
	{RMIRate, Number, Dynamic, "/s", "remote invocations served"},
}

var byID = func() map[ID]Info {
	m := make(map[ID]Info, len(catalog))
	for _, in := range catalog {
		if _, dup := m[in.ID]; dup {
			panic(fmt.Sprintf("params: duplicate catalog entry %q", in.ID))
		}
		m[in.ID] = in
	}
	return m
}()

// Count reports the catalog size ("close to 40" in the paper; this
// implementation ships 49).
func Count() int { return len(catalog) }

// IsValid reports whether id names a cataloged parameter.
func IsValid(id ID) bool {
	_, ok := byID[id]
	return ok
}
