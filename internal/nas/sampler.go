// Package nas implements the JavaSymphony Network Agent System (paper
// §5.1): one network agent per node monitors "close to 40" system
// parameters; a directory (the JS-Shell's view of the installation)
// collects per-node reports and serves allocation queries; and a manager
// hierarchy per virtual architecture averages parameters upward
// (node → cluster manager → site manager → domain manager), detects node
// failures, and promotes backup managers when a manager dies.
package nas

import (
	"math"
	"time"

	"jsymphony/internal/params"
	"jsymphony/internal/simnet"
	"jsymphony/internal/vclock"
)

// Sampler produces a node's raw metrics — the role of the Solaris
// commands the paper's agents run via java.lang.Runtime.exec.
type Sampler interface {
	// Sample returns the node's current parameter snapshot.
	Sample(now time.Duration) params.Snapshot
	// Alive reports whether the node is still up; a dead node's agent
	// stops responding (for failure-injection tests).
	Alive() bool
}

// SimSampler derives the full parameter catalog from a simulated machine.
type SimSampler struct {
	M *simnet.Machine
}

// Alive implements Sampler.
func (s SimSampler) Alive() bool { return s.M.Alive() }

// The slots of the parameters a sample sets, resolved once, so that a
// sample looks no ID up.
var (
	slotNodeName     = params.SlotOf(params.NodeName)
	slotIPAddress    = params.SlotOf(params.IPAddress)
	slotOSName       = params.SlotOf(params.OSName)
	slotOSVersion    = params.SlotOf(params.OSVersion)
	slotArchType     = params.SlotOf(params.ArchType)
	slotCPUType      = params.SlotOf(params.CPUType)
	slotCPUClock     = params.SlotOf(params.CPUClock)
	slotNumCPUs      = params.SlotOf(params.NumCPUs)
	slotPeakMFlops   = params.SlotOf(params.PeakMFlops)
	slotTotalMem     = params.SlotOf(params.TotalMem)
	slotTotalSwap    = params.SlotOf(params.TotalSwap)
	slotNetType      = params.SlotOf(params.NetType)
	slotPeakBandwd   = params.SlotOf(params.PeakBandwd)
	slotRTVersion    = params.SlotOf(params.RTVersion)
	slotJRSVersion   = params.SlotOf(params.JRSVersion)
	slotDiskTotal    = params.SlotOf(params.DiskTotal)
	slotSiteName     = params.SlotOf(params.SiteName)
	slotSitePolicy   = params.SlotOf(params.SitePolicy)
	slotCPUUserLoad  = params.SlotOf(params.CPUUserLoad)
	slotCPUSysLoad   = params.SlotOf(params.CPUSysLoad)
	slotIdle         = params.SlotOf(params.Idle)
	slotLoadAvg1     = params.SlotOf(params.LoadAvg1)
	slotLoadAvg5     = params.SlotOf(params.LoadAvg5)
	slotLoadAvg15    = params.SlotOf(params.LoadAvg15)
	slotRunQueue     = params.SlotOf(params.RunQueue)
	slotAvailMem     = params.SlotOf(params.AvailMem)
	slotUsedMem      = params.SlotOf(params.UsedMem)
	slotSwapRatio    = params.SlotOf(params.SwapRatio)
	slotAvailSwap    = params.SlotOf(params.AvailSwap)
	slotNumProcesses = params.SlotOf(params.NumProcesses)
	slotNumThreads   = params.SlotOf(params.NumThreads)
	slotNumUsers     = params.SlotOf(params.NumUsers)
	slotCtxSwitches  = params.SlotOf(params.CtxSwitches)
	slotSysCalls     = params.SlotOf(params.SysCalls)
	slotInterrupts   = params.SlotOf(params.Interrupts)
	slotPageIns      = params.SlotOf(params.PageIns)
	slotPageOuts     = params.SlotOf(params.PageOuts)
	slotNetLatency   = params.SlotOf(params.NetLatency)
	slotNetBandwidth = params.SlotOf(params.NetBandwidth)
	slotNetPktsIn    = params.SlotOf(params.NetPktsIn)
	slotNetPktsOut   = params.SlotOf(params.NetPktsOut)
	slotNetErrors    = params.SlotOf(params.NetErrors)
	slotDiskReads    = params.SlotOf(params.DiskReads)
	slotDiskWrites   = params.SlotOf(params.DiskWrites)
	slotDiskAvail    = params.SlotOf(params.DiskAvail)
	slotUptime       = params.SlotOf(params.Uptime)
	slotJSObjects    = params.SlotOf(params.JSObjects)
	slotJSApps       = params.SlotOf(params.JSApps)
	slotRMIRate      = params.SlotOf(params.RMIRate)
)

// Sample implements Sampler: static parameters come from the machine
// spec, dynamic ones from the simulated OS state, and the remaining
// catalog entries are synthesized as plausible functions of utilization
// so every cataloged parameter is always present.
func (s SimSampler) Sample(now time.Duration) params.Snapshot {
	spec := s.M.Spec()
	d := s.M.Snapshot(vclock.Time(now))
	snap := params.NewSnapshot()

	// Static.
	snap.SetAt(slotNodeName, params.Text(spec.Name))
	snap.SetAt(slotIPAddress, params.Text(ipAddr(s.M.Index())))
	snap.SetAt(slotOSName, params.Text("SunOS"))
	snap.SetAt(slotOSVersion, params.Text(spec.OS))
	snap.SetAt(slotArchType, params.Text(spec.Arch))
	snap.SetAt(slotCPUType, params.Text(spec.Model))
	snap.SetAt(slotCPUClock, params.Float(spec.ClockMHz))
	snap.SetAt(slotNumCPUs, params.Float(1))
	snap.SetAt(slotPeakMFlops, params.Float(spec.MFlops))
	snap.SetAt(slotTotalMem, params.Float(spec.MemMB))
	snap.SetAt(slotTotalSwap, params.Float(spec.SwapMB))
	snap.SetAt(slotNetType, params.Text(netType(spec.LinkMbps)))
	snap.SetAt(slotPeakBandwd, params.Float(spec.LinkMbps))
	snap.SetAt(slotRTVersion, params.Text("go-jsymphony"))
	snap.SetAt(slotJRSVersion, params.Text("1.0"))
	snap.SetAt(slotDiskTotal, params.Float(4096))
	site := spec.Site
	if site == "" {
		site = "vienna" // the paper's installation is a single site
	}
	snap.SetAt(slotSiteName, params.Text(site))
	snap.SetAt(slotSitePolicy, params.Text("shared"))

	// Dynamic, derived from the simulated OS.
	util := d.Util
	idle := (1 - util) * 100
	snap.SetAt(slotCPUUserLoad, params.Float(util*85))
	snap.SetAt(slotCPUSysLoad, params.Float(util*15))
	snap.SetAt(slotIdle, params.Float(idle))
	snap.SetAt(slotLoadAvg1, params.Float(util*2))
	snap.SetAt(slotLoadAvg5, params.Float(util*1.6))
	snap.SetAt(slotLoadAvg15, params.Float(util*1.2))
	snap.SetAt(slotRunQueue, params.Float(math.Round(util*3)))
	snap.SetAt(slotAvailMem, params.Float(d.AvailMem))
	snap.SetAt(slotUsedMem, params.Float(spec.MemMB-d.AvailMem))
	snap.SetAt(slotSwapRatio, params.Float(0.05+0.5*util))
	snap.SetAt(slotAvailSwap, params.Float(spec.SwapMB*(1-(0.05+0.5*util))))
	snap.SetAt(slotNumProcesses, params.Float(40+math.Round(util*60)))
	snap.SetAt(slotNumThreads, params.Float(120+math.Round(util*200)))
	snap.SetAt(slotNumUsers, params.Float(math.Round(d.Load*3)))
	snap.SetAt(slotCtxSwitches, params.Float(200+util*4000))
	snap.SetAt(slotSysCalls, params.Float(500+util*9000))
	snap.SetAt(slotInterrupts, params.Float(100+util*1500))
	snap.SetAt(slotPageIns, params.Float(util*50))
	snap.SetAt(slotPageOuts, params.Float(util*30))
	snap.SetAt(slotNetLatency, params.Float(latencyMS(spec.LinkMbps)))
	snap.SetAt(slotNetBandwidth, params.Float(spec.LinkMbps*(1-0.3*util)))
	snap.SetAt(slotNetPktsIn, params.Float(50+util*900))
	snap.SetAt(slotNetPktsOut, params.Float(50+util*900))
	snap.SetAt(slotNetErrors, params.Float(0))
	snap.SetAt(slotDiskReads, params.Float(util*80))
	snap.SetAt(slotDiskWrites, params.Float(util*40))
	snap.SetAt(slotDiskAvail, params.Float(4096*0.6))
	snap.SetAt(slotUptime, params.Float(now.Seconds()))
	snap.SetAt(slotJSObjects, params.Float(float64(d.Sharers))) // refined by the OAS layer
	snap.SetAt(slotJSApps, params.Float(0))
	snap.SetAt(slotRMIRate, params.Float(0))
	return snap
}

// ipAddrs are the first 255 machines' addresses, built once so that a
// sample allocates only its snapshot.
var ipAddrs = func() (ips [255]string) {
	for i := range ips {
		ips[i] = "10.0.0." + itoa(i+1)
	}
	return ips
}()

// ipAddr is machine i's address.
func ipAddr(i int) string {
	if i < len(ipAddrs) {
		return ipAddrs[i]
	}
	return "10.0.0." + itoa(i+1)
}

func netType(mbps float64) string {
	if mbps >= 100 {
		return "fast-ethernet"
	}
	return "ethernet"
}

func latencyMS(mbps float64) float64 {
	if mbps >= 100 {
		return 0.3
	}
	return 1.0
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// SynthSampler reports a fixed snapshot: the sampler of real-time
// worlds, whose nodes have no simulated machine to measure.
type SynthSampler struct {
	snap params.Snapshot
}

// NewSynthSampler reports a copy of snap, always alive.
func NewSynthSampler(snap params.Snapshot) *SynthSampler {
	return &SynthSampler{snap: snap.Clone()}
}

// Sample implements Sampler.
func (s *SynthSampler) Sample(now time.Duration) params.Snapshot { return s.snap.Clone() }

// Alive implements Sampler.
func (s *SynthSampler) Alive() bool { return true }
