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

// Sample implements Sampler: static parameters come from the machine
// spec, dynamic ones from the simulated OS state, and the remaining
// catalog entries are synthesized as plausible functions of utilization
// so every cataloged parameter is always present.
func (s SimSampler) Sample(now time.Duration) params.Snapshot {
	spec := s.M.Spec()
	d := s.M.Snapshot(vclock.Time(now))
	snap := make(params.Snapshot, params.Count())

	// Static.
	snap.SetText(params.NodeName, spec.Name)
	snap.SetText(params.IPAddress, "10.0.0."+itoa(s.M.Index()+1))
	snap.SetText(params.OSName, "SunOS")
	snap.SetText(params.OSVersion, spec.OS)
	snap.SetText(params.ArchType, spec.Arch)
	snap.SetText(params.CPUType, spec.Model)
	snap.SetFloat(params.CPUClock, spec.ClockMHz)
	snap.SetFloat(params.NumCPUs, 1)
	snap.SetFloat(params.PeakMFlops, spec.MFlops)
	snap.SetFloat(params.TotalMem, spec.MemMB)
	snap.SetFloat(params.TotalSwap, spec.SwapMB)
	snap.SetText(params.NetType, netType(spec.LinkMbps))
	snap.SetFloat(params.PeakBandwd, spec.LinkMbps)
	snap.SetText(params.RTVersion, "go-jsymphony")
	snap.SetText(params.JRSVersion, "1.0")
	snap.SetFloat(params.DiskTotal, 4096)
	site := spec.Site
	if site == "" {
		site = "vienna" // the paper's installation is a single site
	}
	snap.SetText(params.SiteName, site)
	snap.SetText(params.SitePolicy, "shared")

	// Dynamic, derived from the simulated OS.
	util := d.Util
	idle := (1 - util) * 100
	snap.SetFloat(params.CPUUserLoad, util*85)
	snap.SetFloat(params.CPUSysLoad, util*15)
	snap.SetFloat(params.Idle, idle)
	snap.SetFloat(params.LoadAvg1, util*2)
	snap.SetFloat(params.LoadAvg5, util*1.6)
	snap.SetFloat(params.LoadAvg15, util*1.2)
	snap.SetFloat(params.RunQueue, math.Round(util*3))
	snap.SetFloat(params.AvailMem, d.AvailMem)
	snap.SetFloat(params.UsedMem, spec.MemMB-d.AvailMem)
	snap.SetFloat(params.SwapRatio, 0.05+0.5*util)
	snap.SetFloat(params.AvailSwap, spec.SwapMB*(1-(0.05+0.5*util)))
	snap.SetFloat(params.NumProcesses, 40+math.Round(util*60))
	snap.SetFloat(params.NumThreads, 120+math.Round(util*200))
	snap.SetFloat(params.NumUsers, math.Round(d.Load*3))
	snap.SetFloat(params.CtxSwitches, 200+util*4000)
	snap.SetFloat(params.SysCalls, 500+util*9000)
	snap.SetFloat(params.Interrupts, 100+util*1500)
	snap.SetFloat(params.PageIns, util*50)
	snap.SetFloat(params.PageOuts, util*30)
	snap.SetFloat(params.NetLatency, latencyMS(spec.LinkMbps))
	snap.SetFloat(params.NetBandwidth, spec.LinkMbps*(1-0.3*util))
	snap.SetFloat(params.NetPktsIn, 50+util*900)
	snap.SetFloat(params.NetPktsOut, 50+util*900)
	snap.SetFloat(params.NetErrors, 0)
	snap.SetFloat(params.DiskReads, util*80)
	snap.SetFloat(params.DiskWrites, util*40)
	snap.SetFloat(params.DiskAvail, 4096*0.6)
	snap.SetFloat(params.Uptime, now.Seconds())
	snap.SetFloat(params.JSObjects, float64(d.Sharers)) // refined by the OAS layer
	snap.SetFloat(params.JSApps, 0)
	snap.SetFloat(params.RMIRate, 0)
	return snap
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
