package main

import (
	"fmt"
	"os"
	"time"
)

// Every wall-clock read of the benchmark lives in this file.  The
// repository's walltime lint forbids ambient time in simulation code;
// the functions below are the host-time escape hatch, and nothing they
// return is ever written into a deterministic artifact.

// hostTime is nanoseconds of host (monotonic wall) time since the
// process started.
type hostTime int64

var processStart = startClock()

//jsvet:allow walltime host-time benchmark; never feeds a deterministic artifact
func startClock() time.Time { return time.Now() }

// hostNow reads the host clock.
//
//jsvet:allow walltime host-time benchmark; never feeds a deterministic artifact
func hostNow() hostTime { return hostTime(time.Since(processStart)) }

// hostSleep blocks the calling goroutine in real time.  Only the
// real-time workload's set-up uses it, to poll for agent reports.
//
//jsvet:allow walltime host-time benchmark; never feeds a deterministic artifact
func hostSleep(d time.Duration) { time.Sleep(d) }

// armDeadline turns a hang into a named failure: if the workload has
// not finished after d, the process reports which one and exits 3.
//
//jsvet:allow walltime host-time benchmark; never feeds a deterministic artifact
func armDeadline(workload string, d time.Duration) {
	time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "jsbench: workload %s exceeded its %v deadline\n", workload, d)
		os.Exit(3)
	})
}

func (t hostTime) seconds() float64 { return float64(t) / 1e9 }
func (t hostTime) micros() float64  { return float64(t) / 1e3 }
func (t hostTime) millis() float64  { return float64(t) / 1e6 }
