// Command bench measures what the JavaSymphony reproduction costs the
// host: wall time, CPU and memory of the simulator and of the real-time
// RMI stack.  Virtual-time results live in the BENCH_*.json artifacts;
// here simulated quantities appear only as exact counts that show two
// runs did the same simulated work.  See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

var workloads = []*workload{simInvoke, simMatmul, simServe, simDurable, tcpInvoke}

// deadline is the hard per-workload limit; the driver allows 180 s.
const deadline = 170 * time.Second

func main() {
	var cfg config
	name := flag.String("workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&cfg.units, "units", 0, "run exactly this many host-timed units instead of -seconds")
	trace := flag.String("trace", "0", "1 runs traced and reports the per-layer metrics in place of the end-to-end ones")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(os.TempDir(), "jsymphony-bench"), "directory the traced run writes its spans to")
	flag.Parse()
	traced, err := strconv.ParseBool(*trace)
	if err != nil || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jsbench: bad arguments: -trace %q %v\n", *trace, flag.Args())
		os.Exit(2)
	}
	cfg.traced = traced
	cfg.setups = 5

	if *name == "all" {
		os.Exit(runAll(cfg))
	}
	for _, w := range workloads {
		if w.name == *name {
			os.Exit(runOne(w, cfg))
		}
	}
	fmt.Fprintf(os.Stderr, "jsbench: unknown workload %q\n", *name)
	os.Exit(2)
}

// runAll re-executes this binary once per workload, so heap state and
// peak RSS do not leak from one workload into the next.
func runAll(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self,
			"-workload", w.name,
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-units", strconv.Itoa(cfg.units),
			"-trace", strconv.FormatBool(cfg.traced),
			"-out", cfg.outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "jsbench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runOne measures one workload in this process and prints one line per
// metric, then the result object the driver reads.
func runOne(w *workload, cfg config) int {
	armDeadline(w.name, deadline)
	fmt.Printf("# %s seed=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		w.name, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Printf("# why: %s\n", w.why)

	r, out, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsbench: %s: %v\n", w.name, err)
		return 1
	}
	defer out.release()
	metrics := endToEnd(r, out)
	if cfg.traced {
		path, err := r.tr.write(cfg.outDir, fmt.Sprintf("%s-seed%d", w.name, cfg.seed), w.kinds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jsbench: %s: writing spans: %v\n", w.name, err)
			return 1
		}
		fmt.Printf("# spans written to %s\n", path)
		// The traced run's own end-to-end numbers are printed for
		// reference; the result object carries the per-layer rows.
		for _, m := range metrics {
			fmt.Printf("%s/traced.%s %s %s n=%d\n", w.name, m.name, formatValue(m.value), m.unit, m.n)
		}
		metrics = perLayer(r, out)
	}
	for _, m := range metrics {
		fmt.Printf("%s/%s %s %s n=%d\n", w.name, m.name, formatValue(m.value), m.unit, m.n)
	}
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "jsbench: %s: %d of %d operations failed; first: %s\n",
			w.name, r.failed, r.attempted, r.firstFailure)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range metrics {
		result.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return 1
	}
	return 0
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
