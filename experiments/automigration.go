package experiments

import (
	"fmt"
	"io"
	"time"

	"jsymphony"
	"jsymphony/internal/sched"
)

// schedProc shortens the scheduler proc type in closures.
type schedProc = sched.Proc

// E3 — the automatic-migration experiment the paper promises ("we plan
// to add more experiments") but does not report: long-running worker
// objects iterate on a small cluster; partway through, one workstation
// is seized by a CPU hog (its owner came back).  With automatic
// migration enabled, the JRS notices the architecture constraint
// (idle >= 40%) no longer holds on that node and evacuates the worker;
// with it disabled, the worker crawls behind the hog for the rest of
// the run.

func init() {
	jsymphony.RegisterClass("e3.Worker", 2048, func() any { return &E3Worker{} })
}

// E3Worker is a long-running iterative computation.
type E3Worker struct {
	Rounds int
}

// Round performs one iteration of the given cost.
func (w *E3Worker) Round(ctx *jsymphony.Ctx, flops float64) int {
	ctx.Compute(flops)
	w.Rounds++
	return w.Rounds
}

// E3Result reports one condition of the experiment.
type E3Result struct {
	AutoMigration bool
	Elapsed       time.Duration
	Migrated      bool // did the victim worker end up elsewhere?
}

// E3Config parameterizes the experiment.  Fields are used as given:
// start from defaultE3Config, the values the registry runs.
type E3Config struct {
	Workers    int           // worker objects (and cluster nodes)
	Rounds     int           // iterations per worker
	RoundFlops float64       // cost per iteration
	HogAfter   time.Duration // when the owner seizes the node
	Seed       int64
}

// defaultE3Config is the experiment as the registry runs it.
func defaultE3Config(seed int64) E3Config {
	return E3Config{
		Workers:    4,
		Rounds:     30,
		RoundFlops: 5e6, // 200 ms on an idle Ultra 10/300
		HogAfter:   1 * time.Second,
		Seed:       seed,
	}
}

// RunE3Condition runs one condition on a fresh uniform cluster.
func RunE3Condition(auto bool, cfg E3Config) E3Result {
	env := idleCluster(cfg.Workers+1, cfg.Seed)
	var res E3Result
	res.AutoMigration = auto
	env.RunMain("", func(js *jsymphony.JS) {
		cb := js.NewCodebase()
		must(cb.Add("e3.Worker"))
		must(cb.LoadNodes(env.Nodes()...))

		// One cluster node per worker (one spare machine stays free),
		// managed under the paper's "only use idle workstations" policy:
		// no interactive users on the node.
		constr := jsymphony.NewConstraints().MustSet(jsymphony.ParamID("user.count"), "<=", 0)
		domain, err := js.NewDomain([][]int{{cfg.Workers}}, nil)
		must(err)
		js.ActivateVA(domain, constr, nil)
		if auto {
			env.SetAutoMigration(300 * time.Millisecond)
		}

		workers := make([]*jsymphony.Object, cfg.Workers)
		victims := make([]string, cfg.Workers)
		for i := range workers {
			node, err := domain.Node(0, 0, i)
			must(err)
			workers[i], err = js.NewObject("e3.Worker", node, nil)
			must(err)
			victims[i] = node.Name()
		}
		victim := victims[0]

		// The owner returns to the victim machine after HogAfter,
		// seizing 90% of its CPU until the end of the run.
		m, _ := env.World().Fabric().ByName(victim)
		env.World().Sched().Spawn("owner", func(p schedProc) {
			p.Sleep(cfg.HogAfter)
			m.SetExtraLoad(0.9)
		})

		// Drive all workers through their rounds concurrently.
		start := js.Now()
		done := make(chan error, cfg.Workers)
		for i := range workers {
			i := i
			js.Spawn("driver", func(w *jsymphony.JS) {
				obj := workers[i].With(w)
				for r := 0; r < cfg.Rounds; r++ {
					if _, err := obj.SInvoke("Round", cfg.RoundFlops); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			})
		}
		for i := 0; i < cfg.Workers; i++ {
			for len(done) == 0 {
				js.Sleep(20 * time.Millisecond)
			}
			if err := <-done; err != nil {
				panic(err)
			}
		}
		res.Elapsed = js.Now() - start
		loc, err := workers[0].NodeName()
		must(err)
		res.Migrated = loc != victim
		env.SetAutoMigration(0)
		m.SetExtraLoad(0)
	})
	return res
}

// E3 runs both conditions.
func E3(cfg E3Config) (off, on E3Result) {
	return RunE3Condition(false, cfg), RunE3Condition(true, cfg)
}

// E3Pair is both conditions side by side.
type E3Pair struct{ Off, On E3Result }

// WriteText renders the two conditions and the benefit.
func (r E3Pair) WriteText(w io.Writer) {
	off, on := r.Off, r.On
	fmt.Fprintf(w, "  automatic migration OFF: %7.2fs  (worker crawls behind the owner)\n", off.Elapsed.Seconds())
	fmt.Fprintf(w, "  automatic migration ON:  %7.2fs  (worker evacuated: %v)\n", on.Elapsed.Seconds(), on.Migrated)
	fmt.Fprintf(w, "  benefit: %.1fx\n", float64(off.Elapsed)/float64(on.Elapsed))
}

// Claims: TestE3AutoMigrationPaysOff gates the payoff; the run reports it.
func (r E3Pair) Claims() ([]string, bool) { return nil, true }
