// Package loadgen is the planet-scale serving workload generator: a
// seeded, deterministic producer of open-loop request arrival streams.
//
// The generator models the traffic shape the serving literature
// documents for interactive distributed applications:
//
//   - Open-loop arrivals: request times are drawn independently of the
//     system's responses, so an overloaded server faces an ever-growing
//     backlog instead of the closed-loop self-throttling that hides
//     collapse.
//   - Heavy-tailed interarrivals: gaps are bounded-Pareto distributed
//     (burstier than Poisson), normalized to the configured mean rate.
//   - Zipf key popularity: a small set of hot keys dominates, which is
//     what makes shard routing and read coalescing earn their keep.
//   - Client classes: every simulated client belongs to one declared
//     class (gold/silver/bronze tiers); classes are what per-class SLOs
//     and admission control act on.
//   - Demand traces: a Trace function modulates the instantaneous rate,
//     letting the stream ride the installation's day/night load curves.
//
// Everything is drawn from one explicit *rand.Rand, in one fixed order,
// so a stream is a pure function of its Config: twin same-seed runs are
// byte-identical, which is what the serve experiment's determinism
// claims rest on.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Op discriminates request operations.
type Op uint8

const (
	// OpWrite mutates the keyed state (routed to the shard primary).
	OpWrite Op = iota
	// OpRead observes it (coalescible, replica-routable).
	OpRead
)

// String renders the op for artifacts and test output.
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Class declares one client tier.
type Class struct {
	// Name is the SLO/admission class requests of this tier carry.
	Name string
	// Share is the tier's fraction of the client population (shares
	// are normalized over the class list).
	Share float64
	// Reads is the fraction of the tier's requests that are reads
	// (the rest are writes).
	Reads float64
}

// Config parameterizes one arrival stream.
type Config struct {
	// Seed drives every draw; equal configs produce identical streams.
	Seed int64
	// Classes are the client tiers (required, priority order by
	// convention: most important first).
	Classes []Class
	// Clients is the simulated client population size; each arrival is
	// attributed to one uniformly-drawn client id in [0, Clients).
	// Millions are cheap: clients are ids, not goroutines.
	Clients uint64
	// Keys is the key-space size; popularity is Zipf over it.
	Keys uint64
	// ZipfS is the Zipf skew exponent (> 1; default 1.1).
	ZipfS float64
	// ZipfV is the Zipf value offset (>= 1; default 1).
	ZipfV float64
	// Rate is the mean arrival rate in requests per second of scheduler
	// time, at trace multiplier 1.0.
	Rate float64
	// Ops is the number of arrivals to generate.
	Ops int
	// Start offsets the first arrival from the stream epoch.
	Start time.Duration
	// Alpha is the Pareto tail index of the interarrival gaps (> 1 so
	// the mean exists; default 1.5 — markedly burstier than Poisson).
	Alpha float64
	// MaxGap caps one gap at MaxGap times the mean gap (default 50),
	// bounding the tail so a finite stream's mean rate converges.
	MaxGap float64
	// Trace, when set, modulates the instantaneous rate: the gap drawn
	// at elapsed time t is divided by Trace(t) (clamped to >= 0.05).
	// Feed it a simnet day/night load curve to ride the paper's traces.
	Trace func(t time.Duration) float64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 1_000_000
	}
	if c.Keys == 0 {
		c.Keys = 64
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	if c.ZipfV < 1 {
		c.ZipfV = 1
	}
	if c.Alpha <= 1 {
		c.Alpha = 1.5
	}
	if c.MaxGap <= 0 {
		c.MaxGap = 50
	}
	return c
}

// validate rejects unusable configs (after withDefaults).
func (c Config) validate() error {
	if len(c.Classes) == 0 {
		return fmt.Errorf("loadgen: config needs at least one class")
	}
	total := 0.0
	for _, cl := range c.Classes {
		if cl.Name == "" {
			return fmt.Errorf("loadgen: class names must be non-empty")
		}
		if cl.Share < 0 || cl.Reads < 0 || cl.Reads > 1 {
			return fmt.Errorf("loadgen: class %s: Share must be >= 0 and Reads in [0,1]", cl.Name)
		}
		total += cl.Share
	}
	if total <= 0 {
		return fmt.Errorf("loadgen: class shares sum to zero")
	}
	if c.Rate <= 0 {
		return fmt.Errorf("loadgen: Rate must be positive, got %v", c.Rate)
	}
	if c.Ops <= 0 {
		return fmt.Errorf("loadgen: Ops must be positive, got %d", c.Ops)
	}
	return nil
}

// Arrival is one generated request.
type Arrival struct {
	At     time.Duration // arrival time from the stream epoch
	Class  string        // client tier
	Client uint64        // simulated client id
	Key    string        // target key ("k%05d")
	Op     Op
}

// Generate produces the arrival stream for cfg: exactly cfg.Ops
// arrivals in nondecreasing time order.  The stream is a pure function
// of cfg.
func Generate(cfg Config) ([]Arrival, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, cfg.Keys-1)

	// Cumulative class shares for tier selection.
	cum := make([]float64, len(cfg.Classes))
	total := 0.0
	for i, cl := range cfg.Classes {
		total += cl.Share
		cum[i] = total
	}

	// Bounded Pareto interarrivals: X = xm * U^(-1/alpha) has mean
	// xm*alpha/(alpha-1), so xm = (alpha-1)/alpha normalizes the
	// uncapped mean to 1 gap unit; one unit is 1/(Rate*Trace(t))
	// seconds.  The cap at MaxGap units keeps a finite stream's
	// realized mean near the target.
	xm := (cfg.Alpha - 1) / cfg.Alpha

	out := make([]Arrival, 0, cfg.Ops)
	at := cfg.Start
	for i := 0; i < cfg.Ops; i++ {
		gap := xm * math.Pow(rng.Float64(), -1/cfg.Alpha)
		if gap > cfg.MaxGap {
			gap = cfg.MaxGap
		}
		mult := 1.0
		if cfg.Trace != nil {
			mult = cfg.Trace(at - cfg.Start)
			if mult < 0.05 {
				mult = 0.05
			}
		}
		at += time.Duration(gap / (cfg.Rate * mult) * float64(time.Second))

		u := rng.Float64() * total
		ci := len(cfg.Classes) - 1
		for j, c := range cum {
			if u < c {
				ci = j
				break
			}
		}
		cl := cfg.Classes[ci]
		a := Arrival{
			At:     at,
			Class:  cl.Name,
			Client: uint64(rng.Int63n(int64(cfg.Clients))),
			Key:    fmt.Sprintf("k%05d", zipf.Uint64()),
		}
		if rng.Float64() < cl.Reads {
			a.Op = OpRead
		} else {
			a.Op = OpWrite
		}
		out = append(out, a)
	}
	return out, nil
}
