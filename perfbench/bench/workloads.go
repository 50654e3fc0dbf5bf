// Package bench defines the repository benchmark's workloads on the public
// repro facade: how each workload builds its inputs from a seed, the
// simulation call it times, and the output checks every run must pass. It
// imports no internal package, so a refactor of internal interfaces can
// break only the traced per-layer run (package probe), never the end-to-end
// numbers.
package bench

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro"
)

// Fleet workload shape: the BenchmarkRunCluster stream, cut to a size that
// lets one run repeat the simulation call several times.
const (
	FleetGPUs     = 64
	FleetRate     = 2e6 // arrivals per simulated second
	FleetArrivals = 25_000
	FleetKillRate = 2000 // node kills per simulated second
	// FleetAppScale shrinks spmv and lbm to minimal thread-block counts, so
	// the run exercises the cluster machinery rather than intra-GPU work.
	FleetAppScale = 1 << 20
)

// Paper-mix shape: §4.1's closed-loop replay of 4-process Parboil mixes.
const (
	MixSize  = 4
	MixScale = 24
	MixRuns  = 2 // completed runs every app needs (Options.MinRuns)
	// MixReplicas repeats the mix design with distinct per-mix jitter seeds.
	// DSS+switch preemption counts swing by tens of percent with jitter
	// alone, so one call averages over many replicas to stay steady.
	MixReplicas = 12
)

// mixOffsets lay out the paper mixes: mix j co-schedules suite apps
// j+o mod len(suite) for each offset o. The offsets are distinct mod 10, so
// no mix repeats an app, every app runs in exactly MixSize mixes, and the
// pairings spread over every distance in the suite.
var mixOffsets = [MixSize]int{0, 1, 3, 7}

// Workload is one named benchmark workload.
type Workload struct {
	Name string
	// Why is the reason the workload exists: the layer it stresses and the
	// one it bypasses.
	Why string
	// Dispatch, KillRate and Resilient shape a fleet workload; Mix marks
	// the single-GPU paper mixes instead.
	Dispatch  repro.DispatchKind
	KillRate  float64
	Resilient bool
	Mix       bool
}

// Workloads lists the benchmark workloads in report order.
func Workloads() []Workload {
	return []Workload{
		{Name: "fleet-rr", Dispatch: repro.DispatchRoundRobin,
			Why: "64 GPUs, round-robin, pre-shard windows: per-request admission and retirement dominate; dispatch trivial, no preemptions"},
		{Name: "fleet-jsq", Dispatch: repro.DispatchJSQ, KillRate: FleetKillRate,
			Why: "jsq plus node kills on the lookahead path: serial Pick over 64 GPUs and the arrival micro-merge sit on the critical path"},
		{Name: "fleet-resilient", Dispatch: repro.DispatchJSQ, KillRate: FleetKillRate, Resilient: true,
			Why: "fleet-jsq plus timeouts, retries, hedges, breakers and shedding: the lockstep loop and lifecycle manager"},
		{Name: "paper-mix", Mix: true,
			Why: "4-process Parboil mixes on one GPU under DSS+switch and PPQ+adaptive: TB issue, SM preemption, policy calls; fleet idle"},
	}
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Workers is the worker count every parallel knob uses: all load comes from
// one process on at most nproc workers.
func Workers() int { return runtime.NumCPU() }

// GuardedResilience is the guarded lifecycle spec of `-exp resilience`.
func GuardedResilience() *repro.ResilienceSpec {
	return &repro.ResilienceSpec{
		Timeout: 800 * time.Microsecond,
		Retry: &repro.RetryPolicy{
			MaxAttempts: 4,
			BackoffBase: 20 * time.Microsecond,
			Budget:      &repro.RetryBudget{Tokens: 20, Ratio: 0.1},
		},
		Hedge:   &repro.HedgePolicy{Quantile: 0.95, MinObs: 16},
		Breaker: &repro.BreakerPolicy{ErrorRate: 0.5},
		Shed:    &repro.ShedPolicy{PerNode: 12, Queue: 24},
	}
}

// Batch is one RunMany call of the paper-mix workload.
type Batch struct {
	Opts  repro.Options
	Mixes []repro.Workload
}

// Input is a run's generated inputs: the fleet options with a
// pre-synthesized arrival trace, or the paper-mix batches. The simulator
// receives nothing else.
type Input struct {
	W       Workload
	Fleet   repro.Options
	Batches []Batch
}

// FleetSpec is the seeded open-loop Poisson stream the fleet workloads
// replay: rt:batch 1:3 over spmv (250 µs deadline) and lbm.
func FleetSpec(seed uint64) (*repro.ArrivalSpec, error) {
	spmv, err := repro.AppByName("spmv")
	if err != nil {
		return nil, err
	}
	lbm, err := repro.AppByName("lbm")
	if err != nil {
		return nil, err
	}
	return &repro.ArrivalSpec{
		Process:     repro.ArrivalPoisson,
		Rate:        FleetRate,
		Horizon:     2 * time.Second,
		MaxArrivals: FleetArrivals,
		Seed:        seed,
		Classes: []repro.ArrivalClass{
			{Name: "rt", Priority: 1, Weight: 1, Deadline: 250 * time.Microsecond, Apps: []*repro.App{spmv.Scale(FleetAppScale)}},
			{Name: "batch", Priority: 0, Weight: 3, Apps: []*repro.App{lbm.Scale(FleetAppScale)}},
		},
	}, nil
}

// FleetOptions is the fleet configuration of w at the given seed, without
// arrivals.
func FleetOptions(w Workload, seed uint64) repro.Options {
	o := repro.Options{
		Policy:    repro.PolicyPPQ,
		Mechanism: repro.MechanismAdaptive,
		Seed:      seed,
		Nodes:     FleetGPUs,
		Dispatch:  w.Dispatch,
		ParWindow: Workers(),
	}
	if w.KillRate > 0 {
		o.Faults = &repro.FaultPlan{KillRate: w.KillRate}
	}
	if w.Resilient {
		o.Resilience = GuardedResilience()
	}
	return o
}

// Setup builds the workload's inputs from the seed: stream synthesis for a
// fleet, the mixes for paper-mix.
func (w Workload) Setup(seed uint64) (*Input, error) {
	in := &Input{W: w}
	if w.Mix {
		suite := repro.Suite()
		for i := range suite {
			suite[i] = suite[i].Scale(MixScale)
		}
		r := rand.New(rand.NewPCG(seed, 0x9A9E))
		dss := repro.Options{Policy: repro.PolicyDSS, Mechanism: repro.MechanismContextSwitch,
			MinRuns: MixRuns, Seed: seed, Parallel: Workers()}
		ppq := repro.Options{Policy: repro.PolicyPPQ, Mechanism: repro.MechanismAdaptive,
			MinRuns: MixRuns, Seed: seed, Parallel: Workers()}
		in.Batches = []Batch{
			{Opts: dss, Mixes: designMixes(r, suite, false)},
			{Opts: ppq, Mixes: designMixes(r, suite, true)},
		}
		return in, nil
	}
	spec, err := FleetSpec(seed)
	if err != nil {
		return nil, err
	}
	in.Fleet = FleetOptions(w, seed)
	tr, err := spec.Synthesize(in.Fleet)
	if err != nil {
		return nil, err
	}
	in.Fleet.Arrivals = &repro.ArrivalSpec{Trace: tr}
	return in, nil
}

// designMixes builds MixReplicas copies of the mix design, one mix per
// suite app each. The pairings are fixed, so the work per simulated request
// stays comparable across seeds (randomly drawn 4-app mixes swing it by a
// third from seed to seed); the seed draws every mix's thread-block jitter
// seed. With withHP, replica k makes process (j+k) mod MixSize of mix j
// high-priority, so every process is prioritized equally often.
func designMixes(r *rand.Rand, suite []*repro.App, withHP bool) []repro.Workload {
	var out []repro.Workload
	for k := 0; k < MixReplicas; k++ {
		for j := range suite {
			apps := make([]*repro.App, MixSize)
			for i, o := range mixOffsets {
				apps[i] = suite[(j+o)%len(suite)]
			}
			w := repro.Workload{Apps: apps, HighPriority: -1, Seed: r.Uint64() | 1}
			if withHP {
				w.HighPriority = (j + k) % MixSize
			}
			out = append(out, w)
		}
	}
	return out
}

// Outcome is one checked simulation call.
type Outcome struct {
	// Requests counts the simulated requests the call resolved: arrivals on
	// a fleet, completed application runs on paper-mix.
	Requests int
	// Executor is the cluster execution strategy that ran ("" on paper-mix).
	Executor string
	Model    Model
}

// Simulate runs the simulation call on the inputs and checks its output.
func (in *Input) Simulate(ctx context.Context) (*Outcome, error) {
	if in.W.Mix {
		var mixes []MixModel
		for _, b := range in.Batches {
			res, err := repro.RunMany(ctx, b.Mixes, b.Opts)
			if err != nil {
				return nil, err
			}
			for _, r := range res {
				mixes = append(mixes, MixFromResult(r))
			}
		}
		m := Model{Mixes: mixes}
		if err := m.Check(); err != nil {
			return nil, err
		}
		return &Outcome{Requests: m.Requests(), Model: m}, nil
	}
	res, err := repro.RunCluster(in.Fleet)
	if err != nil {
		return nil, err
	}
	m := Model{Fleet: FleetFromResult(res)}
	if err := m.CheckFleet(in.Fleet.Arrivals.Trace.Len(), in.W.Resilient); err != nil {
		return nil, err
	}
	return &Outcome{Requests: m.Requests(), Executor: res.Executor, Model: m}, nil
}
