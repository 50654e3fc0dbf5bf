package probe

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/arrivals"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/perfbench/bench"
)

// Traced is the outcome of one traced simulation call.
type Traced struct {
	Model    bench.Model
	Executor string
	// Seconds is the host time of the traced call.
	Seconds float64
	Layers  [numLayers]Stat
	// Events counts node-engine events; Admissions counts dispatch attempts
	// (fleets); Kernels, TBs, Preemptions and SavedBytes are the execution
	// engines' counters.
	Events                   uint64
	Admissions, Kernels, TBs int
	Preemptions              int
	SavedBytes               int64
	Spans                    map[int][]Span
}

// Factories mirrors the facade's policy and mechanism choices for the kinds
// the benchmark workloads use.
func Factories(p repro.PolicyKind, m repro.MechanismKind) (func(int) core.Policy, func() core.Mechanism, error) {
	var pol func(int) core.Policy
	switch p {
	case repro.PolicyPPQ:
		pol = func(int) core.Policy { return policy.NewPPQ(false) }
	case repro.PolicyDSS:
		pol = func(n int) core.Policy { return policy.NewDSS(n) }
	default:
		return nil, nil, fmt.Errorf("probe: policy %q not mirrored", p)
	}
	switch m {
	case repro.MechanismAdaptive:
		return pol, func() core.Mechanism { return preempt.NewAdaptive() }, nil
	case repro.MechanismContextSwitch:
		return pol, func() core.Mechanism { return preempt.ContextSwitch{} }, nil
	default:
		return nil, nil, fmt.Errorf("probe: mechanism %q not mirrored", m)
	}
}

// machine mirrors the facade's machine configuration for a seed (default
// jitter, everything else at the machine's defaults).
func machine(seed uint64) system.Config {
	sys := system.DefaultConfig()
	sys.Seed = seed
	sys.Jitter = 0.30
	return sys
}

// genSpec mirrors the facade's stream synthesis for an arrival spec.
func genSpec(s *repro.ArrivalSpec) arrivals.GenSpec {
	g := arrivals.GenSpec{
		Process:     arrivals.Process(s.Process),
		Rate:        s.Rate,
		Horizon:     sim.Time(s.Horizon.Nanoseconds()),
		MaxArrivals: s.MaxArrivals,
		Seed:        s.Seed,
	}
	for _, c := range s.Classes {
		cs := arrivals.ClassSpec{Name: c.Name, Priority: c.Priority, Weight: c.Weight,
			Deadline: sim.Time(c.Deadline.Nanoseconds())}
		for _, a := range c.Apps {
			cs.Apps = append(cs.Apps, arrivals.AppChoice{App: a.Trace(), Weight: 1})
		}
		g.Classes = append(g.Classes, cs)
	}
	return g
}

// FleetTrace generates a fleet workload's arrival stream through
// internal/arrivals and reports the generation time.
func FleetTrace(seed uint64) (*trace.ArrivalTrace, float64, error) {
	spec, err := bench.FleetSpec(seed)
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	tr, err := arrivals.Generate(genSpec(spec))
	return tr, time.Since(t).Seconds(), err
}

// lowerResilience mirrors the facade's resilience conversion.
func lowerResilience(p *repro.ResilienceSpec) *resilience.Spec {
	if p == nil {
		return nil
	}
	s := &resilience.Spec{Seed: p.Seed, Timeout: sim.Time(p.Timeout.Nanoseconds())}
	if r := p.Retry; r != nil {
		s.Retry = &resilience.RetryPolicy{MaxAttempts: r.MaxAttempts, BackoffBase: sim.Time(r.BackoffBase.Nanoseconds()),
			BackoffMax: sim.Time(r.BackoffMax.Nanoseconds()), JitterFrac: r.JitterFrac}
		if b := r.Budget; b != nil {
			s.Retry.Budget = &resilience.Budget{Tokens: b.Tokens, Ratio: b.Ratio}
		}
	}
	if h := p.Hedge; h != nil {
		s.Hedge = &resilience.HedgePolicy{Quantile: h.Quantile, MinObs: h.MinObs, MaxHedges: h.MaxHedges}
	}
	if b := p.Breaker; b != nil {
		s.Breaker = &resilience.BreakerPolicy{Window: sim.Time(b.Window.Nanoseconds()), ErrorRate: b.ErrorRate,
			MinVolume: b.MinVolume, Cooldown: sim.Time(b.Cooldown.Nanoseconds()), Probes: b.Probes}
	}
	if sh := p.Shed; sh != nil {
		s.Shed = &resilience.ShedPolicy{PerNode: sh.PerNode, Queue: sh.Queue}
	}
	return s
}

// fleetConfig mirrors RunCluster's configuration of a fleet workload, with
// the dispatcher, policy and mechanism wrapped by tr when it is non-nil.
func fleetConfig(w bench.Workload, seed uint64, tr *Tracer) (cluster.RunConfig, error) {
	o := bench.FleetOptions(w, seed)
	pol, mech, err := Factories(o.Policy, o.Mechanism)
	if err != nil {
		return cluster.RunConfig{}, err
	}
	disp, err := cluster.NewDispatcher(cluster.Kind(o.Dispatch), o.Seed)
	if err != nil {
		return cluster.RunConfig{}, err
	}
	if tr != nil {
		pol, mech = tr.Policy(pol), tr.Mechanism(mech)
		if disp, err = tr.Dispatcher(disp); err != nil {
			return cluster.RunConfig{}, err
		}
	}
	rc := cluster.RunConfig{
		Sys:        machine(o.Seed),
		Nodes:      o.Nodes,
		Dispatcher: disp,
		Policy:     pol,
		Mechanism:  mech,
		Parallel:   o.ParWindow,
		Resilience: lowerResilience(o.Resilience),
	}
	if o.Faults != nil {
		rc.Faults = &cluster.FaultSpec{KillRate: o.Faults.KillRate}
	}
	return rc, nil
}

// TraceFleet runs a fleet workload once through internal/cluster, with
// every pluggable layer wrapped when traced is set and unwrapped otherwise
// (the overhead baseline on the same code path).
func TraceFleet(w bench.Workload, seed uint64, at *trace.ArrivalTrace, traced bool) (*Traced, error) {
	var tc *Tracer
	if traced {
		tc = NewTracer()
	}
	rc, err := fleetConfig(w, seed, tc)
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(at, rc)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	res, err := c.Run()
	d := time.Since(t)
	if err != nil {
		return nil, err
	}
	m := bench.Model{Fleet: fleetModel(res)}
	if err := m.CheckFleet(len(at.Arrivals), w.Resilient); err != nil {
		return nil, err
	}
	out := &Traced{
		Model: m, Executor: c.Executor(), Seconds: d.Seconds(),
		Admissions: res.Admitted, Kernels: res.Stats.KernelsActivated, TBs: res.Stats.TBsCompleted,
		Preemptions: res.Stats.PreemptionsDone, SavedBytes: res.Stats.ContextSavedBytes,
	}
	if tc != nil {
		out.Layers, out.Events, out.Spans = tc.Stats(), tc.Events(), tc.Spans()
	}
	return out, nil
}

// fleetModel reduces an internal cluster result the way the facade does.
func fleetModel(r *cluster.Result) *bench.FleetModel {
	m := &bench.FleetModel{
		Admitted: r.Admitted, Completed: r.Completed, Lost: r.Lost, InFlight: r.InFlight, Missed: r.Missed,
		EndNS:       int64(r.EndTime),
		Utilization: r.Utilization, Goodput: r.Goodput, NodeSeconds: r.NodeSeconds,
		Kills: r.Kills, Restarts: r.Restarts, Preemptions: r.Stats.PreemptionsDone,
		Requests: r.Requests, ReqCompleted: r.ReqCompleted, Dropped: r.Dropped, Shed: r.Shed, ReqInFlight: r.ReqInFlight,
		TimedOut: r.TimedOut, Canceled: r.Canceled, Retries: r.Retries, Hedges: r.Hedges,
		Rejected: r.Rejected, BreakerTrips: r.BreakerTrips,
	}
	for i := range r.Classes {
		c := &r.Classes[i]
		m.Classes = append(m.Classes, bench.ClassModel{
			Name: c.Name, Admitted: c.Admitted, Completed: c.Completed, Missed: c.Missed,
			WaitP99: int64(c.Wait.Quantile(0.99)), LatP50: int64(c.Latency.Quantile(0.50)),
			LatP95: int64(c.Latency.Quantile(0.95)), LatP99: int64(c.Latency.Quantile(0.99)),
		})
	}
	for i := range r.Nodes {
		n := &r.Nodes[i]
		m.Nodes = append(m.Nodes, bench.NodeModel{
			Admitted: n.Admitted, Completed: n.Completed, Lost: n.Lost, InFlight: n.InFlight, Missed: n.Missed,
			Incarnations: n.Incarnations, Preemptions: n.Stats.PreemptionsDone,
		})
	}
	return m
}

// TraceMixes runs the paper-mix batches once through internal/workload,
// mirroring RunMany: each mix on its own jitter seed, isolated baselines
// shared per application within a batch. With
// traced set, policy and mechanism are wrapped. Mixes run one after
// another; isolated baselines are never traced.
func TraceMixes(in *bench.Input, traced bool) (*Traced, error) {
	var tc *Tracer
	if traced {
		tc = NewTracer()
	}
	out := &Traced{}
	var total time.Duration
	for _, b := range in.Batches {
		pol, mech, err := Factories(b.Opts.Policy, b.Opts.Mechanism)
		if err != nil {
			return nil, err
		}
		if tc != nil {
			pol, mech = tc.Policy(pol), tc.Mechanism(mech)
		}
		rc := workload.RunConfig{Sys: machine(b.Opts.Seed), Policy: pol, Mechanism: mech, MinRuns: b.Opts.MinRuns}
		isoRC := workload.RunConfig{Sys: machine(b.Opts.Seed), MinRuns: b.Opts.MinRuns}
		iso := map[*trace.App]sim.Time{}
		for _, mix := range b.Mixes {
			spec := workload.Spec{Name: "workload", HighPriority: mix.HighPriority, Seed: mix.Seed}
			for _, a := range mix.Apps {
				spec.Apps = append(spec.Apps, a.Trace())
			}
			t := time.Now()
			res, err := workload.Run(spec, rc)
			if err != nil {
				return nil, err
			}
			mm := bench.MixModel{EndNS: int64(res.EndTime), Preemptions: res.Stats.Preemptions,
				ContextSavedBytes: res.Stats.ContextSavedBytes}
			perfs := make([]metrics.AppPerf, len(res.Apps))
			for j, ar := range res.Apps {
				isoT, ok := iso[spec.Apps[j]]
				if !ok {
					if isoT, err = workload.Isolated(spec.Apps[j], isoRC); err != nil {
						return nil, err
					}
					iso[spec.Apps[j]] = isoT
				}
				perfs[j] = metrics.AppPerf{Name: ar.Name, Isolated: isoT, Shared: ar.MeanTurnaround}
				mm.Apps = append(mm.Apps, bench.AppModel{Name: ar.Name, Runs: ar.Runs,
					Turnaround: int64(ar.MeanTurnaround), Isolated: int64(isoT), Starved: ar.Starved, HighPriority: ar.HighPriority})
			}
			sum, err := metrics.Summarize(perfs)
			if err != nil {
				return nil, err
			}
			total += time.Since(t)
			mm.ANTT, mm.STP, mm.Fairness = sum.ANTT, sum.STP, sum.Fairness
			out.Model.Mixes = append(out.Model.Mixes, mm)
			out.Kernels += res.Stats.KernelsActivated
			out.TBs += res.Stats.TBsCompleted
			out.Preemptions += res.Stats.PreemptionsDone
			out.SavedBytes += res.Stats.ContextSavedBytes
		}
	}
	if err := out.Model.Check(); err != nil {
		return nil, err
	}
	out.Seconds = total.Seconds()
	if tc != nil {
		out.Layers, out.Events, out.Spans = tc.Stats(), tc.Events(), tc.Spans()
	}
	return out, nil
}
