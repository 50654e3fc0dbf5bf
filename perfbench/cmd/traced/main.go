// Command traced is the repository benchmark's per-layer run. For one
// workload and seed it
//
//   - repeats the untraced facade call as the end-to-end reference,
//   - reruns the workload through the internal packages with the
//     dispatcher, policy and mechanism wrapped in timing wrappers, alternated
//     with unwrapped runs of the same path to price the tracing itself,
//   - times fleets once each at lockstep, window=1 and window=nproc,
//   - probes the admission path and substrate primitives in isolated loops,
//
// checks that every run produced the reference simulation, prints the cost
// ladder, and ends with the per-layer metrics as one JSON line:
//
//	traced --workload fleet-jsq --seed 1 --seconds 25 --trace 1
//
// Spans go to spans-<workload>.json under $CARGO_TARGET_DIR (default
// .bench_build).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/perfbench/bench"
	"repro/perfbench/probe"
)

func main() { os.Exit(run()) }

// units lists every per-layer metric the traced run reports, with its unit.
var units = map[string]string{
	"arrivals.admit_ns":                   "ns",
	"arrivals.admit_allocs":               "count",
	"arrivals.admit_bytes":                "B",
	"arrivals.generate_s":                 "s",
	"gpu.ctx_ns":                          "ns",
	"mmu.map_ns":                          "ns",
	"mmu.map_bytes":                       "B",
	"gmem.alloc_free_ns":                  "ns",
	"sim.events_per_request":              "count",
	"sim.host_ns_per_event":               "ns",
	"sim.probe_event_ns":                  "ns",
	"cluster.lockstep_s":                  "s",
	"cluster.window1_s":                   "s",
	"cluster.windowN_s":                   "s",
	"cluster.parallel_window":             "count",
	"cluster.unattributed_ns_per_request": "ns",
	"cluster.kills":                       "count",
	"cluster.lost":                        "count",
	"dispatch.picks_per_request":          "count",
	"dispatch.pick_ns":                    "ns",
	"dispatch.share":                      "ratio",
	"resilience.retries":                  "count",
	"resilience.hedges":                   "count",
	"resilience.timeouts":                 "count",
	"resilience.breaker_trips":            "count",
	"resilience.dropped":                  "count",
	"resilience.shed":                     "count",
	"policy.calls_per_request":            "count",
	"policy.call_ns":                      "ns",
	"policy.share":                        "ratio",
	"preempt.calls_per_request":           "count",
	"preempt.call_ns":                     "ns",
	"preempt.observe_ns":                  "ns",
	"core.tbs_per_request":                "count",
	"core.preemptions_per_request":        "count",
	"core.context_saved_bytes":            "B",
	"core.host_ns_per_tb":                 "ns",
	"metrics.sketch_add_ns":               "ns",
	"model.rt_p99_us":                     "us",
	"model.rt_miss_rate":                  "ratio",
	"model.goodput_per_s":                 "1/s",
	"model.antt":                          "ratio",
	"model.stp":                           "ratio",
	"model.fairness":                      "ratio",
	"model.digest":                        "hash",
	"host.max_rss_mb":                     "MB",
	"trace.overhead_pct":                  "%",
}

// Probe loop sizes: admissions replayed one at a time, and calls of each
// substrate primitive.
const (
	admitProbeN     = 20_000
	primitiveProbeN = 200_000
)

// state gathers one run's findings.
type state struct {
	w       bench.Workload
	seed    uint64
	vals    map[string]float64
	na      map[string]string // metric -> why it does not apply
	errs    []error
	tried   int
	failed  int
	refDig  uint64
	refExec string
}

func (s *state) set(name string, v float64) { s.vals[name] = v }

func (s *state) notApplicable(reason string, names ...string) {
	for _, n := range names {
		s.na[n] = reason
	}
}

func (s *state) fail(requests int, err error) {
	s.errs = append(s.errs, err)
	s.failed += requests
}

// same checks a run's simulation against the reference.
func (s *state) same(what string, requests int, dig uint64, exec string, wantExec bool) {
	s.tried += requests
	if dig != s.refDig {
		s.fail(requests, fmt.Errorf("%s: digest %x differs from the untraced reference %x", what, dig, s.refDig))
	} else if wantExec && exec != s.refExec {
		s.fail(requests, fmt.Errorf("%s: executor %q differs from the untraced reference %q", what, exec, s.refExec))
	}
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", bench.DefaultSeed, "workload seed")
	seconds := flag.Int("seconds", 25, "time budget in seconds; the reference and the traced reruns take a quarter each")
	traced := flag.Int("trace", 1, "must be 1: the untraced run is the e2e command")
	flag.Parse()
	if *traced != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "traced: needs --trace 1 and --seconds >= 1")
		return 2
	}
	w, err := bench.Lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	ctx := context.Background()
	s := &state{w: w, seed: *seed, vals: map[string]float64{}, na: map[string]string{}}

	// End-to-end reference: the untraced facade call, with its CPU time.
	in, _, err := bench.Setup(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced: set-up:", err)
		return 1
	}
	ref, err := reference(ctx, in, budget/4)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced: reference:", err)
		return 1
	}
	s.refDig, s.refExec = ref.model.Digest(), ref.executor
	s.tried += ref.requests * ref.calls
	for k, v := range ref.model.Outputs() {
		s.set(k, v)
	}
	s.set("model.digest", float64(s.refDig))

	// Traced runs alternated with unwrapped runs of the same internal path.
	tr, plain, genS := s.tracedRuns(in, budget/4)
	if tr == nil {
		return report(s, nil, ref)
	}
	if len(genS) > 0 {
		s.set("arrivals.generate_s", bench.Median(genS))
	}
	if plain > 0 {
		s.set("trace.overhead_pct", 100*(tr.Seconds/plain-1))
	}
	if err := writeSpans(w.Name, tr.Spans); err != nil {
		fmt.Fprintln(os.Stderr, "traced: writing spans:", err)
	}

	if !w.Mix {
		s.executorSweep(ctx, in)
	}
	sub, err := s.probe(in)
	if err != nil {
		s.fail(0, fmt.Errorf("probes: %w", err))
	}
	s.layers(tr, sub, ref)
	return report(s, tr, ref)
}

// refRun is the untraced end-to-end reference.
type refRun struct {
	model    bench.Model
	executor string
	requests int
	calls    int
	wallNS   float64 // median host ns per request of one call
	cpuNS    float64 // median process CPU ns per request (all threads)
	gcNS     float64 // median GC CPU ns per request
	allocs   float64 // median heap allocations per request
}

// reference repeats the untraced facade call for the budget and records wall,
// CPU and GC time per request.
func reference(ctx context.Context, in *bench.Input, budget time.Duration) (*refRun, error) {
	warm, err := in.Simulate(ctx)
	if err != nil {
		return nil, err
	}
	r := &refRun{model: warm.Model, executor: warm.Executor, requests: warm.Requests, calls: 1}
	var wall, cpu, gc, allocs []float64
	start := time.Now()
	for len(wall) < 3 || time.Since(start) < budget {
		smp, err := bench.Timed(ctx, in)
		r.calls++
		if err != nil {
			return nil, err
		}
		if smp.Out.Model.Digest() != warm.Model.Digest() {
			return nil, fmt.Errorf("untraced call %d changed the simulation", len(wall))
		}
		n := float64(smp.Out.Requests)
		wall = append(wall, smp.Seconds*1e9/n)
		cpu = append(cpu, smp.CPU*1e9/n)
		gc = append(gc, smp.GC*1e9/n)
		allocs = append(allocs, float64(smp.Mallocs)/n)
	}
	r.wallNS, r.cpuNS, r.gcNS, r.allocs = bench.Median(wall), bench.Median(cpu), bench.Median(gc), bench.Median(allocs)
	return r, nil
}

// tracedRuns alternates traced and unwrapped internal runs until the budget
// is spent (at least one of each), checks each against the reference, and
// returns the fastest traced run with the fastest unwrapped time and the
// stream generation times.
func (s *state) tracedRuns(in *bench.Input, budget time.Duration) (best *probe.Traced, plain float64, genS []float64) {
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		traced := i%2 == 0
		var t *probe.Traced
		var err error
		if s.w.Mix {
			t, err = probe.TraceMixes(in, traced)
		} else {
			at, g, gerr := probe.FleetTrace(s.seed)
			if gerr != nil {
				s.fail(0, fmt.Errorf("generating the stream: %w", gerr))
				return nil, 0, nil
			}
			genS = append(genS, g)
			t, err = probe.TraceFleet(s.w, s.seed, at, traced)
		}
		what := "unwrapped internal run"
		if traced {
			what = "traced run"
		}
		if err != nil {
			s.fail(in.Offered(), fmt.Errorf("%s: %w", what, err))
			return nil, 0, nil
		}
		s.same(what, t.Model.Requests(), t.Model.Digest(), t.Executor, !s.w.Mix)
		if traced && (best == nil || t.Seconds < best.Seconds) {
			best = t
		}
		if !traced && (plain == 0 || t.Seconds < plain) {
			plain = t.Seconds
		}
	}
	return best, plain, genS
}

// executorSweep times the fleet once at lockstep, window=1 and
// window=nproc through the facade; all three must reproduce the reference.
func (s *state) executorSweep(ctx context.Context, in *bench.Input) {
	for _, c := range []struct {
		name    string
		workers int
	}{{"cluster.lockstep_s", 0}, {"cluster.window1_s", 1}, {"cluster.windowN_s", bench.Workers()}} {
		x := *in
		x.Fleet.ParWindow = c.workers
		smp, err := bench.Timed(ctx, &x)
		if err != nil {
			s.fail(in.Offered(), fmt.Errorf("%s: %w", c.name, err))
			continue
		}
		s.same(c.name, smp.Out.Requests, smp.Out.Model.Digest(), "", false)
		s.set(c.name, smp.Seconds)
	}
}

// probe runs the admission and substrate probes on the workload's own apps.
func (s *state) probe(in *bench.Input) (*probe.Substrate, error) {
	if s.w.Mix {
		k := &in.Batches[0].Mixes[0].Apps[0].Trace().Kernels[0]
		return probe.ProbeSubstrate(nil, nil, nil, k, s.seed, 0, primitiveProbeN)
	}
	at, _, err := probe.FleetTrace(s.seed)
	if err != nil {
		return nil, err
	}
	pol, mech, err := probe.Factories(in.Fleet.Policy, in.Fleet.Mechanism)
	if err != nil {
		return nil, err
	}
	return probe.ProbeSubstrate(at, pol, mech, &at.Apps[0].Kernels[0], s.seed, admitProbeN, primitiveProbeN)
}

// ladderRow is one line of the cost ladder, per request.
type ladderRow struct {
	name, source string
	ns, allocs   float64 // allocs < 0: not measured
	indent       bool
}

// layers derives the per-layer metrics and prints the cost ladder.
func (s *state) layers(tr *probe.Traced, sub *probe.Substrate, ref *refRun) {
	req := float64(tr.Model.Requests())
	per := func(x float64) float64 { return x / req }
	L := tr.Layers
	pick, disp, pol, pre, obs := L[probe.LayerPick], L[probe.LayerHooks], L[probe.LayerPolicy], L[probe.LayerPreempt], L[probe.LayerObserve]
	wallNS := tr.Seconds * 1e9

	s.set("policy.calls_per_request", per(float64(pol.Calls)))
	s.set("policy.call_ns", pol.SelfPerCall())
	s.set("policy.share", float64(pol.Self)/wallNS)
	s.set("preempt.calls_per_request", per(float64(pre.Calls)))
	s.set("preempt.call_ns", pre.SelfPerCall())
	s.set("preempt.observe_ns", obs.SelfPerCall())
	s.set("core.tbs_per_request", per(float64(tr.TBs)))
	s.set("core.preemptions_per_request", per(float64(tr.Preemptions)))
	s.set("core.context_saved_bytes", per(float64(tr.SavedBytes)))
	s.set("core.host_ns_per_tb", ref.wallNS*req/float64(tr.TBs))
	s.set("sim.events_per_request", per(float64(tr.Events)))
	if tr.Events > 0 {
		s.set("sim.host_ns_per_event", ref.wallNS*req/float64(tr.Events))
	}
	if pre.Calls == 0 {
		s.notApplicable("no preemptions: fleet apps are scaled to minimal thread blocks", "preempt.call_ns")
	}

	if s.w.Mix {
		s.notApplicable("paper-mix has no cluster, dispatcher or lifecycle manager",
			"cluster.lockstep_s", "cluster.window1_s", "cluster.windowN_s", "cluster.parallel_window",
			"cluster.unattributed_ns_per_request", "cluster.kills", "cluster.lost",
			"dispatch.picks_per_request", "dispatch.pick_ns", "dispatch.share",
			"resilience.retries", "resilience.hedges", "resilience.timeouts", "resilience.breaker_trips",
			"resilience.dropped", "resilience.shed")
		s.notApplicable("paper-mix admits no requests: each process is created once and replays its app",
			"arrivals.admit_ns", "arrivals.admit_allocs", "arrivals.admit_bytes", "arrivals.generate_s")
		s.notApplicable("fleet-only model output", "model.rt_p99_us", "model.rt_miss_rate", "model.goodput_per_s")
	} else {
		f := tr.Model.Fleet
		s.set("dispatch.picks_per_request", per(float64(pick.Calls)))
		s.set("dispatch.pick_ns", pick.SelfPerCall())
		s.set("dispatch.share", float64(pick.Self+disp.Self)/wallNS)
		s.set("cluster.kills", float64(f.Kills))
		s.set("cluster.lost", float64(f.Lost))
		s.set("resilience.retries", float64(f.Retries))
		s.set("resilience.hedges", float64(f.Hedges))
		s.set("resilience.timeouts", float64(f.TimedOut))
		s.set("resilience.breaker_trips", float64(f.BreakerTrips))
		s.set("resilience.dropped", float64(f.Dropped))
		s.set("resilience.shed", float64(f.Shed))
		if ref.executor == repro.ExecutorParallelWindow {
			s.set("cluster.parallel_window", 1)
		}
		s.notApplicable("paper-mix-only model output", "model.antt", "model.stp", "model.fairness")
		if !s.w.Resilient {
			s.notApplicable("lifecycle manager not armed on this workload",
				"resilience.retries", "resilience.hedges", "resilience.timeouts", "resilience.breaker_trips",
				"resilience.dropped", "resilience.shed")
		}
		if s.w.KillRate == 0 {
			s.notApplicable("no fault injection on this workload", "cluster.kills", "cluster.lost")
		}
	}
	if sub == nil {
		return
	}
	s.set("gpu.ctx_ns", sub.Ctx.NS)
	s.set("mmu.map_ns", sub.Map.NS)
	s.set("mmu.map_bytes", sub.Map.Bytes)
	s.set("gmem.alloc_free_ns", sub.AllocFree.NS)
	s.set("sim.probe_event_ns", sub.Event.NS)
	s.set("metrics.sketch_add_ns", sub.SketchAdd.NS)

	// The cost ladder: CPU per request of the untraced call against the
	// layers' self time and the probes' cost times per-request counts.
	kernels := per(float64(tr.Kernels))
	events := per(float64(tr.Events))
	self := func(name string, st probe.Stat, indent bool) ladderRow {
		return ladderRow{indent: indent, name: name, ns: per(float64(st.Self)), allocs: -1,
			source: fmt.Sprintf("self %.0f ns x %.2f calls", st.SelfPerCall(), per(float64(st.Calls)))}
	}
	probed := func(name string, c probe.Cost, n float64, what string, indent bool) ladderRow {
		return ladderRow{indent: indent, name: name, ns: c.NS * n, allocs: c.Allocs * n,
			source: fmt.Sprintf("probe %.1f ns x %.2f %s", c.NS, n, what)}
	}
	rows := []ladderRow{{name: "gc (runtime)", source: "measured GC CPU", ns: ref.gcNS, allocs: -1}}
	if s.w.Mix {
		rows = append(rows,
			self("policy", pol, false),
			self("preempt", pre, false),
			self("predict observe", obs, false),
			probed("sim events", sub.Event, events, "events", false),
			probed("save area map (mmu)", sub.Map, kernels, "kernels", false),
			probed("save area alloc/free (gmem)", sub.AllocFree, kernels, "kernels", false),
		)
	} else {
		adm := per(float64(tr.Admissions))
		s.set("arrivals.admit_ns", sub.Admit.NS)
		s.set("arrivals.admit_allocs", sub.Admit.Allocs)
		s.set("arrivals.admit_bytes", sub.Admit.Bytes)
		rows = append(rows,
			self("dispatch (Pick + hooks)", probe.Stat{Calls: pick.Calls, Self: pick.Self + disp.Self}, false),
			probed("node request cycle", sub.Admit, adm, "admissions", false),
			self("policy", pol, true),
			self("preempt", pre, true),
			self("predict observe", obs, true),
			probed("gpu context create+destroy", sub.Ctx, adm, "admissions", true),
			probed("save area map (mmu)", sub.Map, kernels, "kernels", true),
			probed("save area alloc/free (gmem)", sub.AllocFree, kernels, "kernels", true),
			probed("sketch adds", sub.SketchAdd, 2, "per completion", true),
			probed("sim events", sub.Event, events, "events", true),
		)
	}
	var sumNS, sumAllocs float64
	for _, r := range rows {
		if !r.indent {
			sumNS += r.ns
			if r.allocs > 0 {
				sumAllocs += r.allocs
			}
		}
	}
	un := ref.cpuNS - sumNS
	if !s.w.Mix {
		s.set("cluster.unattributed_ns_per_request", un)
	}
	printLadder(os.Stdout, s.w.Name, ref, rows, un, ref.allocs-sumAllocs)
}

func printLadder(out io.Writer, name string, ref *refRun, rows []ladderRow, unNS, unAllocs float64) {
	fmt.Fprintf(out, "# cost ladder %s, per request (e2e: untraced facade call, %d workers)\n", name, bench.Workers())
	fmt.Fprintf(out, "#   %-40s %12s %10s  %s\n", "row", "ns", "allocs", "source")
	fmt.Fprintf(out, "#   %-40s %12.1f %10.2f  %s\n", "e2e wall", ref.wallNS, ref.allocs, "median call")
	fmt.Fprintf(out, "#   %-40s %12.1f %10s  %s\n", "e2e cpu (all threads)", ref.cpuNS, "", "getrusage")
	for _, r := range rows {
		label := r.name
		if r.indent {
			label = "  of which " + label
		}
		allocs := "-"
		if r.allocs >= 0 {
			allocs = fmt.Sprintf("%.2f", r.allocs)
		}
		fmt.Fprintf(out, "#   %-40s %12.1f %10s  %s\n", label, r.ns, allocs, r.source)
	}
	fmt.Fprintf(out, "#   %-40s %12.1f %10.2f  %s\n", "unattributed", unNS, unAllocs, "e2e cpu - sum of top-level rows")
}

// writeSpans writes the traced run's kept spans under the build directory.
func writeSpans(workload string, spans map[int][]probe.Span) error {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := probe.WriteSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints provenance, the reasons behind inapplicable metrics and any
// errors, then the result line.
func report(s *state, tr *probe.Traced, ref *refRun) int {
	s.set("host.max_rss_mb", bench.MaxRSSMB())
	fmt.Println(bench.Provenance(s.w, s.seed, ref.executor, ref.calls))
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	var na []string
	rep := bench.Report{Metrics: map[string]bench.Metric{}}
	for _, n := range names {
		if why, ok := s.na[n]; ok {
			na = append(na, fmt.Sprintf("%s (%s)", n, why))
		}
		v := s.vals[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			s.fail(0, fmt.Errorf("%s is not a finite number", n))
			v = 0
		}
		rep.Metrics[n] = bench.Metric{Value: v, Unit: units[n]}
	}
	if len(na) > 0 {
		fmt.Printf("# not applicable, reported as 0: %s\n", strings.Join(na, "; "))
	}
	for _, err := range s.errs {
		fmt.Fprintln(os.Stderr, "traced:", err)
	}
	rep.Correct = len(s.errs) == 0 && tr != nil
	rep.Attempted, rep.Failed = s.tried, s.failed
	if rep.Attempted < 1 {
		rep.Attempted = 1
	}
	if err := rep.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		return 1
	}
	return 0
}
