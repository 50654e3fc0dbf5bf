// Command gpusim simulates one multiprogrammed GPU workload and prints the
// paper's metrics (NTT per application, ANTT, STP, fairness). With -reps N
// it simulates N replicas of the workload under derived seeds concurrently
// (-parallel workers) and reports the per-replica metrics plus their mean,
// which quantifies seed sensitivity.
//
// With -arrivals the simulation becomes an open system: instead of the apps
// looping forever, requests arrive continuously (a synthetic Poisson, bursty
// or heavy-tailed stream over the apps, or a replayed JSON arrival trace),
// each admitting a fresh process that is retired on completion, and the
// report shows per-class percentile latencies, deadline-miss rates and
// goodput.
//
// With -gpus N (N > 1) the open system becomes a fleet: N identical GPUs
// behind the -dispatch placement policy (round-robin, join-shortest-queue,
// predicted-backlog least-loaded, class-affinity, or seeded
// power-of-two-choices), and the report adds each GPU's share of the work.
// Fleet output is byte-identical across runs, executors and worker counts.
// -cluster loads the same topology from JSON.
//
// Examples:
//
//	gpusim -apps spmv,lbm,mri-gridding -policy dss -mech context-switch -hp 0
//	gpusim -apps spmv,sgemm -policy dss -reps 8 -parallel 4
//	gpusim -apps spmv,lbm -hp 0 -policy ppq -mech adaptive -scale 48 -arrivals poisson -rate 20000
//	gpusim -apps spmv,lbm -scale 48 -arrivals stream.json   # replay a saved stream
//	gpusim -apps spmv,lbm -hp 0 -scale 48 -arrivals poisson -rate 60000 -gpus 4 -dispatch jsq
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/profiling"
)

// dispatchNames joins the supported cluster dispatch policies for flag help
// and errors, so a new policy reaches both automatically.
func dispatchNames() string {
	var names []string
	for _, k := range repro.DispatchKinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, "|")
}

func main() {
	var (
		appsFlag = flag.String("apps", "spmv,sgemm", "comma-separated benchmark names (see -list)")
		policy   = flag.String("policy", "fcfs", "scheduling policy: fcfs|npq|ppq|ppq-shared|dss|timeslice")
		mech     = flag.String("mech", "", "preemption mechanism: context-switch|drain|flush|adaptive|none (default per policy)")
		hp       = flag.Int("hp", -1, "index of the high-priority application (-1 = none)")
		runs     = flag.Int("runs", 3, "completed runs required per application")
		seed     = flag.Uint64("seed", 1, "random seed")
		scale    = flag.Int("scale", 1, "scale factor to shrink benchmarks (1 = paper-faithful)")
		jitter   = flag.Float64("jitter", 0.30, "thread-block time variability (0-1)")
		timeline = flag.Bool("timeline", false, "print an ASCII SM timeline")
		list     = flag.Bool("list", false, "list available benchmarks and exit")
		prioDMA  = flag.Bool("priority-dma", false, "priority scheduling on the transfer engine")
		arrFlag  = flag.String("arrivals", "", "open-system mode: poisson|bursty|heavytail, or a path to an arrival-trace JSON")
		rate     = flag.Float64("rate", 20000, "open-system offered load in requests per second")
		horizon  = flag.Duration("horizon", 5*time.Millisecond, "open-system arrival injection window")
		deadline = flag.Duration("deadline", 2*time.Millisecond, "completion deadline of the high-priority class (0 = none)")
		arrOut   = flag.String("arrivals-out", "", "write the (generated or replayed) arrival stream to this JSON file")
		phasesF  = flag.String("phases", "", "arrival-rate phases as factor:duration pairs, e.g. 0.3:1ms,2.2:500us,0.3:1ms (cycles until the horizon; empty = constant rate)")
		gpus     = flag.Int("gpus", 1, "number of simulated GPUs; with -arrivals >1 runs the fleet behind -dispatch")
		dispatch = flag.String("dispatch", "round-robin", "cluster dispatch policy: "+dispatchNames())
		clusterF = flag.String("cluster", "", "cluster topology JSON file; the fields it carries override -gpus/-dispatch")
		ascale   = flag.String("autoscale", "", "autoscale the fleet between min:max GPUs (e.g. -autoscale 2:8)")
		asHigh   = flag.Int("as-high", 4, "autoscale up when fleet in-flight exceeds this per Up GPU")
		asLow    = flag.Int("as-low", 1, "autoscale down when fleet in-flight falls below this per Up GPU")
		asIval   = flag.Duration("as-interval", 250*time.Microsecond, "autoscaler decision period")
		timeoutF = flag.Duration("timeout", 0, "resilience: per-attempt deadline; expired attempts retry or drop (0 = off)")
		retriesF = flag.Int("retries", 0, "resilience: attempts per request with seeded exponential backoff (0 = no retries)")
		budgetF  = flag.String("retry-budget", "", "resilience: retry token bucket as tokens:ratio, e.g. 10:0.1 (needs -retries)")
		hedgeF   = flag.String("hedge", "", "resilience: hedge slow attempts at this latency quantile, e.g. 0.95 or 0.95:16 (quantile[:warmup])")
		breakerF = flag.String("breaker", "", "resilience: per-GPU circuit breaker as error-rate[:window], e.g. 0.5 or 0.5:500us")
		shedF    = flag.String("shed", "", "resilience: admission control as per-gpu:queue bounds, e.g. 8:32")
		killRate = flag.Float64("kill-rate", 0, "fault injection: mean GPU kills per simulated second")
		downtime = flag.Duration("downtime", 500*time.Microsecond, "fault injection: how long a killed GPU stays down")
		straggle = flag.Float64("straggler", 0, "fault injection: probability each GPU incarnation is a straggler")
		slowF    = flag.Float64("slow-factor", 2, "fault injection: straggler service-time multiplier")
		hbmF     = flag.String("hbm", "", "per-GPU device-memory capacity, e.g. 512MiB or 4GiB (default: the GPU spec's); admitted working sets are charged against it and oversubscription blocks admission")
		swapF    = flag.Bool("swap", false, "swap oversubscribed contexts to host memory over PCIe instead of blocking admission (needs request working sets; see -hbm)")
		parWin   = flag.Int("par-window", 0, "cluster runs: execute GPU engines in parallel-in-time windows on this many workers, for round-robin dispatch without resilience flags (0 = lockstep; output is byte-identical either way)")
		warmup   = flag.Duration("warm-start", 0, "cluster runs: play a warmup stream of this duration first and carry the dispatcher's learned state into the measured run")
		reps     = flag.Int("reps", 1, "simulate this many replicas of the workload under derived seeds")
		parallel = flag.Int("parallel", runtime.NumCPU(), "concurrent replica simulations")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()

	// Reject out-of-range numeric flags up front with a clear message: a
	// non-positive rate or horizon would synthesize an empty stream (or spin
	// forever), zero GPUs has no machine to simulate, and a negative kill
	// rate or worker count has no meaning.
	if *gpus < 1 {
		fatal(fmt.Errorf("-gpus must be at least 1, got %d", *gpus))
	}
	if *rate <= 0 {
		fatal(fmt.Errorf("-rate must be positive (requests per simulated second), got %g", *rate))
	}
	if *horizon <= 0 {
		fatal(fmt.Errorf("-horizon must be positive, got %v", *horizon))
	}
	if *killRate < 0 {
		fatal(fmt.Errorf("-kill-rate must be non-negative, got %g", *killRate))
	}
	if *parWin < 0 {
		fatal(fmt.Errorf("-par-window must be non-negative, got %d", *parWin))
	}
	var hbmBytes int64
	if *hbmF != "" {
		b, err := parseBytes(*hbmF)
		if err != nil || b <= 0 {
			fatal(fmt.Errorf("-hbm must be a positive size (e.g. 512MiB or 4GiB), got %q", *hbmF))
		}
		hbmBytes = b
	}
	if *warmup < 0 {
		fatal(fmt.Errorf("-warm-start must be non-negative, got %v", *warmup))
	}

	var err error
	stopProf, err = profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "gpusim:", err)
		}
	}()

	if *list {
		for _, n := range repro.Names() {
			a, _ := repro.AppByName(n)
			fmt.Printf("%-14s kernels:%-7s app:%s\n", n, a.KernelClass(), a.AppClass())
		}
		return
	}

	var apps []*repro.App
	for _, name := range strings.Split(*appsFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, err := repro.AppByName(name)
		if err != nil {
			fatal(err)
		}
		if *scale > 1 {
			a = a.Scale(*scale)
		}
		apps = append(apps, a)
	}
	if len(apps) == 0 {
		fatal(fmt.Errorf("no applications given"))
	}

	opts := repro.Options{
		Policy:         repro.PolicyKind(*policy),
		Mechanism:      repro.MechanismKind(*mech),
		MinRuns:        *runs,
		Seed:           *seed,
		Jitter:         *jitter,
		RecordTimeline: *timeline,
		PriorityDMA:    *prioDMA,
		Parallel:       *parallel,
	}
	opts.Nodes = *gpus
	opts.Dispatch = repro.DispatchKind(*dispatch)
	opts.ParWindow = *parWin
	opts.WarmStart = *warmup
	opts.HBM = hbmBytes
	opts.Swap = *swapF
	// Validate the policy name up front: a typo should fail identically
	// whether or not this run's fleet size makes the dispatcher matter.
	known := false
	for _, k := range repro.DispatchKinds() {
		if opts.Dispatch == k {
			known = true
			break
		}
	}
	if !known {
		fatal(fmt.Errorf("unknown -dispatch policy %q (use %s)", *dispatch, dispatchNames()))
	}
	if *clusterF != "" {
		f, err := os.Open(*clusterF)
		if err != nil {
			fatal(err)
		}
		opts, err = repro.ReadClusterTopology(f, opts)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if *ascale != "" {
		var lo, hi int
		if _, err := fmt.Sscanf(*ascale, "%d:%d", &lo, &hi); err != nil || lo < 1 || hi < lo {
			fatal(fmt.Errorf("-autoscale wants min:max with 1 <= min <= max, got %q", *ascale))
		}
		opts.Autoscale = &repro.AutoscalePolicy{
			Interval:    *asIval,
			Min:         lo,
			Max:         hi,
			HighBacklog: *asHigh,
			LowBacklog:  *asLow,
		}
	}
	if *killRate > 0 || *straggle > 0 {
		opts.Faults = &repro.FaultPlan{
			KillRate:      *killRate,
			Downtime:      *downtime,
			StragglerFrac: *straggle,
			SlowFactor:    *slowF,
		}
	}
	if spec := buildResilience(*timeoutF, *retriesF, *budgetF, *hedgeF, *breakerF, *shedF); spec != nil {
		opts.Resilience = spec
	}
	if isFleet(opts) && *arrFlag == "" {
		fatal(fmt.Errorf("a fleet (-gpus/-autoscale/-kill-rate/-timeout/-retries/-hbm/-swap) needs -arrivals: the cluster layer serves open request streams"))
	}
	if *arrFlag != "" {
		if *timeline || *reps > 1 {
			fatal(fmt.Errorf("-arrivals is not compatible with -timeline or -reps"))
		}
		// The deadline default belongs to the high-priority class; without
		// -hp there is a single best-effort class, which gets a deadline
		// only when the user explicitly asked for one.
		deadlineSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "deadline" {
				deadlineSet = true
			}
		})
		if (*hp < 0 || *hp >= len(apps)) && !deadlineSet {
			*deadline = 0
		}
		runOpen(apps, *hp, *arrFlag, *rate, *horizon, *deadline, *arrOut, parsePhases(*phasesF), opts)
		return
	}
	if *reps > 1 {
		if *timeline {
			fatal(fmt.Errorf("-timeline is not supported with -reps > 1 (run a single replica to render a timeline)"))
		}
		runReplicas(apps, *hp, *reps, opts)
		return
	}
	res, err := repro.Run(repro.Workload{Apps: apps, HighPriority: *hp}, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("policy=%s mechanism=%s apps=%d seed=%d\n", *policy, orDefault(*mech, "auto"), len(apps), *seed)
	fmt.Printf("simulated time: %v   completed: %v   utilization: %.1f%%   preemptions: %d   ctx saved: %s   wasted: %v\n\n",
		res.EndTime, res.Completed, res.Utilization*100, res.Preemptions, bytesHuman(res.ContextSavedBytes), res.WastedWork)
	fmt.Printf("%-14s %5s  %14s  %14s  %8s  %s\n", "app", "runs", "turnaround", "isolated", "NTT", "flags")
	for _, a := range res.Apps {
		flags := ""
		if a.HighPriority {
			flags += "high-priority "
		}
		if a.Starved {
			flags += "STARVED"
		}
		fmt.Printf("%-14s %5d  %14v  %14v  %8.2f  %s\n", a.Name, a.Runs, a.Turnaround, a.Isolated, a.NTT, flags)
	}
	fmt.Printf("\nANTT=%.3f  STP=%.3f  fairness=%.3f\n", res.ANTT, res.STP, res.Fairness)

	if *timeline {
		fmt.Println()
		fmt.Print(repro.RenderTimeline(res.Timeline, 13, 120))
	}
}

// runOpen simulates an open-system arrival workload over the given apps:
// either a synthetic stream (mode names the inter-arrival process) or a
// replayed arrival-trace file. With -hp set, apps[hp] forms a high-priority
// "rt" class carrying the -deadline budget and the remaining apps the
// best-effort "batch" class; without it every app joins one "open" class.
func runOpen(apps []*repro.App, hp int, mode string, rate float64, horizon, deadline time.Duration, outPath string, phases []repro.ArrivalPhase, opts repro.Options) {
	spec := &repro.ArrivalSpec{Rate: rate, Horizon: horizon, Phases: phases}
	switch mode {
	case "poisson", "bursty", "heavytail":
		spec.Process = repro.ArrivalProcess(mode)
		if hp >= 0 && hp < len(apps) {
			rest := make([]*repro.App, 0, len(apps)-1)
			rest = append(rest, apps[:hp]...)
			rest = append(rest, apps[hp+1:]...)
			if len(rest) == 0 {
				rest = apps
			}
			spec.Classes = []repro.ArrivalClass{
				{Name: "rt", Priority: 1, Weight: 1, Deadline: deadline, Apps: []*repro.App{apps[hp]}},
				{Name: "batch", Priority: 0, Weight: 3, Apps: rest},
			}
		} else {
			spec.Classes = []repro.ArrivalClass{
				{Name: "open", Priority: 0, Weight: 1, Deadline: deadline, Apps: apps},
			}
		}
	default:
		f, err := os.Open(mode)
		if err != nil {
			fatal(fmt.Errorf("-arrivals %q is neither a process name (poisson|bursty|heavytail) nor a readable trace: %w", mode, err))
		}
		tr, err := repro.ReadArrivals(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		spec.Trace = tr
	}
	opts.Arrivals = spec

	if outPath != "" {
		tr, err := spec.Synthesize(opts)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d arrivals to %s\n", tr.Len(), outPath)
	}

	if isFleet(opts) {
		runCluster(mode, opts)
		return
	}
	res, err := repro.RunOpen(opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("open system: policy=%s mechanism=%s arrivals=%s seed=%d\n",
		opts.Policy, orDefault(string(opts.Mechanism), "auto"), mode, opts.Seed)
	fmt.Printf("simulated time: %v   admitted: %d   completed: %d   in-flight: %d   utilization: %.1f%%   preemptions: %d\n\n",
		res.EndTime, res.Admitted, res.Completed, res.InFlight, res.Utilization*100, res.Preemptions)
	printClassTable(res.Classes, res.Goodput)
}

// printClassTable prints the per-class SLO table and goodput footer shared
// by the open-system and cluster reports.
func printClassTable(classes []repro.ClassReport, goodput float64) {
	fmt.Printf("%-8s %9s %6s %8s %12s %12s %12s %12s %10s\n",
		"class", "admitted", "done", "inflight", "wait-p95", "lat-p50", "lat-p95", "lat-p99", "miss-rate")
	for _, c := range classes {
		fmt.Printf("%-8s %9d %6d %8d %12v %12v %12v %12v %10.3f\n",
			c.Name, c.Admitted, c.Completed, c.InFlight, c.WaitP95, c.LatencyP50, c.LatencyP95, c.LatencyP99, c.MissRate)
	}
	fmt.Printf("\ngoodput=%.0f req/s (SLO-compliant completions per simulated second)\n", goodput)
}

// buildResilience assembles the request-lifecycle spec from the resilience
// flags, or returns nil when none was given so the zero-config path stays on
// the plain fleet code. Policies left partially specified are completed by
// the library's per-policy defaults.
func buildResilience(timeout time.Duration, retries int, budget, hedge, breaker, shed string) *repro.ResilienceSpec {
	if timeout == 0 && retries == 0 && budget == "" && hedge == "" && breaker == "" && shed == "" {
		return nil
	}
	s := &repro.ResilienceSpec{Timeout: timeout}
	if budget != "" && retries == 0 {
		fatal(fmt.Errorf("-retry-budget needs -retries to arm the retry policy"))
	}
	if retries > 0 {
		s.Retry = &repro.RetryPolicy{MaxAttempts: retries, BackoffBase: 20 * time.Microsecond}
		if budget != "" {
			var tokens, ratio float64
			if _, err := fmt.Sscanf(budget, "%f:%f", &tokens, &ratio); err != nil || tokens <= 0 || ratio <= 0 {
				fatal(fmt.Errorf("-retry-budget wants tokens:ratio (both positive), got %q", budget))
			}
			s.Retry.Budget = &repro.RetryBudget{Tokens: tokens, Ratio: ratio}
		}
	}
	if hedge != "" {
		q, warm, hasWarm := strings.Cut(hedge, ":")
		h := &repro.HedgePolicy{}
		var err error
		if h.Quantile, err = strconv.ParseFloat(q, 64); err != nil || h.Quantile <= 0 || h.Quantile >= 1 {
			fatal(fmt.Errorf("-hedge wants quantile[:warmup] with quantile in (0, 1), got %q", hedge))
		}
		if hasWarm {
			if h.MinObs, err = strconv.Atoi(warm); err != nil || h.MinObs < 1 {
				fatal(fmt.Errorf("-hedge %q: bad warmup count", hedge))
			}
		}
		s.Hedge = h
	}
	if breaker != "" {
		rate, win, hasWin := strings.Cut(breaker, ":")
		b := &repro.BreakerPolicy{}
		var err error
		if b.ErrorRate, err = strconv.ParseFloat(rate, 64); err != nil || b.ErrorRate <= 0 || b.ErrorRate > 1 {
			fatal(fmt.Errorf("-breaker wants error-rate[:window] with rate in (0, 1], got %q", breaker))
		}
		if hasWin {
			if b.Window, err = time.ParseDuration(win); err != nil || b.Window <= 0 {
				fatal(fmt.Errorf("-breaker %q: bad rolling window", breaker))
			}
		}
		s.Breaker = b
	}
	if shed != "" {
		p := &repro.ShedPolicy{}
		if _, err := fmt.Sscanf(shed, "%d:%d", &p.PerNode, &p.Queue); err != nil || p.PerNode < 1 || p.Queue < 0 {
			fatal(fmt.Errorf("-shed wants per-gpu:queue bounds, got %q", shed))
		}
		s.Shed = p
	}
	return s
}

// isFleet reports whether the options describe a fleet run (RunCluster)
// rather than a single open-system GPU (RunOpen).
func isFleet(o repro.Options) bool {
	return o.Nodes > 1 || len(o.NodeTypes) > 0 || o.Autoscale != nil || o.Faults != nil ||
		o.Resilience != nil || o.HBM > 0 || o.Swap
}

// runCluster simulates the open-system stream on a fleet of GPUs behind the
// configured dispatch policy and prints the fleet rollup plus each GPU's
// share of the work.
func runCluster(mode string, opts repro.Options) {
	res, err := repro.RunCluster(opts)
	if err != nil {
		fatal(err)
	}
	if opts.ParWindow > 0 && res.Executor == repro.ExecutorLockstep {
		// On stderr so the report itself stays byte-identical across
		// -par-window values, which the executors guarantee for the numbers.
		fmt.Fprintf(os.Stderr, "note: -par-window %d requested but the run executed in lockstep: "+
			"-par-window applies to round-robin dispatch without resilience flags\n", opts.ParWindow)
	}
	fmt.Printf("cluster: gpus=%d dispatch=%s policy=%s mechanism=%s arrivals=%s seed=%d",
		len(res.Nodes), res.Dispatch, opts.Policy, orDefault(string(opts.Mechanism), "auto"), mode, opts.Seed)
	if res.Autoscale != "" {
		fmt.Printf(" autoscale=%s", res.Autoscale)
	}
	fmt.Println()
	fmt.Printf("simulated time: %v   admitted: %d   completed: %d   in-flight: %d   lost: %d   mean utilization: %.1f%%   preemptions: %d\n",
		res.EndTime, res.Admitted, res.Completed, res.InFlight, res.Lost, res.Utilization*100, res.Preemptions)
	fmt.Printf("fleet: node-seconds: %.6f   scale-ups: %d   drains: %d   kills: %d   restarts: %d   lost work: %v\n",
		res.NodeSeconds, res.ScaleUps, res.Drains, res.Kills, res.Restarts, res.LostWork)
	if res.Spills > 0 || res.SwapOutBytes > 0 {
		fmt.Printf("memory: spills: %d   swap-ins: %d   swapped out: %s   swapped in: %s   lost to kills: %s\n",
			res.Spills, res.SwapIns, bytesHuman(res.SwapOutBytes), bytesHuman(res.SwapInBytes), bytesHuman(res.SwapLostBytes))
	}
	if res.Requests > 0 {
		fmt.Printf("lifecycle: requests: %d   completed: %d   dropped: %d   shed: %d   in-flight: %d\n",
			res.Requests, res.ReqCompleted, res.Dropped, res.Shed, res.ReqInFlight)
		fmt.Printf("attempts: timeouts: %d   retries: %d   hedges: %d   canceled: %d   rejected: %d   breaker trips: %d\n",
			res.TimedOut, res.Retries, res.Hedges, res.Canceled, res.Rejected, res.BreakerTrips)
	}
	fmt.Println()
	fmt.Printf("%-6s %-9s %9s %6s %8s %6s %8s %7s %12s %12s\n",
		"gpu", "state", "admitted", "done", "inflight", "lost", "missed", "incarn", "uptime", "utilization")
	for _, n := range res.Nodes {
		fmt.Printf("%-6d %-9s %9d %6d %8d %6d %8d %7d %12v %11.1f%%\n",
			n.Node, n.State, n.Admitted, n.Completed, n.InFlight, n.Lost, n.Missed, n.Incarnations, n.UpTime, n.Utilization*100)
	}
	fmt.Println()
	printClassTable(res.Classes, res.Goodput)
}

// runReplicas simulates reps copies of the workload concurrently, each with
// a seed derived from the base seed and the replica index, and prints the
// per-replica multiprogram metrics plus their mean.
func runReplicas(apps []*repro.App, hp, reps int, opts repro.Options) {
	ws := make([]repro.Workload, reps)
	for i := range ws {
		ws[i] = repro.Workload{Apps: apps, HighPriority: hp}
	}
	opts.OnProgress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\rsimulated %d/%d replicas", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	results, err := repro.RunMany(context.Background(), ws, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("policy=%s mechanism=%s apps=%d reps=%d parallel=%d base seed=%d\n\n",
		opts.Policy, orDefault(string(opts.Mechanism), "auto"), len(apps), reps, opts.Parallel, opts.Seed)
	fmt.Printf("%-8s %9s %9s %10s %12s %12s\n", "replica", "ANTT", "STP", "fairness", "end", "completed")
	var antt, stp, fair float64
	for i, r := range results {
		fmt.Printf("%-8d %9.3f %9.3f %10.3f %12v %12v\n", i, r.ANTT, r.STP, r.Fairness, r.EndTime, r.Completed)
		antt += r.ANTT
		stp += r.STP
		fair += r.Fairness
	}
	n := float64(len(results))
	fmt.Printf("%-8s %9.3f %9.3f %10.3f\n", "mean", antt/n, stp/n, fair/n)
}

// parsePhases parses the -phases flag: comma-separated factor:duration
// pairs, each scaling the base arrival rate for its duration, cycling.
func parsePhases(s string) []repro.ArrivalPhase {
	if s == "" {
		return nil
	}
	var out []repro.ArrivalPhase
	for _, part := range strings.Split(s, ",") {
		factor, dur, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			fatal(fmt.Errorf("-phases wants factor:duration pairs, got %q", part))
		}
		f, err := strconv.ParseFloat(factor, 64)
		if err != nil {
			fatal(fmt.Errorf("-phases %q: bad rate factor: %w", part, err))
		}
		d, err := time.ParseDuration(dur)
		if err != nil {
			fatal(fmt.Errorf("-phases %q: bad duration: %w", part, err))
		}
		out = append(out, repro.ArrivalPhase{RateFactor: f, Duration: d})
	}
	return out
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// parseBytes parses a byte size with an optional binary suffix: "512MiB",
// "4GiB", "65536" (plain bytes).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	return int64(v * float64(mult)), nil
}

func bytesHuman(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// stopProf flushes any active pprof capture; fatal must run it because
// os.Exit skips main's defer.
var stopProf = func() error { return nil }

func fatal(err error) {
	stopProf() //nolint:errcheck // exiting on the original error
	fmt.Fprintln(os.Stderr, "gpusim:", err)
	os.Exit(1)
}
