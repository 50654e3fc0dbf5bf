package repro

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRunCluster(t *testing.T) {
	o := Options{
		Policy:    PolicyPPQ,
		Mechanism: MechanismAdaptive,
		Seed:      3,
		Arrivals:  openSpec(t),
		Nodes:     3,
		Dispatch:  DispatchJSQ,
	}
	res, err := RunCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Fatal("no requests admitted")
	}
	if res.Admitted != res.Completed+res.InFlight {
		t.Errorf("conservation violated: %d != %d + %d", res.Admitted, res.Completed, res.InFlight)
	}
	if res.Dispatch != DispatchJSQ {
		t.Errorf("dispatch = %q, want jsq", res.Dispatch)
	}
	if len(res.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(res.Nodes))
	}
	var adm, done int
	for _, n := range res.Nodes {
		adm += n.Admitted
		done += n.Completed
		if n.Admitted != n.Completed+n.InFlight {
			t.Errorf("node %d conservation violated", n.Node)
		}
	}
	if adm != res.Admitted || done != res.Completed {
		t.Errorf("node sums (%d/%d) disagree with rollup (%d/%d)", adm, done, res.Admitted, res.Completed)
	}
	if len(res.Classes) != 2 || res.Classes[0].Name != "rt" || res.Classes[1].Name != "batch" {
		t.Fatalf("classes = %+v", res.Classes)
	}

	// Deterministic: an identical run is deeply equal.
	again, err := RunCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("identical cluster runs diverged")
	}
}

// TestRunClusterSingleNodeDefault pins that Nodes 0 means one machine and
// every dispatch policy degenerates gracefully there.
func TestRunClusterSingleNodeDefault(t *testing.T) {
	for _, d := range DispatchKinds() {
		o := Options{Policy: PolicyPPQ, Seed: 3, Arrivals: openSpec(t), Dispatch: d}
		res, err := RunCluster(o)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if len(res.Nodes) != 1 || res.Nodes[0].Admitted != res.Admitted {
			t.Errorf("%s: single-node default did not route everything to node 0", d)
		}
	}
}

// TestRunClusterExecutor pins the executor surfacing: ParWindow selects the
// parallel-window loop, a zero or negative value keeps the lockstep
// reference, Resilience forces the documented lockstep fallback — and the
// reported executor is the only field that may differ between the two.
func TestRunClusterExecutor(t *testing.T) {
	base := Options{
		Policy:    PolicyPPQ,
		Mechanism: MechanismAdaptive,
		Seed:      3,
		Arrivals:  openSpec(t),
		Nodes:     3,
		Dispatch:  DispatchJSQ,
	}
	run := func(mut func(*Options)) *ClusterResult {
		t.Helper()
		o := base
		if mut != nil {
			mut(&o)
		}
		res, err := RunCluster(o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	lock := run(nil)
	if lock.Executor != ExecutorLockstep {
		t.Fatalf("default run reports executor %q, want %q", lock.Executor, ExecutorLockstep)
	}
	par := run(func(o *Options) { o.ParWindow = 4 })
	if par.Executor != ExecutorParallelWindow {
		t.Fatalf("ParWindow=4 run reports executor %q, want %q", par.Executor, ExecutorParallelWindow)
	}
	par.Executor = lock.Executor
	if !reflect.DeepEqual(lock, par) {
		t.Error("parallel-window run differs from lockstep beyond the Executor field")
	}
	neg := run(func(o *Options) { o.ParWindow = -1 })
	if neg.Executor != ExecutorLockstep {
		t.Errorf("negative ParWindow reports executor %q, want lockstep", neg.Executor)
	}
	fallback := run(func(o *Options) {
		o.ParWindow = 4
		o.Resilience = &ResilienceSpec{Timeout: time.Millisecond}
	})
	if fallback.Executor != ExecutorLockstep {
		t.Errorf("ParWindow with Resilience reports executor %q, want the lockstep fallback", fallback.Executor)
	}
}

func TestRunClusterValidation(t *testing.T) {
	if _, err := RunCluster(Options{Policy: PolicyPPQ}); err == nil {
		t.Error("missing Arrivals accepted")
	}
	o := Options{Policy: PolicyPPQ, Arrivals: openSpec(t), Dispatch: "no-such-policy", Nodes: 2}
	if _, err := RunCluster(o); err == nil {
		t.Error("unknown dispatch policy accepted")
	}
	o = Options{Policy: PolicyPPQ, Arrivals: openSpec(t), Nodes: 100000}
	if _, err := RunCluster(o); err == nil {
		t.Error("absurd node count accepted")
	}
	// A positive ContextCapacity is enforced per node: a single slot cannot
	// hold this stream's overlapping requests.
	o = Options{Policy: PolicyPPQ, Arrivals: openSpec(t), Nodes: 1, ContextCapacity: 1}
	if _, err := RunCluster(o); err == nil {
		t.Error("over-admission beyond ContextCapacity accepted")
	}
}

func TestReadClusterTopology(t *testing.T) {
	o, err := ReadClusterTopology(strings.NewReader(`{"nodes": 4, "dispatch": "least-loaded"}`), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if o.Nodes != 4 || o.Dispatch != DispatchLeastLoaded || o.Seed != 9 {
		t.Errorf("topology not applied: %+v", o)
	}
	if o.DispatchSeed != 0 || o.ContextCapacity != 0 {
		t.Errorf("absent topology fields overwrote options: %+v", o)
	}
	o, err = ReadClusterTopology(strings.NewReader(`{"nodes": 2}`), Options{Dispatch: DispatchJSQ})
	if err != nil {
		t.Fatal(err)
	}
	if o.Dispatch != DispatchJSQ {
		t.Errorf("topology without a dispatch field overwrote the preset policy: %+v", o)
	}
	o, err = ReadClusterTopology(
		strings.NewReader(`{"nodes": 2, "dispatch": "p2c", "seed": 42, "context_capacity": 16}`), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if o.DispatchSeed != 42 || o.ContextCapacity != 16 || o.Seed != 9 {
		t.Errorf("topology seed/capacity not applied: %+v", o)
	}
	if _, err := ReadClusterTopology(strings.NewReader(`{"nodes": 0}`), Options{}); err == nil {
		t.Error("invalid topology accepted")
	}
	if _, err := ReadClusterTopology(strings.NewReader(`garbage`), Options{}); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestClusterTopologyMatchesOptions runs a topology that sets every stanza
// twice, read from its JSON file and spelled as Options in Go, and requires
// deep-equal results. Running it must not modify the caller's Options.
func TestClusterTopologyMatchesOptions(t *testing.T) {
	const file = `{
		"nodes": 4,
		"node_types": [{"count": 2, "sms": 8}, {"count": 2, "pcie_gen": 3, "slow_factor": 1.5, "hbm_bytes": 4294967296}],
		"dispatch": "jsq", "seed": 7, "context_capacity": 64,
		"autoscale": {"interval": 200000, "cooldown": 300000, "min": 2, "max": 6, "step": 1, "high_p99": 900000,
			"high_miss": 0.2, "high_backlog": 6, "low_backlog": 1},
		"faults": {"seed": 11, "kill_rate": 1500, "downtime": 300000, "straggler_frac": 0.25, "slow_factor": 3},
		"resilience": {"seed": 5, "timeout": 400000,
			"retry": {"max_attempts": 4, "backoff_base": 20000, "backoff_max": 640000, "jitter_frac": 0.5,
				"budget": {"tokens": 10, "ratio": 0.1}},
			"hedge": {"quantile": 0.9, "min_obs": 16, "max_hedges": 1},
			"breaker": {"window": 500000, "error_rate": 0.5, "min_volume": 8, "cooldown": 250000, "probes": 2},
			"shed": {"per_node": 8, "queue": 32}}
	}`
	arr := openSpec(t)
	base := Options{Policy: PolicyPPQ, Mechanism: MechanismAdaptive, Seed: 3, Arrivals: arr}
	spelled := func() Options {
		o := base
		o.Nodes = 4
		o.NodeTypes = []ClusterNodeType{{Count: 2, SMs: 8}, {Count: 2, PCIeGen: 3, SlowFactor: 1.5, HBMBytes: 4 << 30}}
		o.Dispatch, o.DispatchSeed, o.ContextCapacity = DispatchJSQ, 7, 64
		o.Autoscale = &AutoscalePolicy{
			Interval: 200 * time.Microsecond, Cooldown: 300 * time.Microsecond, Min: 2, Max: 6, Step: 1,
			HighP99: 900 * time.Microsecond, HighMiss: 0.2, HighBacklog: 6, LowBacklog: 1,
		}
		o.Faults = &FaultPlan{Seed: 11, KillRate: 1500, Downtime: 300 * time.Microsecond, StragglerFrac: 0.25, SlowFactor: 3}
		o.Resilience = &ResilienceSpec{
			Seed: 5, Timeout: 400 * time.Microsecond,
			Retry: &RetryPolicy{
				MaxAttempts: 4, BackoffBase: 20 * time.Microsecond, BackoffMax: 640 * time.Microsecond, JitterFrac: 0.5,
				Budget: &RetryBudget{Tokens: 10, Ratio: 0.1},
			},
			Hedge: &HedgePolicy{Quantile: 0.9, MinObs: 16, MaxHedges: 1},
			Breaker: &BreakerPolicy{
				Window: 500 * time.Microsecond, ErrorRate: 0.5, MinVolume: 8, Cooldown: 250 * time.Microsecond, Probes: 2,
			},
			Shed: &ShedPolicy{PerNode: 8, Queue: 32},
		}
		return o
	}

	fromFile, err := ReadClusterTopology(strings.NewReader(file), base)
	if err != nil {
		t.Fatal(err)
	}
	inGo := spelled()
	if !reflect.DeepEqual(fromFile, inGo) {
		t.Fatalf("topology file and Go options differ:\nfile %+v\n  go %+v", fromFile, inGo)
	}
	a, err := RunCluster(fromFile)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCluster(inGo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("topology file and Go options ran differently:\nfile %+v\n  go %+v", a, b)
	}
	if a.Requests == 0 || a.Autoscale == "" || len(a.Nodes) < 4 {
		t.Errorf("the every-stanza run did not arm the fleet: %+v", a)
	}
	if !reflect.DeepEqual(inGo, spelled()) {
		t.Error("RunCluster modified the caller's Options")
	}
}
