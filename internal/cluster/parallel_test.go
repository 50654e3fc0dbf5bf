package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/preempt"
	"repro/internal/sim"
)

// TestParallelWindowMatchesLockstep is the property the whole parallel-in-
// time design rests on: a run with Parallel set is byte-identical to the
// lockstep reference at any worker count. It sweeps the chaos grid — every
// dispatch policy (round-robin takes windows, the load-aware ones run
// lockstep), all four preemption mechanisms, kill rates from none through
// aggressive with stragglers on alternating trials, behind an active
// autoscaler — and deep-compares the full Result (counters, per-node
// lifecycles, latency sketches, control-plane tallies) between Parallel = 0
// and a rotating worker count. Run under -race in CI, this doubles as the
// data-race proof for the window fan-out.
func TestParallelWindowMatchesLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos-grid equivalence sweep in -short mode")
	}
	mechs := []struct {
		name string
		mk   func() core.Mechanism
	}{
		{"drain", func() core.Mechanism { return preempt.Drain{} }},
		{"context-switch", func() core.Mechanism { return preempt.ContextSwitch{} }},
		{"flush", func() core.Mechanism { return preempt.Flush{} }},
		{"adaptive", func() core.Mechanism { return preempt.NewAdaptive() }},
	}
	killRates := []float64{0, 1500, 6000}
	workerCounts := []int{1, 4, 8}

	tr := testTrace(t, 40000, 202)

	trial := 0
	for ki, kind := range Kinds() {
		for _, mech := range mechs {
			for _, killRate := range killRates {
				faults := &FaultSpec{KillRate: killRate, Downtime: 300 * sim.Microsecond}
				if trial%2 == 1 {
					faults.StragglerFrac = 0.5
					faults.SlowFactor = 3
				}
				mkRC := func(parallel int) RunConfig {
					d, err := NewDispatcher(kind, uint64(ki+1))
					if err != nil {
						t.Fatal(err)
					}
					asc, err := NewStepAutoscaler(StepConfig{Min: 3, Max: 5, HighBacklog: 6, LowBacklog: 1})
					if err != nil {
						t.Fatal(err)
					}
					rc := testRunConfig(3, d)
					rc.Mechanism = mech.mk
					rc.Autoscale = asc
					rc.Faults = faults
					rc.Parallel = parallel
					return rc
				}

				ref, err := Run(tr, mkRC(0))
				if err != nil {
					t.Fatalf("%s/%s/kill=%g: lockstep: %v", kind, mech.name, killRate, err)
				}
				workers := workerCounts[trial%len(workerCounts)]
				par, err := Run(tr, mkRC(workers))
				if err != nil {
					t.Fatalf("%s/%s/kill=%g: parallel(%d): %v", kind, mech.name, killRate, workers, err)
				}
				if !reflect.DeepEqual(ref, par) {
					t.Errorf("%s/%s/kill=%g: parallel(%d) diverged from lockstep: admitted %d/%d completed %d/%d end %v/%v",
						kind, mech.name, killRate, workers,
						ref.Admitted, par.Admitted, ref.Completed, par.Completed, ref.EndTime, par.EndTime)
				}
				trial++
			}
		}
	}
}

// TestExecutorSelection pins the fleet's one executor rule and its
// contract. Across every dispatcher kind, with and without Parallel, at the
// default and at a zero PCIe dispatch floor, with the resilience layer off
// and on, all under node kills: only round-robin (LoadOblivious) with
// Parallel set and resilience off runs the parallel-window executor, and
// every run deep-equals its lockstep counterpart.
func TestExecutorSelection(t *testing.T) {
	tr := testTrace(t, 40000, 67)
	for ki, kind := range Kinds() {
		for _, zeroFloor := range []bool{false, true} {
			for _, resilient := range []bool{false, true} {
				name := fmt.Sprintf("%s/zero-floor=%v/resilience=%v", kind, zeroFloor, resilient)
				mkRC := func(parallel int) RunConfig {
					d, err := NewDispatcher(kind, uint64(ki+1))
					if err != nil {
						t.Fatal(err)
					}
					rc := testRunConfig(3, d)
					if zeroFloor {
						rc.Sys.PCIe.IssueLatency, rc.Sys.PCIe.BurstOverhead = 0, 0
					}
					if resilient {
						rc.Resilience = resilienceSpec()
					}
					rc.Faults = &FaultSpec{KillRate: 1500, Downtime: 300 * sim.Microsecond}
					rc.Parallel = parallel
					return rc
				}
				var ref *Result
				for _, parallel := range []int{0, 2} {
					c, err := New(tr, mkRC(parallel))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := ExecutorLockstep
					if parallel > 0 && kind == KindRoundRobin && !resilient {
						want = ExecutorParallelWindow
					}
					if got := c.Executor(); got != want {
						t.Errorf("%s: Parallel=%d runs %q, want %q", name, parallel, got, want)
					}
					res, err := c.Run()
					if err != nil {
						t.Fatalf("%s: Parallel=%d: %v", name, parallel, err)
					}
					if ref == nil {
						ref = res
					} else if !reflect.DeepEqual(ref, res) {
						t.Errorf("%s: Parallel=%d diverged from lockstep: completed %d/%d end %v/%v",
							name, parallel, ref.Completed, res.Completed, ref.EndTime, res.EndTime)
					}
				}
			}
		}
	}
}

// TestLookaheadEngages keeps its name from the deleted latency-floor
// lookahead executor and now pins that nothing but the LoadOblivious marker
// engages windows: with Parallel set, a dispatcher runs the parallel-window
// executor iff it declares LoadOblivious, whatever its kind — a Lookahead
// declaration engages nothing, and round-robin with its marker hidden runs
// lockstep.
func TestLookaheadEngages(t *testing.T) {
	tr := testTrace(t, 40000, 63)
	for ki, kind := range Kinds() {
		for _, hidden := range []bool{false, true} {
			d, err := NewDispatcher(kind, uint64(ki+1))
			if err != nil {
				t.Fatal(err)
			}
			if hidden {
				d = plainDispatcher{d}
			}
			_, oblivious := d.(LoadOblivious)
			rc := testRunConfig(3, d)
			rc.Parallel = 2
			c, err := New(tr, rc)
			if err != nil {
				t.Fatal(err)
			}
			want := ExecutorLockstep
			if oblivious {
				want = ExecutorParallelWindow
			}
			if got := c.Executor(); got != want {
				t.Errorf("%s/hidden=%v: executor %q, want %q", kind, hidden, got, want)
			}
			if _, aware := d.(Lookahead); aware && c.Executor() != ExecutorLockstep {
				t.Errorf("%s: a Lookahead declaration engaged %q", kind, c.Executor())
			}
		}
	}
}

// TestParallelHardSyncMatchesLockstep keeps its name from parLoop's deleted
// per-arrival hard sync, the path a dispatcher declaring neither
// LoadOblivious nor Lookahead used to take. Such a dispatcher now runs the
// lockstep reference whatever Parallel says; wrapped jsq and wrapped
// round-robin, under kills, must reproduce their Parallel = 0 runs at every
// worker count.
func TestParallelHardSyncMatchesLockstep(t *testing.T) {
	tr := testTrace(t, 40000, 67)
	for _, kind := range []Kind{KindRoundRobin, KindJSQ} {
		mkRC := func(parallel int) RunConfig {
			d, err := NewDispatcher(kind, 1)
			if err != nil {
				t.Fatal(err)
			}
			rc := testRunConfig(3, plainDispatcher{d})
			rc.Faults = &FaultSpec{KillRate: 1500, Downtime: 300 * sim.Microsecond}
			rc.Parallel = parallel
			return rc
		}
		ref, err := Run(tr, mkRC(0))
		if err != nil {
			t.Fatalf("plain-%s: lockstep: %v", kind, err)
		}
		for _, workers := range []int{1, 4} {
			c, err := New(tr, mkRC(workers))
			if err != nil {
				t.Fatal(err)
			}
			if c.Executor() != ExecutorLockstep {
				t.Fatalf("plain-%s: Parallel=%d runs %q", kind, workers, c.Executor())
			}
			par, err := c.Run()
			if err != nil {
				t.Fatalf("plain-%s: parallel(%d): %v", kind, workers, err)
			}
			if !reflect.DeepEqual(ref, par) {
				t.Errorf("plain-%s: parallel(%d) diverged from lockstep: completed %d/%d end %v/%v",
					kind, workers, ref.Completed, par.Completed, ref.EndTime, par.EndTime)
			}
		}
	}
}

// plainDispatcher hides every optional interface of the dispatcher it wraps.
type plainDispatcher struct{ Dispatcher }

// TestLookaheadMemoryPressureMatchesLockstep pins Parallel runs through the
// memory ledger's hardest regime: a heterogeneous scarce-HBM fleet where
// placements block (or swap) on device memory. Round-robin runs it as
// pre-sharded windows, whose merge-replayed memDemand releases must land
// exactly where lockstep's did; memory-aware and memory-blind load-aware
// dispatch run lockstep. Every kind must reproduce lockstep byte-for-byte
// at every committed worker count, in both oversubscription disciplines.
func TestLookaheadMemoryPressureMatchesLockstep(t *testing.T) {
	tr := memTrace(t, 60000, 64)
	for _, kind := range []Kind{KindRoundRobin, KindLeastLoaded, KindLeastLoadedFits} {
		for _, swap := range []bool{false, true} {
			mkRC := func(parallel int) RunConfig {
				d, err := NewDispatcher(kind, 9)
				if err != nil {
					t.Fatal(err)
				}
				rc := testRunConfig(0, d)
				rc.NodeTypes = []NodeType{
					{Count: 2, HBMBytes: memTestRoomy},
					{Count: 2, HBMBytes: memTestTight},
				}
				rc.Swap = swap
				rc.Parallel = parallel
				return rc
			}
			ref, err := Run(tr, mkRC(0))
			if err != nil {
				t.Fatalf("%s/swap=%v: lockstep: %v", kind, swap, err)
			}
			if !swap && ref.Spills != 0 {
				t.Fatalf("%s: block mode spilled", kind)
			}
			for _, workers := range []int{1, 4, 8} {
				par, err := Run(tr, mkRC(workers))
				if err != nil {
					t.Fatalf("%s/swap=%v: parallel(%d): %v", kind, swap, workers, err)
				}
				if !reflect.DeepEqual(ref, par) {
					t.Errorf("%s/swap=%v: parallel(%d) diverged from lockstep: completed %d/%d spills %d/%d end %v/%v",
						kind, swap, workers, ref.Completed, par.Completed,
						ref.Spills, par.Spills, ref.EndTime, par.EndTime)
				}
			}
		}
	}
}

// TestParallelPreShardMatchesLockstep pins the pre-sharding fast path: a
// fixed round-robin fleet with no control events runs the whole stream as
// one giant window whose arrivals are all batched ahead of execution —
// including the final window, where the exact-stop logic must reproduce
// lockstep's done()-before-every-event termination. Swept at every committed
// worker count and cross-checked at a second arrival rate so both the
// saturated and the sparse window shapes are covered.
func TestParallelPreShardMatchesLockstep(t *testing.T) {
	for _, rate := range []float64{8000, 60000} {
		tr := testTrace(t, rate, 59)
		ref, err := Run(tr, testRunConfig(4, NewRoundRobin()))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := any(NewRoundRobin()).(LoadOblivious); !ok {
			t.Fatal("round-robin lost its LoadOblivious marker; pre-sharding untested")
		}
		for _, workers := range []int{1, 4, 8} {
			rc := testRunConfig(4, NewRoundRobin())
			rc.Parallel = workers
			par, err := Run(tr, rc)
			if err != nil {
				t.Fatalf("parallel(%d): %v", workers, err)
			}
			if !reflect.DeepEqual(ref, par) {
				t.Errorf("rate=%g: pre-sharded parallel(%d) diverged from lockstep: completed %d/%d end %v/%v",
					rate, workers, ref.Completed, par.Completed, ref.EndTime, par.EndTime)
			}
		}
	}
}

// TestParallelResilienceFallsBackToLockstep pins the documented safety
// fallback: with the request-lifecycle manager armed no window is safe, so
// any Parallel value must run the lockstep reference and reproduce it
// exactly — even for round-robin, which would otherwise pre-shard.
func TestParallelResilienceFallsBackToLockstep(t *testing.T) {
	tr := testTrace(t, 40000, 61)
	mkRC := func(parallel int) RunConfig {
		rc := testRunConfig(3, NewRoundRobin())
		rc.Resilience = resilienceSpec()
		rc.Parallel = parallel
		return rc
	}
	ref, err := Run(tr, mkRC(0))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(tr, mkRC(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, par) {
		t.Error("resilient run with Parallel set diverged from lockstep")
	}
}

// TestWarmthRoundTrip exercises the warm-start snapshot: a drained warmup
// run's dispatcher state carries into a fresh run, changes least-loaded's
// early decisions (the predictor no longer starts cold), and stays
// deterministic — two runs warmed from the same snapshot are byte-identical,
// lockstep or windowed. Mismatched policies are rejected.
func TestWarmthRoundTrip(t *testing.T) {
	warmTr := testTrace(t, 40000, 71)
	tr := testTrace(t, 40000, 72)

	warmup, err := New(warmTr, testRunConfig(3, NewLeastLoaded()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warmup.Run(); err != nil {
		t.Fatal(err)
	}
	w, err := warmup.Warmth()
	if err != nil {
		t.Fatal(err)
	}
	if w.Dispatcher != string(KindLeastLoaded) {
		t.Fatalf("warmth dispatcher = %q", w.Dispatcher)
	}
	if w.state == nil {
		t.Fatal("least-loaded warmth carries no estimator state")
	}

	mkRC := func(warm *Warmth, parallel int) RunConfig {
		rc := testRunConfig(3, NewLeastLoaded())
		rc.Warmth = warm
		rc.Parallel = parallel
		return rc
	}
	cold, err := Run(tr, mkRC(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := Run(tr, mkRC(w, 0))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(cold, warmed) {
		t.Error("warm start did not change a least-loaded run (predictor state had no effect)")
	}
	again, err := Run(tr, mkRC(w, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmed, again) {
		t.Error("warm-started run is not deterministic")
	}
	par, err := Run(tr, mkRC(w, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmed, par) {
		t.Error("warm-started parallel run diverged from lockstep")
	}

	// A snapshot can only start the policy it came from.
	if _, err := Run(tr, RunConfig{
		Sys:        testRunConfig(3, NewJSQ()).Sys,
		Nodes:      3,
		Dispatcher: NewJSQ(),
		Policy:     testRunConfig(3, NewJSQ()).Policy,
		Warmth:     w,
	}); err == nil {
		t.Error("jsq run accepted a least-loaded warmth snapshot")
	}

	// An undrained cluster refuses to snapshot.
	undrained, err := New(tr, testRunConfig(3, NewLeastLoaded()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := undrained.Warmth(); err == nil {
		t.Error("undrained cluster produced a warmth snapshot")
	}
}
