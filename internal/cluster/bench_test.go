package cluster

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkClusterDispatch measures a full 4-node cluster run — lockstep
// merge, dispatch, admission, retirement — under each dispatch policy on a
// shared pre-generated stream. The interesting columns are the relative
// cost of the policies (least-loaded recomputes per-app backlogs on every
// pick) and the allocation count of the cluster layer itself.
func BenchmarkClusterDispatch(b *testing.B) {
	tr := testTrace(b, 40000, 17)
	for _, kind := range Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := NewDispatcher(kind, 1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := Run(tr, testRunConfig(4, d))
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed == 0 {
					b.Fatal("benchmark stream completed nothing")
				}
			}
			b.ReportMetric(float64(len(tr.Arrivals)), "requests")
		})
	}
}

// BenchmarkAutoscaleStep measures one autoscaler decision — the per-tick
// cost every elastic run pays on its control engine: threshold checks over
// the fleet snapshot's per-class windows plus the cooldown bookkeeping. It
// must stay allocation-free; the windows are built once by the cluster and
// only read here.
func BenchmarkAutoscaleStep(b *testing.B) {
	asc, err := NewStepAutoscaler(StepConfig{
		Min:         2,
		Max:         8,
		HighP99:     300 * sim.Microsecond,
		HighMiss:    0.1,
		HighBacklog: 4,
		LowBacklog:  1,
	})
	if err != nil {
		b.Fatal(err)
	}
	snap := &FleetSnapshot{
		Up:       4,
		InFlight: 12,
		Window: []ClassWindow{
			{Admitted: 40, Completed: 38, Missed: 2, P99: 280 * sim.Microsecond},
			{Admitted: 120, Completed: 110},
		},
	}
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		// Advance the tick clock and oscillate the backlog so both the
		// cooldown-gated and the acting paths are exercised.
		snap.Now += 250 * sim.Microsecond
		snap.InFlight = 12 + (i%5)*10
		sink += asc.Decide(snap)
	}
	if sink > b.N*8 {
		b.Fatal("implausible decision sum")
	}
}

// BenchmarkFailover measures a full 4-node cluster run under an aggressive
// fault plan — kills, lost-attempt accounting, re-dispatch of the victim's
// in-flight requests, and restarts as fresh incarnations — on a shared
// pre-generated stream. The delta against the fault-free
// BenchmarkLockstepMerge/nodes=4 is the chaos machinery's overhead.
func BenchmarkFailover(b *testing.B) {
	tr := testTrace(b, 40000, 17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rc := testRunConfig(4, NewJSQ())
		rc.Faults = &FaultSpec{KillRate: 3000, Downtime: 200 * sim.Microsecond}
		res, err := Run(tr, rc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Kills == 0 {
			b.Fatal("failover benchmark injected no kills")
		}
	}
	b.ReportMetric(float64(len(tr.Arrivals)), "requests")
}

// BenchmarkLockstepMerge isolates the cluster's merge overhead from the
// simulation itself: the same stream on 1 node through the cluster layer
// (lockstep loop + dispatcher + per-node accounts) vs progressively wider
// fleets, all under round-robin. The 16- and 64-node lines expose how the
// per-event cost of finding the next node event grows with fleet width;
// nodes=64 is gated by the benchcheck CI job via bench_baseline.json.
func BenchmarkLockstepMerge(b *testing.B) {
	tr := testTrace(b, 40000, 17)
	for _, nodes := range []int{1, 2, 4, 8, 16, 64} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(tr, testRunConfig(nodes, NewRoundRobin())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
