package arrivals

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// BenchmarkAdmitRequest measures one steady-state request cycle of the
// open-system admission path on a warm machine: admit an arrival (GPU
// context, page table, process, command submission), drain the engine, and
// retire. Arrival times are zeroed so every request is due when admitted.
// One pass over the stream warms the machine first, so the measured cycles
// run on recycled per-request state — the cost every cluster node pays per
// request once it has served a few.
func BenchmarkAdmitRequest(b *testing.B) {
	tr, err := Generate(testSpec(ProcPoisson, 20000, 3))
	if err != nil {
		b.Fatal(err)
	}
	due := *tr
	due.Arrivals = append([]trace.Arrival(nil), tr.Arrivals...)
	for i := range due.Arrivals {
		due.Arrivals[i].At = 0
	}
	cfg := system.DefaultConfig()
	cfg.Seed = 7
	cfg.ContextCapacity = gpu.DefaultContextCapacity
	sys, err := system.New(cfg, policy.NewPPQ(true), preempt.NewAdaptive())
	if err != nil {
		b.Fatal(err)
	}
	acct := metrics.NewSLOAccount(due.Classes)
	done := 0
	cycle := func(i int) {
		i %= len(due.Arrivals)
		acct.Admit(due.Arrivals[i].Class)
		if err := AdmitRequest(sys, acct, &due, i, func(sim.Time) { done++ }); err != nil {
			b.Fatal(err)
		}
		if err := sys.Eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	warm := len(due.Arrivals)
	for i := 0; i < warm; i++ {
		cycle(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
	b.StopTimer()
	if done != warm+b.N || sys.Contexts.Len() != 0 {
		b.Fatalf("%d of %d requests completed, %d contexts live", done, warm+b.N, sys.Contexts.Len())
	}
}
