package proc

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// cpuFirstApp runs 100 rounds of a 10 us CPU segment followed by a launch of
// a one-thread-block, 1 ns kernel, so its run time is almost all host work.
func cpuFirstApp() *trace.App {
	a := &trace.App{
		Name: "cpu-first",
		Kernels: []trace.KernelSpec{{
			Name: "k", NumTBs: 1, TBTime: 1, RegsPerTB: 1000, ThreadsPerTB: 32, Launches: 100,
		}},
		Class1: trace.ClassShort,
		Class2: trace.ClassShort,
	}
	for i := 0; i < 100; i++ {
		a.Ops = append(a.Ops,
			trace.Op{Kind: trace.OpCPU, Dur: sim.Microseconds(10)},
			trace.Op{Kind: trace.OpLaunch})
	}
	return a
}

// scaleUnfolded scales a single-kernel app the way trace.(*App).Scale did
// before it folded CPU segments: every factor-th launch kept, each CPU
// segment divided by factor (rounded up) and replayed as its own phase.
func scaleUnfolded(a *trace.App, factor int) *trace.App {
	out := a.Scale(1)
	out.Kernels[0].NumTBs = (out.Kernels[0].NumTBs + factor - 1) / factor
	out.Ops = nil
	launches := 0
	for _, op := range a.Ops {
		switch op.Kind {
		case trace.OpLaunch:
			launches++
			if (launches-1)%factor != 0 {
				continue
			}
		case trace.OpCPU:
			op.Dur = (op.Dur + sim.Time(factor) - 1) / sim.Time(factor)
		}
		out.Ops = append(out.Ops, op)
	}
	return out
}

// burstGain is how much longer the CPU segments of unfolded take when each
// run of adjacent ones is one burst rather than a chain of phases, all at
// the given SMT slowdown: the penalty is charged once on the summed burst
// instead of on every phase, each truncated to whole nanoseconds.
func burstGain(unfolded *trace.App, slowdown float64) sim.Time {
	smt := func(d sim.Time) sim.Time { return sim.Time(float64(d) * slowdown) }
	var gain, burst, chained sim.Time
	flush := func() { gain += smt(burst) - chained; burst, chained = 0, 0 }
	for _, op := range unfolded.Ops {
		if op.Kind != trace.OpCPU {
			flush()
			continue
		}
		burst += op.Dur
		chained += smt(op.Dur)
	}
	flush()
	return gain
}

type cpuRun struct {
	ends     []sim.Time // run ends: the later of the host work and the GPU work
	hostEnds []sim.Time // ends of each process's last CPU phase
	busy     sim.Time
	queued   uint64
}

// runContended starts n processes of app together on the default host CPU
// (4 cores x 2 threads, SMT slowdown 1.25) and runs them to completion.
func runContended(t *testing.T, app *trace.App, n int) cpuRun {
	t.Helper()
	sys := testSystem(t)
	procs := make([]*Process, n)
	r := cpuRun{hostEnds: make([]sim.Time, n)}
	for i := range procs {
		p, err := New(sys, app, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Stamp the end of every CPU phase the process runs.
		host, cpuDone, issueDone := &r.hostEnds[i], p.cpuPhaseDone, p.issuePhaseDone
		p.cpuPhaseDone = func() { *host = sys.Eng.Now(); cpuDone() }
		p.issuePhaseDone = func() { *host = sys.Eng.Now(); issueDone() }
		if err := p.Start(0); err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	r.busy, r.queued = sys.CPU.BusyTime, sys.CPU.Queued
	for _, p := range procs {
		if p.CompletedRuns() != 1 {
			t.Fatalf("process completed %d runs, want 1", p.CompletedRuns())
		}
		r.ends = append(r.ends, p.Runs()[0].End)
	}
	return r
}

// TestFoldedCPUBurstsUnderContention compares processes replaying a scaled
// trace whose back-to-back CPU segments are folded into bursts against the
// same trace replayed segment by segment. A process's back-to-back phases
// never give up their hardware thread (each phase starts inside the previous
// one's completion), so folding changes nothing about who runs when. What it
// changes is where the SMT penalty is sampled: once on the whole burst
// instead of once per phase, where truncation to whole nanoseconds let
// phases shorter than 4 ns escape it. So:
//   - with at most Cores processes no phase pays the penalty, and runs are
//     identical;
//   - with more, the processes start in waves of Cores x ThreadsPerCore (the
//     excess queues FCFS and gets a thread only when a whole process's host
//     work is done), every process of a wave larger than Cores runs every
//     phase in the SMT regime, and each such process's host work grows by
//     exactly burstGain. A process's host work ends later by the gain of its
//     own wave plus that of every wave before it; its run, which also waits
//     for its kernels, ends later by at most that much.
func TestFoldedCPUBurstsUnderContention(t *testing.T) {
	cfg := testSystem(t).CPU.Config()
	threads := cfg.Cores * cfg.ThreadsPerCore
	for _, factor := range []int{24, 1 << 20} {
		folded := cpuFirstApp().Scale(factor)
		unfolded := scaleUnfolded(cpuFirstApp(), factor)
		gain := burstGain(unfolded, cfg.SMTSlowdown)
		if gain <= 0 {
			t.Fatalf("factor %d: burst gain %v, want positive", factor, gain)
		}
		for _, n := range []int{1, 2, cfg.Cores, cfg.Cores + 1, 10, 16} {
			t.Run(fmt.Sprintf("f=%d/n=%d", factor, n), func(t *testing.T) {
				got := runContended(t, folded, n)
				base := runContended(t, unfolded, n)
				if got.queued != base.queued {
					t.Errorf("queued phases %d, want %d", got.queued, base.queued)
				}
				var shift, busy sim.Time
				for w := 0; w*threads < n; w++ {
					size := min(threads, n-w*threads)
					if size > cfg.Cores {
						shift += gain
						busy += sim.Time(size) * gain
					}
					for i := w * threads; i < w*threads+size; i++ {
						if d := got.hostEnds[i] - base.hostEnds[i]; d != shift {
							t.Errorf("process %d (wave %d) host work ends %v after the chained run, want %v",
								i, w, d, shift)
						}
						if d := got.ends[i] - base.ends[i]; d < 0 || d > shift {
							t.Errorf("process %d (wave %d) ends %v after the chained run, want within [0, %v]",
								i, w, d, shift)
						}
					}
				}
				if d := got.busy - base.busy; d != busy {
					t.Errorf("CPU busy time %v over the chained run, want %v", d, busy)
				}
			})
		}
	}
}
