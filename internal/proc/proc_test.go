package proc

import (
	"testing"

	"repro/internal/pcie"
	"repro/internal/policy"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

func testSystem(t *testing.T) *system.System {
	t.Helper()
	cfg := system.DefaultConfig()
	cfg.Jitter = 0
	sys, err := system.New(cfg, policy.NewFCFS(), preempt.Drain{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func simpleApp(name string) *trace.App {
	return &trace.App{
		Name: name,
		Kernels: []trace.KernelSpec{{
			Name: "k", NumTBs: 13, TBTime: sim.Microseconds(10),
			RegsPerTB: 4000, ThreadsPerTB: 128,
		}},
		Ops: []trace.Op{
			{Kind: trace.OpH2D, Bytes: 64 * 1024},
			{Kind: trace.OpCPU, Dur: sim.Microseconds(20)},
			{Kind: trace.OpLaunch, Kernel: 0},
			{Kind: trace.OpSync},
			{Kind: trace.OpD2H, Bytes: 16 * 1024},
		},
		Class1: trace.ClassShort,
		Class2: trace.ClassShort,
	}
}

func TestProcessRunsTraceToCompletion(t *testing.T) {
	sys := testSystem(t)
	p, err := New(sys, simpleApp("app"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if p.CompletedRuns() != 1 {
		t.Fatalf("completed %d runs, want 1", p.CompletedRuns())
	}
	rec := p.Runs()[0]
	if rec.Start != 0 || rec.End != sys.Eng.Now() {
		t.Errorf("run record %+v inconsistent with clock %v", rec, sys.Eng.Now())
	}
	// Sanity of the composition: the run must take at least the CPU phase
	// plus the kernel execution (13 TBs on 13 SMs = 10us) plus transfers.
	min := sim.Microseconds(20 + 10)
	if rec.Turnaround() < min {
		t.Errorf("turnaround %v implausibly small (< %v)", rec.Turnaround(), min)
	}
}

func TestProcessLoopReplaysAndRecordsEachRun(t *testing.T) {
	sys := testSystem(t)
	p, err := New(sys, simpleApp("app"), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Loop = true
	p.RestartGap = sim.Microseconds(5)
	runs := 0
	p.OnRunComplete = func(p *Process, rec RunRecord) {
		runs++
		if runs >= 4 {
			sys.Eng.Stop()
		}
	}
	p.Start(0)
	sys.Eng.Run()
	if p.CompletedRuns() != 4 {
		t.Fatalf("completed %d runs, want 4", p.CompletedRuns())
	}
	recs := p.Runs()
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].End+sim.Microseconds(5) {
			t.Errorf("run %d started at %v, before restart gap after %v",
				i, recs[i].Start, recs[i-1].End)
		}
		if recs[i].Run != i {
			t.Errorf("run index %d, want %d", recs[i].Run, i)
		}
	}
	if p.MeanTurnaround() <= 0 {
		t.Error("mean turnaround not positive")
	}
}

func TestSyncBlocksUntilCommandsComplete(t *testing.T) {
	sys := testSystem(t)
	app := simpleApp("app")
	// CPU marker after the sync: it must start only after the kernel
	// completed. Layout: launch; sync; cpu(1us); end.
	app.Ops = []trace.Op{
		{Kind: trace.OpLaunch, Kernel: 0},
		{Kind: trace.OpSync},
		{Kind: trace.OpCPU, Dur: sim.Microseconds(1)},
	}
	p, err := New(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	sys.Eng.Run()
	// Kernel: setup 1us + 10us exec; sync releases at >= 11us; +1us CPU.
	end := p.Runs()[0].End
	if end < sim.Microseconds(12) {
		t.Errorf("run ended at %v: sync did not wait for the kernel", end)
	}
}

func TestAsyncEnqueueDoesNotBlockCPU(t *testing.T) {
	sys := testSystem(t)
	app := simpleApp("app")
	// Two launches back-to-back with no sync: the second enqueue happens
	// while the first kernel is still running (stream keeps them in order
	// on the GPU, but the CPU does not wait).
	app.Ops = []trace.Op{
		{Kind: trace.OpLaunch, Kernel: 0},
		{Kind: trace.OpLaunch, Kernel: 0},
	}
	p, err := New(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	sys.Eng.Run()
	// Stream semantics: 2 kernels of ~11us each run sequentially.
	end := p.Runs()[0].End
	if end < sim.Microseconds(21) {
		t.Errorf("end %v: kernels from one stream must serialize", end)
	}
	if end > sim.Microseconds(30) {
		t.Errorf("end %v: too slow; enqueue must not block the CPU", end)
	}
}

func TestStreamsOverlapTransfersAndKernels(t *testing.T) {
	sys := testSystem(t)
	app := simpleApp("app")
	// Stream 0: kernel. Stream 1: big transfer. They target different
	// engines and must overlap.
	app.Ops = []trace.Op{
		{Kind: trace.OpLaunch, Kernel: 0, Stream: 0},
		{Kind: trace.OpH2D, Bytes: 8 << 20, Stream: 1}, // ~1ms at 8 GB/s
	}
	p, err := New(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	sys.Eng.Run()
	end := p.Runs()[0].End
	dmaCfg := sys.DMA.Config()
	transferTime := dmaCfg.TransferTime(8 << 20)
	// The run ends when the slower of the two finishes (the transfer);
	// serialized execution would add the kernel's ~11us on top.
	slack := sim.Microseconds(10)
	if end > transferTime+slack {
		t.Errorf("end %v vs transfer %v: kernel and transfer did not overlap", end, transferTime)
	}
}

func TestSameStreamCommandsSerialize(t *testing.T) {
	sys := testSystem(t)
	app := simpleApp("app")
	app.Ops = []trace.Op{
		{Kind: trace.OpH2D, Bytes: 4 << 20, Stream: 0},
		{Kind: trace.OpLaunch, Kernel: 0, Stream: 0},
	}
	p, err := New(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	sys.Eng.Run()
	dmaCfg := sys.DMA.Config()
	transferTime := dmaCfg.TransferTime(4 << 20)
	end := p.Runs()[0].End
	// Same stream: the kernel waits for the transfer.
	if end < transferTime+sim.Microseconds(10) {
		t.Errorf("end %v: kernel overlapped its own stream's transfer (%v)", end, transferTime)
	}
}

func TestTransferPriorityComesFromContext(t *testing.T) {
	cfg := system.DefaultConfig()
	cfg.Jitter = 0
	cfg.DMAPolicy = pcie.PriorityFCFS{}
	sys, err := system.New(cfg, policy.NewNPQ(), preempt.Drain{})
	if err != nil {
		t.Fatal(err)
	}
	mkApp := func(name string) *trace.App {
		a := simpleApp(name)
		a.Ops = []trace.Op{{Kind: trace.OpH2D, Bytes: 2 << 20},
			{Kind: trace.OpLaunch, Kernel: 0}}
		return a
	}
	lo, err := New(sys, mkApp("lo"), 0)
	if err != nil {
		t.Fatal(err)
	}
	lo2, err := New(sys, mkApp("lo2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := New(sys, mkApp("hi"), 3)
	if err != nil {
		t.Fatal(err)
	}
	// lo starts first and occupies the transfer engine; lo2 and hi queue.
	lo.Start(0)
	lo2.Start(sim.Microseconds(1))
	hi.Start(sim.Microseconds(2))
	sys.Eng.Run()
	if hi.Runs()[0].End >= lo2.Runs()[0].End {
		t.Errorf("priority transfer did not jump the DMA queue: hi=%v lo2=%v",
			hi.Runs()[0].End, lo2.Runs()[0].End)
	}
}

func TestProcessDoubleStartFails(t *testing.T) {
	sys := testSystem(t)
	p, err := New(sys, simpleApp("app"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(1); err == nil {
		t.Fatal("double Start succeeded")
	}
}

func TestProcessRejectsInvalidApp(t *testing.T) {
	sys := testSystem(t)
	bad := simpleApp("bad")
	bad.Ops = nil
	if _, err := New(sys, bad, 0); err == nil {
		t.Fatal("invalid app accepted")
	}
}

func TestEachProcessGetsOwnContext(t *testing.T) {
	sys := testSystem(t)
	p1, err := New(sys, simpleApp("a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(sys, simpleApp("b"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Ctx().ID == p2.Ctx().ID {
		t.Fatal("processes share a GPU context")
	}
	if p2.Ctx().Priority != 1 {
		t.Errorf("priority not propagated: %d", p2.Ctx().Priority)
	}
	if p1.Ctx().PageTable.ASID == p2.Ctx().PageTable.ASID {
		t.Fatal("processes share an address space")
	}
}

func TestIssueOverheadAccumulates(t *testing.T) {
	sys := testSystem(t)
	app := simpleApp("app")
	// 10 enqueues with no GPU work dependency beyond the first kernel.
	app.Ops = nil
	for i := 0; i < 10; i++ {
		app.Ops = append(app.Ops, trace.Op{Kind: trace.OpLaunch, Kernel: 0})
	}
	p, err := New(sys, app, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	var cpuDoneBy sim.Time
	// All enqueues take 10*IssueOverhead of CPU time.
	cpuDoneBy = sim.Time(10) * IssueOverhead
	sys.Eng.Run()
	end := p.Runs()[0].End
	if end < cpuDoneBy {
		t.Errorf("run ended before the CPU could have issued all commands: %v < %v", end, cpuDoneBy)
	}
}

// twoStreamApp issues on streams 1 and 2 (simpleApp uses stream 0 only), so a
// recycled process replays it with a stale idle stream in its table.
func twoStreamApp(name string) *trace.App {
	app := simpleApp(name)
	app.Ops = []trace.Op{
		{Kind: trace.OpH2D, Bytes: 32 * 1024, Stream: 1},
		{Kind: trace.OpLaunch, Kernel: 0, Stream: 2},
		{Kind: trace.OpLaunch, Kernel: 0, Stream: 1},
		{Kind: trace.OpCPU, Dur: sim.Microseconds(7)},
		{Kind: trace.OpD2H, Bytes: 8 * 1024, Stream: 2},
	}
	return app
}

// runOnce replays app once in a fresh context on sys, through a one-shot
// process when oneShot is set, and returns the process and its run record.
func runOnce(t *testing.T, sys *system.System, app *trace.App, oneShot bool) (*Process, RunRecord) {
	t.Helper()
	ctx, err := sys.NewContext(app.Name, 0)
	if err != nil {
		t.Fatal(err)
	}
	newProc := NewWithContext
	if oneShot {
		newProc = NewOneShot
	}
	p, err := newProc(sys, ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	var recs []RunRecord
	p.OnRunComplete = func(_ *Process, rec RunRecord) {
		recs = append(recs, rec)
		if err := sys.RetireContext(ctx.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Start(sys.Eng.Now()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%s completed %d runs, want 1", app.Name, len(recs))
	}
	return p, recs[0]
}

func TestOneShotProcessRecycledMatchesFresh(t *testing.T) {
	// The same history on two machines: app a, then app b. One machine runs
	// both through fresh processes, the other through one-shot processes, so
	// b replays on the process a retired.
	fresh, recycled := testSystem(t), testSystem(t)
	_, wantA := runOnce(t, fresh, simpleApp("a"), false)
	pa, gotA := runOnce(t, recycled, simpleApp("a"), true)
	_, wantB := runOnce(t, fresh, twoStreamApp("b"), false)
	pb, gotB := runOnce(t, recycled, twoStreamApp("b"), true)
	if pb != pa {
		t.Fatal("second one-shot process was not recycled from the first")
	}
	if gotA != wantA || gotB != wantB {
		t.Errorf("one-shot records %+v, %+v; fresh %+v, %+v", gotA, gotB, wantA, wantB)
	}
	if fresh.Eng.Now() != recycled.Eng.Now() {
		t.Errorf("clocks diverge: fresh %v, recycled %v", fresh.Eng.Now(), recycled.Eng.Now())
	}
	// A third one-shot replays a again on the same process and matches too.
	pc, gotC := runOnce(t, recycled, simpleApp("a"), true)
	_, wantC := runOnce(t, fresh, simpleApp("a"), false)
	if pc != pa || gotC != wantC {
		t.Errorf("third run: recycled=%v record %+v, want %+v", pc == pa, gotC, wantC)
	}
}

func TestLoopingOneShotIsNotRecycled(t *testing.T) {
	sys := testSystem(t)
	ctx, err := sys.NewContext("loop", 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewOneShot(sys, ctx, simpleApp("loop"))
	if err != nil {
		t.Fatal(err)
	}
	p.Loop = true
	p.OnRunComplete = func(p *Process, rec RunRecord) {
		if rec.Run == 2 {
			p.Loop = false
		}
	}
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Runs 0 and 1 looped; run 2 ended the loop, so the process was
	// recycled only then.
	if sys.ReuseProcess() != p {
		t.Fatal("one-shot process not on the free list after its final run")
	}
	if sys.ReuseProcess() != nil {
		t.Fatal("process recycled more than once")
	}
}
