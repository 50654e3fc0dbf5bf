package probe

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// Cost is one probed operation's mean host cost per call.
type Cost struct {
	NS, Allocs, Bytes float64
}

// loop times fn over n calls and returns the mean cost per call.
func loop(n int, fn func(i int) error) (Cost, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return Cost{}, err
		}
	}
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	f := float64(n)
	return Cost{NS: float64(d.Nanoseconds()) / f, Allocs: float64(m1.Mallocs-m0.Mallocs) / f,
		Bytes: float64(m1.TotalAlloc-m0.TotalAlloc) / f}, nil
}

// Substrate is the probed cost ladder of one node's request path.
type Substrate struct {
	// Admit is one request's full node cycle: arrivals.AdmitRequest, the
	// engine drained until the request completes, and its context retired.
	Admit Cost
	// Ctx is gpu.ContextTable Create plus Destroy; Map is a fresh context's
	// page table mapping one save area (mmu level-2 tables included);
	// AllocFree is gmem.Manager Alloc plus FreeOwner of that save area;
	// Event is sim.Engine AtFunc plus Step; SketchAdd is metrics.Sketch.Add.
	Ctx, Map, AllocFree, Event, SketchAdd Cost
	// SaveAreaBytes is the probed save-area size.
	SaveAreaBytes int64
}

// ProbeSubstrate times the admission path and the substrate primitives under
// it. With a trace, the admission ladder replays its first admitN arrivals
// one at a time on one assembled machine running the workload's policy and
// mechanism; without one (paper-mix admits no requests) only the
// primitives run, n calls each. saveKernel sizes the probed save area.
func ProbeSubstrate(at *trace.ArrivalTrace, pol func(int) core.Policy, mech func() core.Mechanism,
	saveKernel *trace.KernelSpec, seed uint64, admitN, n int) (*Substrate, error) {
	s := &Substrate{}
	var err error
	if at != nil {
		if s.Admit, err = probeAdmit(at, pol, mech, seed, admitN); err != nil {
			return nil, err
		}
	}

	tbl := gpu.NewContextTable(gpu.DefaultContextCapacity)
	if s.Ctx, err = loop(n, func(int) error {
		c, err := tbl.Create("probe", 0)
		if err != nil {
			return err
		}
		return tbl.Destroy(c.ID)
	}); err != nil {
		return nil, err
	}

	cfg := gpu.DefaultConfig()
	occ, err := cfg.Occupancy(saveKernel)
	if err != nil {
		return nil, err
	}
	s.SaveAreaBytes = int64(cfg.NumSMs) * int64(occ) * cfg.TBContextBytes(saveKernel)
	mem := gmem.NewManager(cfg.MemSize)
	if s.Map, err = loop(n, func(i int) error {
		_, err := mmu.NewPageTable(i).AllocRegion(0, s.SaveAreaBytes)
		return err
	}); err != nil {
		return nil, err
	}
	if s.AllocFree, err = loop(n, func(i int) error {
		if _, err := mem.Alloc(i, s.SaveAreaBytes); err != nil {
			return err
		}
		if mem.FreeOwner(i) != s.SaveAreaBytes {
			return fmt.Errorf("probe: gmem freed a different size than it allocated")
		}
		return nil
	}); err != nil {
		return nil, err
	}

	eng := sim.NewEngine()
	nop := func(any, int64) {}
	if s.Event, err = loop(n, func(int) error {
		eng.AtFunc(eng.Now()+1, nop, nil, 0)
		if !eng.Step() {
			return fmt.Errorf("probe: engine had no event to step")
		}
		return nil
	}); err != nil {
		return nil, err
	}

	var sk metrics.Sketch
	if s.SketchAdd, err = loop(n, func(i int) error {
		sk.Add(sim.Time(i*7919) % (10 * sim.Millisecond))
		return nil
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// probeAdmit replays the first n arrivals of at one at a time on one
// machine: admit, drain, retire. Arrival times are zeroed so every request
// is due when admitted; the machine's clock still advances with each run.
func probeAdmit(at *trace.ArrivalTrace, pol func(int) core.Policy, mech func() core.Mechanism, seed uint64, n int) (Cost, error) {
	if n > len(at.Arrivals) {
		n = len(at.Arrivals)
	}
	due := *at
	due.Arrivals = append([]trace.Arrival(nil), at.Arrivals[:n]...)
	for i := range due.Arrivals {
		due.Arrivals[i].At = 0
	}
	cfg := machine(seed)
	cfg.ContextCapacity = gpu.DefaultContextCapacity
	sys, err := system.New(cfg, pol(len(at.Classes)), mech())
	if err != nil {
		return Cost{}, err
	}
	acct := metrics.NewSLOAccount(due.Classes)
	done := 0
	c, err := loop(n, func(i int) error {
		acct.Admit(due.Arrivals[i].Class)
		if err := arrivals.AdmitRequest(sys, acct, &due, i, func(sim.Time) { done++ }); err != nil {
			return err
		}
		if err := sys.Eng.Run(); err != nil {
			return err
		}
		if done != i+1 || sys.Contexts.Len() != 0 {
			return fmt.Errorf("probe: request %d did not complete and retire", i)
		}
		return nil
	})
	return c, err
}
