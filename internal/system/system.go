// Package system assembles a complete simulated machine: the discrete-event
// engine, the GPU (execution engine with the scheduling framework, physical
// memory, context table) and the PCIe data-transfer engine — the components
// of Figure 1 of the paper.
package system

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/gmem"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// Config aggregates the machine parameters.
type Config struct {
	GPU  gpu.Config
	PCIe pcie.Config
	CPU  cpu.Config
	// DMAPolicy orders the data-transfer engine's queue. Defaults to FCFS.
	DMAPolicy pcie.QueuePolicy
	// Jitter is the per-thread-block execution time jitter fraction.
	Jitter float64
	// Seed drives all randomness in the machine.
	Seed uint64
	// RecordTimeline attaches a timeline recorder to the execution engine.
	RecordTimeline bool
	// ActiveLimit overrides the active-queue capacity (0 = NumSMs).
	ActiveLimit int
	// ContextCapacity overrides the GPU context-table capacity
	// (0 = gpu.DefaultContextCapacity). Open-system runs size it to their
	// arrival count so admission never fails while retired contexts free
	// their slots.
	ContextCapacity int
	// TimeScale multiplies every thread block's execution time (0 = 1, no
	// scaling). The cluster's fault injector sets it > 1 on straggler nodes.
	TimeScale float64
}

// DefaultConfig returns the evaluation machine of Table 2.
func DefaultConfig() Config {
	return Config{
		GPU:    gpu.DefaultConfig(),
		PCIe:   pcie.DefaultConfig(),
		CPU:    cpu.DefaultConfig(),
		Jitter: 0.30,
	}
}

// System is an assembled machine.
type System struct {
	Eng      *sim.Engine
	Cfg      Config
	Exec     *core.Framework
	DMA      *pcie.Engine
	CPU      *cpu.Model
	Contexts *gpu.ContextTable
	Mem      *gmem.Manager

	// spareProcs is the machine's free list of retired one-shot processes
	// (proc.NewOneShot). internal/proc imports this package, so the list
	// holds them as any.
	spareProcs []any
}

// New assembles a machine running the given policy and mechanism.
func New(cfg Config, pol core.Policy, mech core.Mechanism) (*System, error) {
	eng := sim.NewEngine()
	mem := gmem.NewManager(cfg.GPU.MemSize)
	opts := []core.Option{
		core.WithJitter(cfg.Jitter),
		core.WithSeed(cfg.Seed),
		core.WithMemory(mem),
	}
	if cfg.RecordTimeline {
		opts = append(opts, core.WithTimeline(core.NewTimeline()))
	}
	if cfg.ActiveLimit > 0 {
		opts = append(opts, core.WithActiveLimit(cfg.ActiveLimit))
	}
	if cfg.TimeScale > 0 {
		opts = append(opts, core.WithTimeScale(cfg.TimeScale))
	}
	fw, err := core.New(eng, cfg.GPU, pol, mech, opts...)
	if err != nil {
		return nil, fmt.Errorf("system: building execution engine: %w", err)
	}
	dma, err := pcie.NewEngine(eng, cfg.PCIe, cfg.DMAPolicy)
	if err != nil {
		return nil, fmt.Errorf("system: building transfer engine: %w", err)
	}
	host, err := cpu.New(eng, cfg.CPU)
	if err != nil {
		return nil, fmt.Errorf("system: building host CPU: %w", err)
	}
	ctxCap := cfg.ContextCapacity
	if ctxCap <= 0 {
		ctxCap = gpu.DefaultContextCapacity
	}
	return &System{
		Eng:      eng,
		Cfg:      cfg,
		Exec:     fw,
		DMA:      dma,
		CPU:      host,
		Contexts: gpu.NewContextTable(ctxCap),
		Mem:      mem,
	}, nil
}

// NewContext registers a new GPU context (one per process).
func (s *System) NewContext(name string, priority int) (*gpu.Context, error) {
	return s.Contexts.Create(name, priority)
}

// RetireContext removes a finished process's GPU context from the machine:
// the execution engine drops its command-buffer bookkeeping and the context
// table frees the slot, both keeping the storage for the next context. The
// context must be quiescent (no pending commands, no active kernels, no
// mapped pages) — retiring mid-flight is a caller bug.
func (s *System) RetireContext(id int) error {
	if err := s.Exec.ReleaseContext(id); err != nil {
		return err
	}
	return s.Contexts.Destroy(id)
}

// KeepProcess puts a retired process on the machine's free list. Like the
// context table's page tables and the execution engine's command-buffer
// queues, the list is node-local: parallel windows never share it, and it
// goes away with the machine.
func (s *System) KeepProcess(p any) { s.spareProcs = append(s.spareProcs, p) }

// ReuseProcess takes a retired process off the free list, or returns nil.
func (s *System) ReuseProcess() any {
	n := len(s.spareProcs)
	if n == 0 {
		return nil
	}
	p := s.spareProcs[n-1]
	s.spareProcs[n-1] = nil
	s.spareProcs = s.spareProcs[:n-1]
	return p
}
