// Package pcie models the GPU's data-transfer engine and the PCI Express
// bus between CPU and GPU memory (§2.2). Transfers move data in fixed-size
// bursts; the engine executes one transfer command at a time (a running
// command has exclusive access to the engine and runs to completion, like
// the baseline architecture), and picks the next command from its DMA queue
// according to a pluggable queueing policy — FCFS for the DSS experiments,
// priority order (NPQ) for the preemption-mechanism experiments, matching
// §4.2/§4.4 of the paper.
package pcie

import (
	"fmt"

	"repro/internal/sim"
)

// Direction of a transfer.
type Direction int

// Transfer directions.
const (
	HostToDevice Direction = iota
	DeviceToHost
)

func (d Direction) String() string {
	if d == HostToDevice {
		return "H2D"
	}
	return "D2H"
}

// Config holds the bus parameters (Table 2: 500 MHz, 32 lanes, 4 KB bursts).
type Config struct {
	// Bandwidth is the effective bus bandwidth in bytes per second.
	Bandwidth int64
	// BurstBytes is the DMA burst size.
	BurstBytes int64
	// BurstOverhead is the fixed per-burst latency (packetization, DMA
	// descriptor processing).
	BurstOverhead sim.Time
	// IssueLatency is the fixed cost of starting a transfer command.
	IssueLatency sim.Time
}

// DefaultConfig returns the bus parameters used in the evaluation.
// 500 MHz x 32 lanes with PCIe 2.0 encoding yields about 8 GB/s effective.
func DefaultConfig() Config {
	return Config{
		Bandwidth:     8e9,
		BurstBytes:    4 * 1024,
		BurstOverhead: sim.Microseconds(0.05),
		IssueLatency:  sim.Microseconds(5),
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Bandwidth <= 0:
		return fmt.Errorf("pcie: Bandwidth must be positive, got %d", c.Bandwidth)
	case c.BurstBytes <= 0:
		return fmt.Errorf("pcie: BurstBytes must be positive, got %d", c.BurstBytes)
	case c.BurstOverhead < 0:
		return fmt.Errorf("pcie: negative BurstOverhead")
	case c.IssueLatency < 0:
		return fmt.Errorf("pcie: negative IssueLatency")
	}
	return nil
}

// TransferTime returns the bus time for a transfer of the given size.
func (c *Config) TransferTime(bytes int64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	bursts := (bytes + c.BurstBytes - 1) / c.BurstBytes
	wire := sim.Time(float64(bytes) / float64(c.Bandwidth) * float64(sim.Second))
	return c.IssueLatency + wire + sim.Time(bursts)*c.BurstOverhead
}

// DispatchFloor returns the latency floor of the dispatch path over this
// link: the minimum delay between issuing a transfer command and the engine
// observing any effect of it, i.e. the transfer time of the smallest
// non-empty command (issue latency + one burst's overhead + its wire time).
// No dispatched request can touch a device behind this link sooner, so the
// floor is the admission latency of every fleet placement: the cluster layer
// lands each admission this far after its dispatch decision, in either
// executor.
func (c *Config) DispatchFloor() sim.Time {
	return c.TransferTime(1)
}

// Command is one DMA transfer request.
type Command struct {
	CtxID    int
	Name     string
	Dir      Direction
	Bytes    int64
	Priority int
	Enqueued sim.Time
	// OnDone is invoked when the transfer completes.
	OnDone func(at sim.Time)
}

// QueuePolicy selects the index of the next command to execute from a
// non-empty queue.
type QueuePolicy interface {
	Name() string
	Next(queue []*Command) int
}

// FCFS executes transfers in arrival order.
type FCFS struct{}

// Name implements QueuePolicy.
func (FCFS) Name() string { return "FCFS" }

// Next implements QueuePolicy.
func (FCFS) Next(queue []*Command) int { return 0 }

// PriorityFCFS executes the highest-priority transfer first, breaking ties
// by arrival order (the non-preemptive priority-queue transfer scheduling
// used in §4.2/§4.3).
type PriorityFCFS struct{}

// Name implements QueuePolicy.
func (PriorityFCFS) Name() string { return "NPQ" }

// Next implements QueuePolicy.
func (PriorityFCFS) Next(queue []*Command) int {
	best := 0
	for i, c := range queue[1:] {
		if c.Priority > queue[best].Priority {
			best = i + 1
		}
	}
	return best
}

// Stats aggregates transfer-engine activity.
type Stats struct {
	Transfers  int
	Bytes      int64
	BusyTime   sim.Time
	MaxQueue   int
	WaitedTime sim.Time // total queueing delay across commands
}

// Engine is the data-transfer engine.
type Engine struct {
	eng     *sim.Engine
	cfg     Config
	policy  QueuePolicy
	queue   []*Command
	busy    bool
	running *Command // the in-flight transfer (engine runs one at a time)
	stats   Stats
}

// NewEngine returns a transfer engine using the given queueing policy.
func NewEngine(eng *sim.Engine, cfg Config, policy QueuePolicy) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		policy = FCFS{}
	}
	return &Engine{eng: eng, cfg: cfg, policy: policy}, nil
}

// Config returns the engine's bus configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of the engine statistics.
func (e *Engine) Stats() Stats { return e.stats }

// QueueLen returns the number of commands waiting (not including a running
// transfer).
func (e *Engine) QueueLen() int { return len(e.queue) }

// Busy reports whether a transfer is in flight.
func (e *Engine) Busy() bool { return e.busy }

// Submit enqueues a transfer command. The engine notifies completion through
// cmd.OnDone.
func (e *Engine) Submit(cmd *Command) error {
	if cmd == nil || cmd.Bytes <= 0 {
		return fmt.Errorf("pcie: invalid transfer command")
	}
	cmd.Enqueued = e.eng.Now()
	e.queue = append(e.queue, cmd)
	if len(e.queue) > e.stats.MaxQueue {
		e.stats.MaxQueue = len(e.queue)
	}
	e.dispatch()
	return nil
}

func (e *Engine) dispatch() {
	if e.busy || len(e.queue) == 0 {
		return
	}
	idx := e.policy.Next(e.queue)
	if idx < 0 || idx >= len(e.queue) {
		panic(fmt.Sprintf("pcie: policy %s returned index %d for queue of %d", e.policy.Name(), idx, len(e.queue)))
	}
	cmd := e.queue[idx]
	copy(e.queue[idx:], e.queue[idx+1:])
	e.queue[len(e.queue)-1] = nil
	e.queue = e.queue[:len(e.queue)-1]
	e.busy = true
	e.running = cmd
	dur := e.cfg.TransferTime(cmd.Bytes)
	e.stats.Transfers++
	e.stats.Bytes += cmd.Bytes
	e.stats.BusyTime += dur
	e.stats.WaitedTime += e.eng.Now() - cmd.Enqueued
	e.eng.AfterFunc(dur, transferDone, e, 0)
}

// transferDone is the closure-free completion callback of the in-flight
// transfer: exactly one command runs at a time, so the engine itself carries
// the argument.
func transferDone(p any, _ int64) {
	e := p.(*Engine)
	cmd := e.running
	e.running = nil
	e.busy = false
	if cmd.OnDone != nil {
		cmd.OnDone(e.eng.Now())
	}
	e.dispatch()
}
