package cluster

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// NodeState is a node's position in the elastic-fleet lifecycle.
type NodeState int

// Node lifecycle states. A node is born Up; the autoscaler moves it
// Up → Draining → Retired, the fault injector Up → Down → Up (a restart is a
// fresh machine incarnation). Retired nodes never come back — a later
// scale-up adds a new node slot instead.
const (
	// NodeUp serves dispatched requests.
	NodeUp NodeState = iota
	// NodeDraining takes no new requests but finishes its in-flight ones.
	NodeDraining
	// NodeDown was killed by the fault injector; its in-flight requests were
	// lost and re-dispatched. It restarts after the configured downtime.
	NodeDown
	// NodeRetired drained to empty and left the fleet for good.
	NodeRetired
)

// String names the state for reports.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDraining:
		return "draining"
	case NodeDown:
		return "down"
	case NodeRetired:
		return "retired"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ClassWindow is one service class's activity since the previous autoscaler
// tick: counter deltas plus the completion-latency p99 over just the window's
// completions (computed from sketch snapshots, no samples retained).
type ClassWindow struct {
	Admitted, Completed, Missed, Lost int
	P99                               sim.Time
}

// FleetSnapshot is what an Autoscaler decides from: the fleet's state counts,
// its outstanding request population, and per-class rolling-window SLO
// activity. Snapshots are taken on the control engine, so they see every
// event strictly before Now plus nothing at Now.
type FleetSnapshot struct {
	// Now is the tick's virtual time.
	Now sim.Time
	// Up/Draining/Down/Retired count nodes per lifecycle state.
	Up, Draining, Down, Retired int
	// InFlight is the outstanding request population across the fleet.
	InFlight int
	// Window holds per-class activity since the previous tick, in trace
	// class order.
	Window []ClassWindow
}

// Autoscaler sizes the fleet from SLO feedback. The cluster calls Decide on
// its control engine every Interval; a positive return adds that many nodes
// (bounded by MaxNodes), a negative return drains that many Up nodes
// (least-loaded first), zero holds. Implementations must be deterministic
// functions of their own state and the snapshots they see.
type Autoscaler interface {
	// Name labels the policy in results and tables.
	Name() string
	// Interval is the tick period (must be positive).
	Interval() sim.Time
	// Decide returns the node-count delta to apply at s.Now.
	Decide(s *FleetSnapshot) int
}

// StepConfig parameterizes the step autoscaler. The zero value of a threshold
// disables that signal. JSON tags let a cluster topology file carry the
// policy (gpusim -cluster).
type StepConfig struct {
	// Interval is the tick period. Default 250µs.
	Interval sim.Time `json:"interval,omitempty"`
	// Cooldown is the minimum time between two scale actions. Default
	// Interval.
	Cooldown sim.Time `json:"cooldown,omitempty"`
	// Min and Max bound the Up-node count. Defaults 1 and MaxNodes.
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
	// Step is the node-count delta per action. Default 1.
	Step int `json:"step,omitempty"`
	// Class is the trace class index whose window the thresholds watch.
	Class int `json:"class,omitempty"`
	// HighP99 scales up when the watched class's window completion-latency
	// p99 exceeds it.
	HighP99 sim.Time `json:"high_p99,omitempty"`
	// HighMiss scales up when the window deadline-miss fraction exceeds it.
	HighMiss float64 `json:"high_miss,omitempty"`
	// HighBacklog scales up when fleet in-flight exceeds HighBacklog per Up
	// node.
	HighBacklog int `json:"high_backlog,omitempty"`
	// LowBacklog scales down when fleet in-flight falls below LowBacklog per
	// Up node and no scale-up signal fires.
	LowBacklog int `json:"low_backlog,omitempty"`
}

func (c StepConfig) withDefaults() StepConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * sim.Microsecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.Interval
	}
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = MaxNodes
	}
	if c.Step < 1 {
		c.Step = 1
	}
	return c
}

// Validate checks the policy's shape (after defaulting).
func (c StepConfig) Validate() error {
	c = c.withDefaults()
	if c.Max < c.Min || c.Max > MaxNodes {
		return fmt.Errorf("cluster: autoscale bounds [%d, %d] invalid (max %d)", c.Min, c.Max, MaxNodes)
	}
	if c.Class < 0 {
		return fmt.Errorf("cluster: autoscale watches negative class %d", c.Class)
	}
	if c.HighP99 < 0 || c.HighMiss < 0 || c.HighMiss > 1 || c.HighBacklog < 0 || c.LowBacklog < 0 {
		return fmt.Errorf("cluster: autoscale thresholds out of range")
	}
	return nil
}

// StepAutoscaler is the built-in hysteresis policy: scale up by Step when any
// high-water signal fires on the watched class's rolling window (tail
// latency, miss rate, or per-node backlog), scale down by Step when the fleet
// idles below the low-water backlog, and otherwise hold. A cooldown
// suppresses actions too soon after the last one.
type StepAutoscaler struct {
	cfg   StepConfig
	acted bool
	last  sim.Time
}

// NewStepAutoscaler builds the step policy, applying defaults.
func NewStepAutoscaler(cfg StepConfig) (*StepAutoscaler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &StepAutoscaler{cfg: cfg.withDefaults()}, nil
}

// Name labels the policy.
func (a *StepAutoscaler) Name() string { return "step" }

// Interval is the tick period.
func (a *StepAutoscaler) Interval() sim.Time { return a.cfg.Interval }

// Decide applies the step policy to one snapshot.
func (a *StepAutoscaler) Decide(s *FleetSnapshot) int {
	if a.acted && s.Now-a.last < a.cfg.Cooldown {
		return 0
	}
	up := false
	if a.cfg.Class < len(s.Window) {
		w := &s.Window[a.cfg.Class]
		if a.cfg.HighP99 > 0 && w.P99 > a.cfg.HighP99 {
			up = true
		}
		if a.cfg.HighMiss > 0 && w.Completed > 0 &&
			float64(w.Missed)/float64(w.Completed) > a.cfg.HighMiss {
			up = true
		}
	}
	if a.cfg.HighBacklog > 0 && s.InFlight > a.cfg.HighBacklog*s.Up {
		up = true
	}
	if up {
		d := a.cfg.Step
		if s.Up+d > a.cfg.Max {
			d = a.cfg.Max - s.Up
		}
		if d <= 0 {
			return 0
		}
		a.acted, a.last = true, s.Now
		return d
	}
	if a.cfg.LowBacklog > 0 && s.InFlight < a.cfg.LowBacklog*s.Up {
		d := a.cfg.Step
		if s.Up-d < a.cfg.Min {
			d = s.Up - a.cfg.Min
		}
		if d <= 0 {
			return 0
		}
		a.acted, a.last = true, s.Now
		return -d
	}
	return 0
}

// --- cluster-side scaling machinery ----------------------------------------

// scheduleTick arms the next autoscaler tick on the control engine.
func (c *Cluster) scheduleTick(at sim.Time) {
	c.ctl.At(at, func() { c.tick(at) })
	c.refreshCtl()
}

// tick snapshots the fleet, applies the autoscaler's decision, and re-arms.
func (c *Cluster) tick(at sim.Time) {
	s := c.snapshot(at)
	if c.err != nil {
		return
	}
	switch d := c.asc.Decide(s); {
	case d > 0:
		c.scaleUp(d, at)
	case d < 0:
		c.drainDown(-d, at)
	}
	c.scheduleTick(at + c.asc.Interval())
}

// snapshot rolls the per-node accounts up and diffs against the previous
// tick's rollup to produce the per-class windows. The rollup becomes the next
// tick's baseline.
func (c *Cluster) snapshot(at sim.Time) *FleetSnapshot {
	s := &FleetSnapshot{Now: at}
	cur := metrics.NewSLOAccount(c.tr.Classes)
	for _, n := range c.Nodes {
		switch n.state {
		case NodeUp:
			s.Up++
		case NodeDraining:
			s.Draining++
		case NodeDown:
			s.Down++
		case NodeRetired:
			s.Retired++
		}
		s.InFlight += n.InFlight()
		if err := cur.Merge(n.Acct); err != nil {
			c.fail(err)
			return s
		}
	}
	s.Window = make([]ClassWindow, len(cur.Classes))
	for i := range cur.Classes {
		cc, pc := &cur.Classes[i], &c.prevWin[i]
		s.Window[i] = ClassWindow{
			Admitted:  cc.Admitted - pc.Admitted,
			Completed: cc.Completed - pc.Completed,
			Missed:    cc.Missed - pc.Missed,
			Lost:      cc.Lost - pc.Lost,
			P99:       cc.Latency.SinceQuantile(&pc.Latency, 0.99),
		}
	}
	c.prevWin = cur.Classes
	return s
}

// scaleUp adds k fresh nodes to the fleet at time at. New nodes use the
// homogeneous base machine config — capacity added by the autoscaler is
// whatever the provider hands out, not a replica of a hand-placed
// heterogeneous box.
func (c *Cluster) scaleUp(k int, at sim.Time) {
	for j := 0; j < k && len(c.Nodes) < MaxNodes; j++ {
		n := &Node{
			Index:         len(c.Nodes),
			Acct:          metrics.NewSLOAccount(c.tr.Classes),
			inflightByApp: make([]int, len(c.tr.Apps)),
			pending:       make(map[int]sim.Time),
			baseCfg:       c.addCfg,
			baseScale:     c.addScale,
			state:         NodeUp,
			upSince:       at,
			hbm:           c.addCfg.GPU.MemSize,
			clu:           c,
			floor:         c.addCfg.PCIe.DispatchFloor(),
		}
		n.memInit()
		if err := c.newSystem(n); err != nil {
			c.fail(fmt.Errorf("cluster: scaling up node %d: %w", n.Index, err))
			return
		}
		c.Nodes = append(c.Nodes, n)
		c.nodeQ.grow(len(c.Nodes))
		c.scaleUps++
		if c.res != nil {
			n.resLive = make(map[int]struct{})
			if c.breakers != nil {
				c.breakers = append(c.breakers, resilience.NewBreaker(*c.res.Breaker))
			}
		}
	}
	if c.res != nil {
		c.drainQueues(at)
	}
}

// drainDown gracefully removes k Up nodes: each victim (the least-loaded Up
// node, ties to the highest index so the newest capacity leaves first) stops
// receiving dispatches and retires once its in-flight requests finish. At
// least one Up node always remains.
func (c *Cluster) drainDown(k int, at sim.Time) {
	for j := 0; j < k; j++ {
		var victim *Node
		ups := 0
		for _, n := range c.Nodes {
			if n.state != NodeUp {
				continue
			}
			ups++
			if victim == nil || n.InFlight() < victim.InFlight() ||
				(n.InFlight() == victim.InFlight() && n.Index > victim.Index) {
				victim = n
			}
		}
		if victim == nil || ups <= 1 {
			return
		}
		victim.state = NodeDraining
		c.drains++
		if victim.InFlight() == 0 {
			c.retire(victim, at)
		}
	}
}

// retire finalizes a drained node: it leaves the fleet and stops accruing
// node-seconds.
func (c *Cluster) retire(n *Node, at sim.Time) {
	n.state = NodeRetired
	n.upTime += at - n.upSince
}
