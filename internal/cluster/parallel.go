// Parallel-in-time cluster execution.
//
// The lockstep loop in cluster.go is the reference semantics: fire the
// globally earliest event across the control engine, the arrival stream and
// every node engine, with ties broken control < arrivals < node events and
// node events by index. That total order is also why one cluster run is
// single-threaded — every event waits for the global minimum.
//
// The observation that unlocks parallelism is that nodes only interact
// through three serialization points, all of which are visible in advance:
//
//   - the next control event (autoscaler tick, kill, restart) at ctlAt,
//   - the next undispatched arrival at tA (its dispatch may read fleet-wide
//     load), and
//   - MaxSimTime.
//
// Between now and B = min(tA, ctlAt, MaxSimTime+1) every pending node event
// is node-local: an event on node i can only schedule on node i, and no
// dispatch or fleet mutation can land before B. So all node engines may run
// their events strictly before B independently — in parallel — provided the
// cross-node effects of completions (the fleet counter, Dispatcher.Completed
// feedback, drained-node retirement) are buffered and replayed at the window
// boundary in exactly the lockstep order: ascending (time, node index), with
// each node's buffer already in its engine's firing order. After the merge
// the cluster state is indistinguishable from having run lockstep to B.
//
// Two refinements make the windows long enough to matter and exact:
//
// Pre-sharding. A LoadOblivious dispatcher's Pick reads nothing but its own
// internal state, so arrival dispatch stops being a serialization point: the
// loop batches every arrival before the next control event, runs the
// bookkeeping and Pick serially in arrival order (the eligible Up-set only
// changes at control events), and appends each decision to the chosen node's
// shard. The window then extends to the control horizon and each node
// interleaves its shard into its own engine exactly where the lockstep
// insertion would have happened: an admission is inserted the moment the
// engine's next pending event is at or after the arrival time, which
// reproduces the engine's insertion-order tie-break (equal-time events fire
// FIFO by insertion) verbatim. On a fixed fleet with no faults this makes
// the whole run one window per control gap — or a single window.
//
// Final windows. Once the stream is exhausted, the run must stop at the
// exact completion that resolves the last request — lockstep checks done()
// before every event, leaving residual events (timeslice timers and the
// like) unfired. A final window runs two passes: pass one lets every node
// with live work drain (stopping the moment its own in-flight count hits
// zero) or hit the bound; if everyone drained, the global finish is
// T* = max over nodes of their last completion time, resolved by node k,
// the highest index finishing at T*. Pass two then replays exactly the
// residual events lockstep would have fired before that completion: nodes
// below k run through T*, nodes above k run strictly before T*, node k
// stays put. If some node was still busy at the bound, no global finish
// happened in the window and everyone simply tops up to the bound.
//
// Only pre-sharded runs take windows. A load-aware Pick reads fleet load, so
// the next arrival bounds every window and the serial merge between short
// windows costs what the parallel node work saves; such runs stay on the
// lockstep reference (DESIGN.md "Why load-aware dispatch runs lockstep"). So
// does every run with the resilience layer armed: a completion there
// resolves hedges on other nodes, feeds breakers and re-dispatches queued
// work immediately, so no window is safe.
package cluster

import (
	"repro/internal/sim"
)

// winEv is one completion buffered inside a parallel window: everything the
// merge needs to replay the completion's effects — the node's own counters
// as much as the fleet's — in lockstep order. Per-node buffers are appended
// in engine firing order, so (at, node index, buffer position) reproduces
// the lockstep total order.
type winEv struct {
	at         sim.Time
	class, app int
	exec       sim.Time
}

// shardEnt is one pre-sharded arrival awaiting engine insertion by the
// window runner: the dispatch decision is already made and booked, only the
// engine-side admission event is deferred so it lands with the same
// insertion-order seq as the lockstep path.
type shardEnt struct {
	i  int // arrival index
	at sim.Time
}

// LoadOblivious marks a Dispatcher whose Pick and hooks depend only on the
// dispatcher's own internal state and the eligible-set size — never on node
// load or completion feedback. For such a policy the parallel-window loop
// pre-computes dispatch decisions for whole arrival batches (the eligible
// set is constant between control events), which extends windows to the
// control horizon. Round-robin qualifies; any policy reading
// Node.InFlight or observing Completed does not, and runs lockstep whatever
// RunConfig.Parallel asks for.
type LoadOblivious interface {
	// LoadObliviousDispatch is a marker; implementations do nothing.
	LoadObliviousDispatch()
}

// parLoop is the parallel-window equivalent of loop for a LoadOblivious
// dispatcher: identical control, arrival and MaxSimTime handling, but
// arrivals pre-shard and contiguous runs of node events execute as parallel
// windows with a deterministic merge. Byte-identical to loop at any
// RunConfig.Parallel value.
func (c *Cluster) parLoop() error {
	var processed uint64
	for c.err == nil {
		if c.done() {
			return c.err
		}
		if processed >= c.rc.MaxEvents {
			break
		}
		hasA := c.next < len(c.tr.Arrivals)
		var tA sim.Time
		if hasA {
			tA = c.tr.Arrivals[c.next].At
		}
		ni, tN := c.nodeQ.min()
		switch {
		case c.ctlHas && (!hasA || c.ctlAt <= tA) && (ni < 0 || c.ctlAt <= tN):
			if c.ctlAt > c.rc.MaxSimTime {
				c.now = c.rc.MaxSimTime
				return c.err
			}
			c.now = c.ctlAt
			c.ctl.Step()
			c.refreshCtl()
			processed++
		case hasA && (ni < 0 || tA <= tN):
			if tA > c.rc.MaxSimTime {
				c.now = c.rc.MaxSimTime
				return c.err
			}
			// Batch every arrival up to the control horizon and run the
			// whole gap as one window.
			bound := c.windowBound(false, 0)
			c.preShard(bound)
			if c.err != nil {
				return c.err
			}
			processed += c.runWindow(bound, c.next >= len(c.tr.Arrivals))
		case ni >= 0:
			if tN > c.rc.MaxSimTime {
				c.now = c.rc.MaxSimTime
				return c.err
			}
			processed += c.runWindow(c.windowBound(hasA, tA), !hasA)
		default:
			return c.err
		}
	}
	return c.err
}

// windowBound returns the conservative window horizon: the earliest
// moment a cross-node interaction could occur. Events strictly before the
// bound are safe to run node-locally.
func (c *Cluster) windowBound(hasA bool, tA sim.Time) sim.Time {
	bound := c.rc.MaxSimTime + 1
	if c.ctlHas && c.ctlAt < bound {
		bound = c.ctlAt
	}
	if hasA && tA < bound {
		bound = tA
	}
	return bound
}

// preShard consumes every consecutive arrival strictly before the bound
// (control events win timestamp ties, so an arrival at the control time
// must see the post-control fleet) and at most MaxSimTime, running the
// dispatch decision and bookkeeping serially in arrival order and deferring
// only the engine insertion to the window runner.
func (c *Cluster) preShard(bound sim.Time) {
	for c.next < len(c.tr.Arrivals) {
		at := c.tr.Arrivals[c.next].At
		if at >= bound || at > c.rc.MaxSimTime {
			return
		}
		n := c.pickNode(c.next, at)
		if n == nil {
			return
		}
		c.placeOn(n, c.next, at)
		n.shard = append(n.shard, shardEnt{i: c.next, at: at})
		c.next++
	}
}

// runWindow executes one parallel window up to bound and merges the results:
// collect the nodes with work before the bound, run them (in parallel when a
// pool exists), re-cache their engine peeks, and replay the buffered
// completions in lockstep order. Returns the number of node events fired.
func (c *Cluster) runWindow(bound sim.Time, final bool) uint64 {
	active := c.winActive[:0]
	for i, n := range c.Nodes {
		if c.nodeQ.before(i, bound) || len(n.shard) > 0 {
			active = append(active, n)
		}
	}
	c.winActive = active
	if len(active) == 0 {
		return 0
	}
	// Zero the per-active-node step counts the passes accumulate into.
	if cap(c.winCounts) < len(active) {
		c.winCounts = make([]uint64, len(active))
	}
	c.winCounts = c.winCounts[:len(active)]
	clear(c.winCounts)
	var steps uint64
	if final {
		steps = c.runFinal(active, bound)
	} else {
		steps = c.fanOut(winTo, bound)
	}
	for _, n := range active {
		c.refresh(n.Index)
	}
	c.mergeWindow(active)
	return steps
}

// winPass names the per-node work one fan-out runs over the active nodes.
type winPass uint8

const (
	winTo       winPass = iota // runNodeTo the bound
	winDrain                   // final pass one: runNodeTo the bound or the node's drain
	winResidual                // final pass two: replay the residual events around T*
)

// fanOut runs pass over every active node on the window pool (inline when
// the pool has one participant or the window touches a single node) and
// returns the window's step count so far — passes accumulate into the
// counts runWindow zeroed when the window began. The pass parameters live
// on the Cluster and the pool's job is a method value bound once per run,
// so a window allocates nothing.
func (c *Cluster) fanOut(pass winPass, bound sim.Time) uint64 {
	c.winPass, c.winBound = pass, bound
	c.pool.Run(len(c.winActive), c.runActiveFn)
	var steps uint64
	for _, s := range c.winCounts {
		steps += s
	}
	return steps
}

// runActive runs the current pass on active node i, adding its fired events
// to the node's step count. Each call touches only its own node and its own
// slots of the window scratch.
func (c *Cluster) runActive(i int) {
	n := c.winActive[i]
	switch c.winPass {
	case winTo:
		c.winCounts[i] += c.runNodeTo(n, c.winBound, nil)
	case winDrain:
		c.finTimes[i] = -1
		if n.liveLocal() == 0 && len(n.shard) == 0 {
			return
		}
		c.winCounts[i] += c.runNodeTo(n, c.winBound, &c.finTimes[i])
	case winResidual:
		switch {
		case n.Index < c.finNode:
			c.winCounts[i] += c.runNodeUntil(n, c.winBound)
		case n.Index > c.finNode:
			c.winCounts[i] += c.runNodeUntil(n, c.winBound-1)
		}
	}
}

// runNodeTo fires node n's events strictly before bound, interleaving any
// pre-sharded admissions at their lockstep insertion points: an admission at
// time t is inserted into the engine the moment the engine's next pending
// event is at or after t (or the engine is idle), exactly when the lockstep
// loop would have called Eng.At — so equal-time events keep their FIFO
// insertion order and the run stays byte-identical. A non-nil fin marks
// pass one of a final window: the run also stops the moment the node's own
// in-flight population hits zero with its shard consumed (liveLocal:
// completions buffered for the merge count), recording the draining
// completion's time in *fin (left alone if the node is still busy at the
// bound).
func (c *Cluster) runNodeTo(n *Node, bound sim.Time, fin *sim.Time) uint64 {
	eng := n.Sys.Eng
	var steps uint64
	sp := 0
	for {
		t, ok := eng.Peek()
		for sp < len(n.shard) && (!ok || n.shard[sp].at <= t) {
			s := n.shard[sp]
			sp++
			eng.AtFunc(s.at+n.floor, admitEvent, n, int64(s.i))
			t, ok = eng.Peek()
		}
		if !ok || t >= bound {
			break
		}
		eng.Step()
		steps++
		if fin != nil && n.liveLocal() == 0 && sp == len(n.shard) {
			*fin = eng.Now()
			break
		}
	}
	n.shard = n.shard[:0]
	return steps
}

// runNodeUntil fires node n's events at or before limit (pass two of a
// final window: residual, non-completing events only).
func (c *Cluster) runNodeUntil(n *Node, limit sim.Time) uint64 {
	eng := n.Sys.Eng
	var steps uint64
	for {
		t, ok := eng.Peek()
		if !ok || t > limit {
			break
		}
		eng.Step()
		steps++
	}
	return steps
}

// runFinal executes a window in which the run may end: the arrival stream is
// exhausted, so the completion resolving the last in-flight request must be
// the run's final fired event, exactly as lockstep's done()-before-every-
// event check guarantees.
func (c *Cluster) runFinal(active []*Node, bound sim.Time) uint64 {
	if cap(c.finTimes) < len(active) {
		c.finTimes = make([]sim.Time, len(active))
	}
	c.finTimes = c.finTimes[:len(active)]
	// Pass one: nodes with live work drain or hit the bound. Nodes holding
	// only residual events wait — how far they may run depends on where the
	// global finish lands.
	c.fanOut(winDrain, bound)
	totalIn := 0
	for _, n := range c.Nodes {
		totalIn += n.liveLocal()
	}
	if totalIn > 0 {
		// Some node is still busy at the bound (or holds work with no event
		// before it), so the run does not end in this window and every event
		// before the bound fires, exactly as lockstep with done() false.
		return c.fanOut(winTo, bound)
	}
	// The fleet drained: the run ends at T*, the latest per-node drain time,
	// resolved by node k, the highest index finishing there. Replay the
	// residual events lockstep would still have fired: all of a lower-index
	// node's events at T* precede node k's resolving completion; a
	// higher-index node's events at T* never fire.
	tstar, k := sim.Time(-1), -1
	for i, n := range active {
		if fin := c.finTimes[i]; fin >= 0 && (fin > tstar || (fin == tstar && n.Index > k)) {
			tstar, k = fin, n.Index
		}
	}
	c.finNode = k
	return c.fanOut(winResidual, tstar)
}

// mergeWindow replays the completions buffered during a window in the
// lockstep total order — ascending time, ties by node index, each node's
// buffer already engine-ordered — applying the effects the in-window
// callbacks deferred: the node counters, the fleet counter, the dispatcher
// feedback, and the drained-node retirement check, which reads the same
// counters lockstep's inline check would because a Draining node receives
// no placements mid-window. It then clears the buffers and promotes the
// lowest-index node's window error, keeping failures deterministic at any
// worker count.
func (c *Cluster) mergeWindow(active []*Node) {
	for {
		var n *Node
		for _, m := range active {
			if m.winPos < len(m.winBuf) && (n == nil || m.winBuf[m.winPos].at < n.winBuf[n.winPos].at) {
				n = m
			}
		}
		if n == nil {
			break
		}
		ev := &n.winBuf[n.winPos]
		n.winPos++
		c.now = ev.at
		n.finished++
		n.inflightByApp[ev.app]--
		n.memDemand -= c.ws[ev.app]
		c.finished++
		c.disp.Completed(n.Index, ev.class, ev.app, ev.exec)
		if n.state == NodeDraining && n.InFlight() == 0 {
			c.retire(n, ev.at)
		}
	}
	for _, n := range active {
		n.winBuf = n.winBuf[:0]
		n.winPos = 0
		if n.winErr != nil {
			c.fail(n.winErr)
			n.winErr = nil
		}
	}
}
