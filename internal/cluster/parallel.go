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
// Three refinements make the windows long enough to matter:
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
// Latency-floor lookahead. A load-aware Pick at arrival time tA reads fleet
// state — but every admission physically lands floor(n) after its decision
// (the dispatch command must cross the node's PCIe link; see
// pcie.Config.DispatchFloor and Cluster.place), so no decision made in
// [tA, tA+floorMin) can perturb any node engine before tA+floorMin. A
// Lookahead dispatcher declares that its Pick reads only state the boundary
// merge reconstructs (in-flight counts, memory demand, completion feedback),
// which makes this two-level soft-sync protocol safe: (1) run every node in
// parallel to B = min(nextControl, tA+floorMin) — a hard-sync boundary would
// have been tA itself; (2) without tearing down the worker pool, replay the
// window serially as an "arrival micro-merge": buffered completions and the
// batched arrivals interleave in lockstep total order (arrivals before
// same-time node events), each Pick seeing exactly the counters lockstep
// would have shown it; (3) schedule each admission at its decision time plus
// floor(n) — at or after B, so the already-advanced engine accepts it — on a
// sequence slot the node reserved when its in-window run crossed the
// arrival's timestamp (sim.Engine.ReserveSeq), so same-time ties fire in the
// exact lockstep order. Node-local counters (in-flight, per-app, memory
// demand) defer to the merge along with the fleet effects; in-window drain
// checks read Node.liveLocal, which counts the buffered completions.
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
// The resilience layer is the counterexample to all of this: a completion
// there resolves hedges on other nodes, feeds breakers and re-dispatches
// queued work immediately, so the safe lookahead collapses to zero and the
// run stays on the lockstep reference (see DESIGN.md).
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
// Node.InFlight or observing Completed does not.
type LoadOblivious interface {
	// LoadObliviousDispatch is a marker; implementations do nothing.
	LoadObliviousDispatch()
}

// parLoop is the parallel-window equivalent of loop: identical control,
// arrival and MaxSimTime handling, but contiguous runs of node events
// execute as parallel windows with a deterministic merge. Byte-identical to
// loop at any RunConfig.Parallel value.
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
		case c.lookOn && hasA:
			// Latency-floor lookahead: run every node to
			// min(nextControl, tA+floorMin), batching the arrivals inside
			// the floor, then micro-merge arrivals and completions serially.
			steps, progressed := c.runLookahead(c.lookBound(tA))
			if !progressed {
				// Nothing pending at or before the horizon (the remaining
				// arrivals land beyond it) — exactly lockstep's stop.
				c.now = c.rc.MaxSimTime
				return c.err
			}
			processed += steps
		case hasA && (ni < 0 || tA <= tN):
			if tA > c.rc.MaxSimTime {
				c.now = c.rc.MaxSimTime
				return c.err
			}
			if c.oblivious {
				// Batch every arrival up to the control horizon and run the
				// whole gap as one window.
				bound := c.windowBound(false, 0)
				c.preShard(bound)
				if c.err != nil {
					return c.err
				}
				processed += c.runWindow(bound, c.next >= len(c.tr.Arrivals))
				continue
			}
			c.now = tA
			c.dispatch(c.next)
			c.next++
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

// lookBound returns the latency-floor lookahead horizon for a window whose
// earliest undispatched arrival is at tA: the next control event still
// hard-syncs, but the arrival itself does not — no placement decided in
// [tA, tA+floorMin) can land on any node engine before tA+floorMin.
func (c *Cluster) lookBound(tA sim.Time) sim.Time {
	bound := c.rc.MaxSimTime + 1
	if c.ctlHas && c.ctlAt < bound {
		bound = c.ctlAt
	}
	if tA+c.floorMin < bound {
		bound = tA + c.floorMin
	}
	return bound
}

// runLookahead executes one latency-floor lookahead window: batch the
// arrivals strictly before bound, run every node with pending events in
// parallel to the bound (reserving a sequence slot per batched arrival at
// each arrival-time crossing), then micro-merge the batch and the buffered
// completions serially in lockstep total order. Reports the node events
// fired and whether the window made any progress.
func (c *Cluster) runLookahead(bound sim.Time) (uint64, bool) {
	c.batch = c.batch[:0]
	for c.next < len(c.tr.Arrivals) {
		at := c.tr.Arrivals[c.next].At
		if at >= bound {
			break
		}
		c.batch = append(c.batch, shardEnt{i: c.next, at: at})
		c.next++
	}
	active := c.winActive[:0]
	for i, n := range c.Nodes {
		if c.nodeQ.before(i, bound) {
			active = append(active, n)
		}
	}
	c.winActive = active
	if len(active) == 0 && len(c.batch) == 0 {
		return 0, false
	}
	counts := c.stepCounts(len(active))
	c.fanOut(len(active), func(i int) {
		counts[i] = c.runNodeLook(active[i], bound)
	})
	var steps uint64
	for _, s := range counts {
		steps += s
	}
	for _, n := range active {
		c.refresh(n.Index)
	}
	c.mergeLookahead()
	for _, n := range active {
		n.lookRes = false
	}
	return steps, true
}

// runNodeLook fires node n's events strictly before bound, reserving one of
// the engine's sequence slots per batched arrival the moment the engine
// crosses that arrival's timestamp — the exact point the lockstep loop would
// have scheduled the admission, whose seq the reservation therefore
// captures. Every node reserves for every batched arrival (placement is not
// yet decided); unspent slots are harmless.
func (c *Cluster) runNodeLook(n *Node, bound sim.Time) uint64 {
	eng := n.Sys.Eng
	batch := c.batch
	if cap(n.resSeq) < len(batch) {
		n.resSeq = make([]uint64, len(batch))
	}
	n.resSeq = n.resSeq[:len(batch)]
	n.lookRes = true
	var steps uint64
	bp := 0
	for {
		t, ok := eng.Peek()
		for bp < len(batch) && (!ok || batch[bp].at <= t) {
			n.resSeq[bp] = eng.ReserveSeq()
			bp++
		}
		if !ok || t >= bound {
			break
		}
		eng.Step()
		steps++
	}
	for bp < len(batch) {
		n.resSeq[bp] = eng.ReserveSeq()
		bp++
	}
	return steps
}

// mergeLookahead is the arrival micro-merge: replay the batched arrivals and
// the buffered completions in lockstep total order — ascending time, an
// arrival before a same-time completion (lockstep fires arrivals before node
// events), completions tying by node index. Each Pick runs against exactly
// the counters lockstep would have shown it; each admission is scheduled at
// decision time + floor(n) on the sequence slot the chosen node reserved.
func (c *Cluster) mergeLookahead() {
	bp := 0
	for c.err == nil {
		var best *Node
		for _, n := range c.winActive {
			if n.winPos < len(n.winBuf) && (best == nil || n.winBuf[n.winPos].at < best.winBuf[best.winPos].at) {
				best = n
			}
		}
		if bp < len(c.batch) && (best == nil || c.batch[bp].at <= best.winBuf[best.winPos].at) {
			a := c.batch[bp]
			c.now = a.at
			c.lookPlace(a.i, a.at, bp)
			bp++
			continue
		}
		if best == nil {
			break
		}
		c.applyWinEv(best)
	}
	c.resetWinBufs(c.winActive)
}

// lookPlace is place for a micro-merged arrival: identical protocol, but the
// admission lands on the reserved sequence slot when the chosen node ran in
// this window (an idle node's sequence counter already matches lockstep's,
// so a plain schedule is exact there).
func (c *Cluster) lookPlace(i int, at sim.Time, bp int) {
	n := c.pickNode(i, at)
	if n == nil {
		return
	}
	c.placeOn(n, i, at)
	if n.lookRes {
		n.Sys.Eng.AtSeqFunc(at+n.floor, n.resSeq[bp], admitEvent, n, int64(i))
	} else {
		n.Sys.Eng.AtFunc(at+n.floor, admitEvent, n, int64(i))
	}
	c.refresh(n.Index)
}

// windowBound returns the conservative lookahead horizon: the earliest
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
	var steps uint64
	if final {
		steps = c.runFinal(active, bound)
	} else {
		counts := c.stepCounts(len(active))
		c.fanOut(len(active), func(i int) {
			counts[i] = c.runNodeTo(active[i], bound)
		})
		for _, s := range counts {
			steps += s
		}
	}
	for _, n := range active {
		c.refresh(n.Index)
	}
	c.mergeWindow(active)
	return steps
}

// stepCounts returns the per-active-node step-count scratch, zeroed and
// sized to n — windows fire millions of times per run, so the buffer is
// reused rather than reallocated.
func (c *Cluster) stepCounts(n int) []uint64 {
	if cap(c.winCounts) < n {
		c.winCounts = make([]uint64, n)
	}
	c.winCounts = c.winCounts[:n]
	clear(c.winCounts)
	return c.winCounts
}

// fanOut runs fn(0..n-1) on the window pool, or inline when the pool is
// absent (Parallel <= 1) or the window touches a single node.
func (c *Cluster) fanOut(n int, fn func(int)) {
	if c.pool == nil || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	c.pool.Run(n, fn)
}

// runNodeTo fires node n's events strictly before bound, interleaving any
// pre-sharded admissions at their lockstep insertion points: an admission at
// time t is inserted into the engine the moment the engine's next pending
// event is at or after t (or the engine is idle), exactly when the lockstep
// loop would have called Eng.At — so equal-time events keep their FIFO
// insertion order and the run stays byte-identical.
func (c *Cluster) runNodeTo(n *Node, bound sim.Time) uint64 {
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
	}
	n.shard = n.shard[:0]
	return steps
}

// runNodeDrain is runNodeTo for pass one of a final window: it additionally
// stops the moment the node's own in-flight population hits zero (liveLocal:
// completions buffered for the merge count), recording the draining
// completion's time in *fin (which stays negative if the node was still busy
// at the bound).
func (c *Cluster) runNodeDrain(n *Node, bound sim.Time, fin *sim.Time) uint64 {
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
		if n.liveLocal() == 0 && sp == len(n.shard) {
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
	counts := c.stepCounts(len(active))
	if cap(c.finTimes) < len(active) {
		c.finTimes = make([]sim.Time, len(active))
	}
	fins := c.finTimes[:len(active)]
	// Pass one: nodes with live work drain or hit the bound. Nodes holding
	// only residual events wait — how far they may run depends on where the
	// global finish lands.
	c.fanOut(len(active), func(i int) {
		fins[i] = -1
		n := active[i]
		if n.liveLocal() == 0 && len(n.shard) == 0 {
			return
		}
		counts[i] = c.runNodeDrain(n, bound, &fins[i])
	})
	totalIn := 0
	for _, n := range c.Nodes {
		totalIn += n.liveLocal()
	}
	if totalIn > 0 {
		// Some node is still busy at the bound (or holds work with no event
		// before it), so the run does not end in this window and every event
		// before the bound fires, exactly as lockstep with done() false.
		c.fanOut(len(active), func(i int) {
			counts[i] += c.runNodeTo(active[i], bound)
		})
	} else {
		// The fleet drained: the run ends at T*, the latest per-node drain
		// time, resolved by the highest-index node finishing there. Replay
		// the residual events lockstep would still have fired: all of a
		// lower-index node's events at T* precede node k's resolving
		// completion; a higher-index node's events at T* never fire.
		tstar, k := sim.Time(-1), -1
		for i, n := range active {
			if fins[i] >= 0 && (fins[i] > tstar || (fins[i] == tstar && n.Index > k)) {
				tstar, k = fins[i], n.Index
			}
		}
		c.fanOut(len(active), func(i int) {
			n := active[i]
			switch {
			case n.Index < k:
				counts[i] += c.runNodeUntil(n, tstar)
			case n.Index > k:
				counts[i] += c.runNodeUntil(n, tstar-1)
			}
		})
	}
	var steps uint64
	for _, s := range counts {
		steps += s
	}
	return steps
}

// mergeWindow replays the completions buffered during a window in the
// lockstep total order — ascending time, ties by node index, each node's
// buffer already engine-ordered — applying the node- and cluster-visible
// effects the in-window callbacks deferred. It also promotes the
// lowest-index node's window error, keeping failures deterministic at any
// worker count.
func (c *Cluster) mergeWindow(active []*Node) {
	for {
		var best *Node
		for _, n := range active {
			if n.winPos < len(n.winBuf) && (best == nil || n.winBuf[n.winPos].at < best.winBuf[best.winPos].at) {
				best = n
			}
		}
		if best == nil {
			break
		}
		c.applyWinEv(best)
	}
	c.resetWinBufs(active)
}

// applyWinEv replays node n's next buffered completion: the deferred node
// counters, the fleet counter, the dispatcher feedback, and the drained-node
// retirement check — which reads the same counters lockstep's inline check
// would, because a Draining node receives no placements mid-window.
func (c *Cluster) applyWinEv(n *Node) {
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

// resetWinBufs clears the window buffers and promotes the lowest-index
// node's window error.
func (c *Cluster) resetWinBufs(active []*Node) {
	for _, n := range active {
		n.winBuf = n.winBuf[:0]
		n.winPos = 0
		if n.winErr != nil {
			c.fail(n.winErr)
			n.winErr = nil
		}
	}
}
