// Package probe is the traced half of the repository benchmark. It wraps the
// pluggable layers a run already accepts — the cluster Dispatcher and the
// per-node Policy and Mechanism factories — with timing wrappers, reruns a
// workload through the internal packages with them in place, and times the
// admission path and substrate primitives in isolated loops. It imports
// internal packages, so an internal refactor can break it without touching
// the end-to-end numbers.
package probe

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// Layer is a traced layer boundary.
type Layer int

// Traced layers. The dispatch layer is Pick plus its load hooks (Dispatched,
// Completed); policy spans every core.Policy call; preempt spans Preempt and
// OnTBFinished; observe spans the TBObserver feed of the adaptive
// mechanism's runtime predictor.
const (
	LayerHooks Layer = iota
	LayerPick
	LayerPolicy
	LayerPreempt
	LayerObserve
	numLayers
)

var layerNames = [numLayers]string{"dispatch-hooks", "pick", "policy", "preempt", "observe"}

// String names the layer.
func (l Layer) String() string { return layerNames[l] }

// Stat accumulates one layer's spans: the call count and the self time in
// nanoseconds (each span's duration minus the time its nested child spans
// cover).
type Stat struct {
	Calls uint64
	Self  int64
}

func (s *Stat) add(o Stat) {
	s.Calls += o.Calls
	s.Self += o.Self
}

// SelfPerCall is the mean self time per call in nanoseconds.
func (s Stat) SelfPerCall() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Self) / float64(s.Calls)
}

// Span is one recorded call.
type Span struct {
	Layer      Layer
	Depth      int32
	Start, Dur time.Duration // Start is relative to the tracer's origin
}

// spanCap bounds each recorder's kept spans, so a long run's trace file
// stays small; the statistics count every call.
const spanCap = 256

// recorder is one track's span buffer and self-time stack. Each node
// incarnation's policy and mechanism share one recorder (they run on the
// same goroutine, and a policy call can nest a mechanism call); the
// dispatcher has its own. No two goroutines ever touch one recorder.
type recorder struct {
	track  int
	origin time.Time
	stats  [numLayers]Stat
	stack  []time.Duration // covered child time of each open span
	spans  []Span
	eng    *sim.Engine // the node engine, captured on first policy call
}

func (r *recorder) enter() time.Time {
	r.stack = append(r.stack, 0)
	return time.Now()
}

func (r *recorder) exit(l Layer, start time.Time) {
	dur := time.Since(start)
	top := len(r.stack) - 1
	self := dur - r.stack[top]
	r.stack = r.stack[:top]
	if top > 0 {
		r.stack[top-1] += dur
	}
	st := &r.stats[l]
	st.Calls++
	st.Self += int64(self)
	if len(r.spans) < spanCap {
		r.spans = append(r.spans, Span{Layer: l, Depth: int32(top), Start: start.Sub(r.origin), Dur: dur})
	}
}

// Tracer hands out recorders to the wrappers of one traced run and sums
// them when it ends.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	recs   []*recorder
	last   *recorder // the policy's recorder, claimed by the next mechanism
}

// NewTracer starts a tracer whose span times count from now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

func (t *Tracer) newRecorder() *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{track: len(t.recs), origin: t.origin}
	t.recs = append(t.recs, r)
	return r
}

// Stats sums every recorder's statistics by layer.
func (t *Tracer) Stats() [numLayers]Stat {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [numLayers]Stat
	for _, r := range t.recs {
		for l := range out {
			out[l].add(r.stats[l])
		}
	}
	return out
}

// Events sums the events processed by every node engine the wrappers saw.
func (t *Tracer) Events() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, r := range t.recs {
		if r.eng != nil {
			n += r.eng.Processed()
		}
	}
	return n
}

// Spans returns the kept spans of every track, keyed by track.
func (t *Tracer) Spans() map[int][]Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int][]Span, len(t.recs))
	for _, r := range t.recs {
		out[r.track] = r.spans
	}
	return out
}

// Policy wraps a policy factory: each instance gets a fresh recorder.
// Machines are built as system.New(cfg, policy(n), mechanism()), so the
// mechanism factory call that follows pairs with the same recorder.
func (t *Tracer) Policy(f func(int) core.Policy) func(int) core.Policy {
	return func(n int) core.Policy {
		r := t.newRecorder()
		t.mu.Lock()
		t.last = r
		t.mu.Unlock()
		return &policyW{in: f(n), r: r}
	}
}

// Mechanism wraps a mechanism factory, forwarding core.TBObserver exactly
// when the wrapped mechanism implements it.
func (t *Tracer) Mechanism(f func() core.Mechanism) func() core.Mechanism {
	if f == nil {
		return nil
	}
	return func() core.Mechanism {
		t.mu.Lock()
		r := t.last
		t.last = nil
		t.mu.Unlock()
		if r == nil {
			r = t.newRecorder()
		}
		in := f()
		w := &mechW{in: in, r: r}
		if obs, ok := in.(core.TBObserver); ok {
			return &mechObsW{mechW: w, obs: obs}
		}
		return w
	}
}

type policyW struct {
	in core.Policy
	r  *recorder
}

func (p *policyW) see(fw *core.Framework) time.Time {
	if p.r.eng == nil {
		p.r.eng = fw.Engine()
	}
	return p.r.enter()
}

func (p *policyW) Name() string { return p.in.Name() }

func (p *policyW) PickPending(fw *core.Framework) int {
	t := p.see(fw)
	id := p.in.PickPending(fw)
	p.r.exit(LayerPolicy, t)
	return id
}

func (p *policyW) OnActivated(fw *core.Framework, k core.KernelID) {
	t := p.see(fw)
	p.in.OnActivated(fw, k)
	p.r.exit(LayerPolicy, t)
}

func (p *policyW) OnSMIdle(fw *core.Framework, smID int) {
	t := p.see(fw)
	p.in.OnSMIdle(fw, smID)
	p.r.exit(LayerPolicy, t)
}

func (p *policyW) OnPreemptionDone(fw *core.Framework, smID int) {
	t := p.see(fw)
	p.in.OnPreemptionDone(fw, smID)
	p.r.exit(LayerPolicy, t)
}

func (p *policyW) OnKernelFinished(fw *core.Framework, k core.KernelID) {
	t := p.see(fw)
	p.in.OnKernelFinished(fw, k)
	p.r.exit(LayerPolicy, t)
}

func (p *policyW) OnSMAttached(fw *core.Framework, k core.KernelID, smID int) {
	t := p.see(fw)
	p.in.OnSMAttached(fw, k, smID)
	p.r.exit(LayerPolicy, t)
}

func (p *policyW) OnSMDetached(fw *core.Framework, k core.KernelID, smID int) {
	t := p.see(fw)
	p.in.OnSMDetached(fw, k, smID)
	p.r.exit(LayerPolicy, t)
}

type mechW struct {
	in core.Mechanism
	r  *recorder
}

func (m *mechW) Name() string { return m.in.Name() }

func (m *mechW) Preempt(fw *core.Framework, smID int) {
	t := m.r.enter()
	m.in.Preempt(fw, smID)
	m.r.exit(LayerPreempt, t)
}

func (m *mechW) OnTBFinished(fw *core.Framework, smID int) {
	t := m.r.enter()
	m.in.OnTBFinished(fw, smID)
	m.r.exit(LayerPreempt, t)
}

type mechObsW struct {
	*mechW
	obs core.TBObserver
}

func (m *mechObsW) ObserveTBFinished(fw *core.Framework, k core.KernelID, smID int, elapsed sim.Time, restored bool) {
	t := m.r.enter()
	m.obs.ObserveTBFinished(fw, k, smID, elapsed, restored)
	m.r.exit(LayerObserve, t)
}

// Dispatcher wraps d so every Pick and load hook is timed. The wrapper
// implements exactly the optional interfaces d implements — the cluster
// type-asserts them to choose its executor path — and refuses a combination
// it cannot mirror rather than silently changing the path.
func (t *Tracer) Dispatcher(d cluster.Dispatcher) (cluster.Dispatcher, error) {
	b := &dispW{in: d, r: t.newRecorder()}
	var w cluster.Dispatcher
	switch optional(d) {
	case 0:
		w = b
	case optLookahead:
		w = dispLook{b}
	case optLookahead | optWarm:
		w = dispLookWarm{b}
	case optLookahead | optWarm | optWorkingSet:
		w = dispLookWarmWS{b}
	case optOblivious | optWarm:
		w = dispObliviousWarm{b}
	default:
		return nil, fmt.Errorf("probe: no wrapper mirrors dispatcher %s's optional interfaces %04b", d.Name(), optional(d))
	}
	if optional(w) != optional(d) {
		return nil, fmt.Errorf("probe: wrapper of %s implements %04b, dispatcher %04b", d.Name(), optional(w), optional(d))
	}
	return w, nil
}

// Optional dispatcher interfaces, as a bit set.
const (
	optOblivious = 1 << iota
	optLookahead
	optWarm
	optWorkingSet
)

func optional(d cluster.Dispatcher) int {
	m := 0
	if _, ok := d.(cluster.LoadOblivious); ok {
		m |= optOblivious
	}
	if _, ok := d.(cluster.Lookahead); ok {
		m |= optLookahead
	}
	if _, ok := d.(cluster.WarmStater); ok {
		m |= optWarm
	}
	if _, ok := d.(cluster.WorkingSetAware); ok {
		m |= optWorkingSet
	}
	return m
}

type dispW struct {
	in cluster.Dispatcher
	r  *recorder
}

func (d *dispW) Name() string { return d.in.Name() }

func (d *dispW) Reset(nodes, classes, apps int) { d.in.Reset(nodes, classes, apps) }

func (d *dispW) Pick(at sim.Time, class, app int, nodes []*cluster.Node) int {
	t := d.r.enter()
	p := d.in.Pick(at, class, app, nodes)
	d.r.exit(LayerPick, t)
	return p
}

func (d *dispW) Dispatched(node, class, app int) {
	t := d.r.enter()
	d.in.Dispatched(node, class, app)
	d.r.exit(LayerHooks, t)
}

func (d *dispW) Completed(node, class, app int, exec sim.Time) {
	t := d.r.enter()
	d.in.Completed(node, class, app, exec)
	d.r.exit(LayerHooks, t)
}

func (d *dispW) lookaheadReads() []cluster.StateRead {
	return d.in.(cluster.Lookahead).LookaheadReads()
}
func (d *dispW) warmState() any      { return d.in.(cluster.WarmStater).WarmState() }
func (d *dispW) warmStart(state any) { d.in.(cluster.WarmStater).WarmStart(state) }
func (d *dispW) setWorkingSets(ws []int64) {
	d.in.(cluster.WorkingSetAware).SetWorkingSets(ws)
}

type dispLook struct{ *dispW }

func (d dispLook) LookaheadReads() []cluster.StateRead { return d.lookaheadReads() }

type dispLookWarm struct{ *dispW }

func (d dispLookWarm) LookaheadReads() []cluster.StateRead { return d.lookaheadReads() }
func (d dispLookWarm) WarmState() any                      { return d.warmState() }
func (d dispLookWarm) WarmStart(state any)                 { d.warmStart(state) }

type dispLookWarmWS struct{ *dispW }

func (d dispLookWarmWS) LookaheadReads() []cluster.StateRead { return d.lookaheadReads() }
func (d dispLookWarmWS) WarmState() any                      { return d.warmState() }
func (d dispLookWarmWS) WarmStart(state any)                 { d.warmStart(state) }
func (d dispLookWarmWS) SetWorkingSets(ws []int64)           { d.setWorkingSets(ws) }

type dispObliviousWarm struct{ *dispW }

func (d dispObliviousWarm) LoadObliviousDispatch() {}
func (d dispObliviousWarm) WarmState() any         { return d.warmState() }
func (d dispObliviousWarm) WarmStart(state any)    { d.warmStart(state) }

// WriteSpans writes the kept spans as Chrome trace-event JSON (one track per
// recorder), which Perfetto and chrome://tracing open directly.
func WriteSpans(w io.Writer, spans map[int][]Span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"traceEvents":[`)
	first := true
	tracks := make([]int, 0, len(spans))
	for k := range spans {
		tracks = append(tracks, k)
	}
	sort.Ints(tracks)
	for _, k := range tracks {
		for _, s := range spans[k] {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"depth":%d}}`,
				s.Layer.String(), k, float64(s.Start)/1e3, float64(s.Dur)/1e3, s.Depth)
		}
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}
