package arrivals

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/preempt"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
)

// RunConfig parameterizes an open-system simulation.
type RunConfig struct {
	// Sys is the machine configuration. When Sys.ContextCapacity is zero it
	// is sized to the arrival count so admission never fails (retired
	// contexts free their slots, but an overloaded sweep can hold every
	// request in flight at once).
	Sys system.Config
	// Policy builds the scheduling policy; it receives the number of
	// service classes (the open-system analogue of the process count the
	// closed-workload policies are sized with).
	Policy func(nClasses int) core.Policy
	// Mechanism builds the preemption mechanism (nil = none: reserving an
	// SM becomes a bug, as in closed workloads without a mechanism).
	Mechanism func() core.Mechanism
	// MaxSimTime aborts the simulation at this virtual time (0 = 120s).
	MaxSimTime sim.Time
	// MaxEvents aborts the simulation after this many events (0 = 2e9).
	MaxEvents uint64
	// AdmitDelay defers each arrival's admission this far past its arrival
	// time — the dispatch-path latency floor a cluster node pays between the
	// dispatch decision and the admission landing on its engine
	// (pcie.Config.DispatchFloor). Latency accounting still measures from
	// the arrival time. Zero (the default) admits at the arrival time; the
	// delay exists so differential tests can decompose a cluster run into
	// per-node single-machine runs bit-for-bit.
	AdmitDelay sim.Time
}

func (rc *RunConfig) defaults() {
	if rc.MaxSimTime <= 0 {
		rc.MaxSimTime = 120 * sim.Second
	}
	if rc.MaxEvents == 0 {
		rc.MaxEvents = 2e9
	}
	if rc.Mechanism == nil {
		rc.Mechanism = func() core.Mechanism { return preempt.None{} }
	}
}

// Result reports a completed open-system simulation.
type Result struct {
	// Classes holds the per-class streaming SLO accounting, in trace class
	// order.
	Classes []metrics.ClassSLO
	// Admitted counts requests admitted; Completed counts requests whose
	// run finished before the simulation ended; InFlight is the admitted
	// population still in the machine at the end (conservation:
	// Admitted == Completed + InFlight always holds); Missed counts
	// completed requests that blew their class deadline.
	Admitted, Completed, InFlight, Missed int
	// EndTime is the virtual time the simulation stopped.
	EndTime sim.Time
	// Utilization is the SM busy fraction over the simulation.
	Utilization float64
	// Goodput is SLO-compliant completions per simulated second.
	Goodput float64
	// Stats snapshots the execution-engine counters.
	Stats core.Stats
}

// engine drives one open-system simulation: it injects arrivals as virtual
// time reaches them, admits a fresh process per request, and retires the
// process's context when its run completes.
type engine struct {
	sys      *system.System
	tr       *trace.ArrivalTrace
	acct     *metrics.SLOAccount
	delay    sim.Time // RunConfig.AdmitDelay
	admitted int
	finished int
	err      error
}

// ContextCapacityFor returns the context-table capacity open-system runs
// default to when none is configured: the stream's arrival count plus
// slack, so admission never fails even when an overloaded sweep holds every
// request in flight at once. The cluster layer sizes every node with it, so
// the guarantee holds for any placement.
func ContextCapacityFor(tr *trace.ArrivalTrace) int { return len(tr.Arrivals) + 8 }

// Run simulates the arrival trace on the configured machine and reports the
// streaming SLO metrics. The simulation stops when every admitted request
// has completed (or at MaxSimTime, leaving the remainder in flight).
func Run(tr *trace.ArrivalTrace, rc RunConfig) (*Result, error) {
	rc.defaults()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if rc.Policy == nil {
		return nil, fmt.Errorf("arrivals: no policy factory")
	}
	if rc.AdmitDelay < 0 {
		return nil, fmt.Errorf("arrivals: negative AdmitDelay %v", rc.AdmitDelay)
	}
	sysCfg := rc.Sys
	if sysCfg.ContextCapacity <= 0 {
		sysCfg.ContextCapacity = ContextCapacityFor(tr)
	}
	sys, err := system.New(sysCfg, rc.Policy(len(tr.Classes)), rc.Mechanism())
	if err != nil {
		return nil, err
	}
	sys.Eng.SetMaxEvents(rc.MaxEvents)

	e := &engine{sys: sys, tr: tr, acct: metrics.NewSLOAccount(tr.Classes), delay: rc.AdmitDelay}
	// Arrivals chain-schedule: each injection schedules the next, so the
	// event heap holds one pending arrival at a time.
	sys.Eng.At(tr.Arrivals[0].At+e.delay, func() { e.inject(0) })
	sys.Eng.At(rc.MaxSimTime, func() { sys.Eng.Stop() })

	if err := sys.Eng.Run(); err != nil && !errors.Is(err, sim.ErrEventLimit) {
		return nil, fmt.Errorf("arrivals: %w", err)
	}
	if e.err != nil {
		return nil, e.err
	}

	res := &Result{
		Classes:     e.acct.Classes,
		EndTime:     sys.Eng.Now(),
		Utilization: sys.Exec.Utilization(sys.Eng.Now()),
		Goodput:     e.acct.Goodput(sys.Eng.Now()),
		Stats:       sys.Exec.Stats(),
	}
	adm, done, missed := e.acct.Totals()
	if adm != e.admitted || done != e.finished {
		panic(fmt.Sprintf("arrivals: accounting drift: %d/%d admitted, %d/%d completed",
			adm, e.admitted, done, e.finished))
	}
	res.Admitted, res.Completed, res.Missed = adm, done, missed
	res.InFlight = adm - done
	return res, nil
}

// AdmitRequest admits arrival i of tr on sys at the engine's current time:
// a fresh GPU context and process replay the request's application once.
// Completion records the request's queueing and completion latency in acct,
// retires the context (a completed run has no pending commands or active
// kernels, so a retire failure is an engine invariant violation and
// panics), and finally calls onDone with the observed execution time (first
// issue to completion; arrival to completion for runs that never issued).
// The caller accounts the admission itself (acct.Admit plus its own
// counters) — the single-node engine at inject time, the cluster layer at
// dispatch time. Exported for internal/cluster, which admits the same way
// on whichever node the dispatcher chose.
func AdmitRequest(sys *system.System, acct *metrics.SLOAccount, tr *trace.ArrivalTrace, i int, onDone func(exec sim.Time)) error {
	at, class := tr.Arrivals[i].At, tr.Arrivals[i].Class
	return AdmitAttempt(sys, tr, i, func(rec proc.RunRecord) {
		exec := rec.End - at
		if rec.FirstIssue >= 0 {
			acct.Issued(class, rec.FirstIssue-at)
			exec = rec.End - rec.FirstIssue
		}
		acct.Complete(class, rec.End-at)
		onDone(exec)
	})
}

// AdmitAttempt is the accounting-free admission primitive under AdmitRequest:
// it places the context and process for arrival i on sys at the engine's
// current time and hands the raw completion record to onDone after the
// context retires. tr must have passed trace.(*ArrivalTrace).Validate (Run
// and cluster.New check it once): proc.NewOneShot relies on that instead of
// re-validating the app per request. The cluster's resilience layer admits
// through it so each attempt's outcome can be judged (winner, ghost, hedge
// loser) before any SLO accounting happens.
func AdmitAttempt(sys *system.System, tr *trace.ArrivalTrace, i int, onDone func(rec proc.RunRecord)) error {
	a := &tr.Arrivals[i]
	cls := &tr.Classes[a.Class]
	ctx, err := sys.NewContext(cls.Name, cls.Priority)
	if err != nil {
		return err
	}
	p, err := proc.NewOneShot(sys, ctx, tr.Apps[a.App])
	if err != nil {
		// Give the slot back so a refused admission leaves the node untouched
		// and the caller may retry elsewhere.
		_ = sys.RetireContext(ctx.ID)
		return err
	}
	ctxID := ctx.ID
	p.OnRunComplete = func(p *proc.Process, rec proc.RunRecord) {
		if err := sys.RetireContext(ctxID); err != nil {
			panic(fmt.Sprintf("arrivals: retiring request %d: %v", i, err))
		}
		onDone(rec)
	}
	return p.Start(sys.Eng.Now())
}

// inject admits arrival i and chain-schedules the next injection.
func (e *engine) inject(i int) {
	e.acct.Admit(e.tr.Arrivals[i].Class)
	e.admitted++
	if err := AdmitRequest(e.sys, e.acct, e.tr, i, func(sim.Time) {
		e.finished++
		e.maybeDone()
	}); err != nil {
		e.fail(fmt.Errorf("arrivals: admitting request %d: %w", i, err))
		return
	}
	if next := i + 1; next < len(e.tr.Arrivals) {
		e.sys.Eng.At(e.tr.Arrivals[next].At+e.delay, func() { e.inject(next) })
	}
}

// maybeDone stops the engine once the stream is exhausted and every admitted
// request has completed, so EndTime reflects the last completion rather than
// the watchdog horizon.
func (e *engine) maybeDone() {
	if e.admitted == len(e.tr.Arrivals) && e.finished == e.admitted {
		e.sys.Eng.Stop()
	}
}

func (e *engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.sys.Eng.Stop()
}
