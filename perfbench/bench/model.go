package bench

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro"
)

// Model is the simulated outcome of one simulation call, reduced to the
// values a host-only change must leave identical. The end-to-end runner fills
// it from the facade's results; the traced run fills the same fields from the
// internal results, so equal digests show both ran the same simulation.
type Model struct {
	Fleet *FleetModel
	Mixes []MixModel
}

// FleetModel is a cluster run's simulated outcome.
type FleetModel struct {
	Admitted, Completed, Lost, InFlight, Missed int
	EndNS                                       int64
	Utilization, Goodput, NodeSeconds           float64
	Kills, Restarts, Preemptions                int

	Requests, ReqCompleted, Dropped, Shed, ReqInFlight          int
	TimedOut, Canceled, Retries, Hedges, Rejected, BreakerTrips int

	Classes []ClassModel
	Nodes   []NodeModel
}

// ClassModel is one service class's fleet-wide outcome (latencies in ns).
type ClassModel struct {
	Name                            string
	Admitted, Completed, Missed     int
	WaitP99, LatP50, LatP95, LatP99 int64
}

// NodeModel is one GPU slot's outcome.
type NodeModel struct {
	Admitted, Completed, Lost, InFlight, Missed, Incarnations, Preemptions int
}

// MixModel is one paper mix's outcome (times in ns).
type MixModel struct {
	ANTT, STP, Fairness float64
	EndNS               int64
	Preemptions         int
	ContextSavedBytes   int64
	Apps                []AppModel
}

// AppModel is one process of a mix.
type AppModel struct {
	Name                  string
	Runs                  int
	Turnaround, Isolated  int64
	Starved, HighPriority bool
}

// FleetFromResult reduces a facade cluster result.
func FleetFromResult(r *repro.ClusterResult) *FleetModel {
	m := &FleetModel{
		Admitted: r.Admitted, Completed: r.Completed, Lost: r.Lost, InFlight: r.InFlight, Missed: r.Missed,
		EndNS:       int64(r.EndTime),
		Utilization: r.Utilization, Goodput: r.Goodput, NodeSeconds: r.NodeSeconds,
		Kills: r.Kills, Restarts: r.Restarts, Preemptions: r.Preemptions,
		Requests: r.Requests, ReqCompleted: r.ReqCompleted, Dropped: r.Dropped, Shed: r.Shed, ReqInFlight: r.ReqInFlight,
		TimedOut: r.TimedOut, Canceled: r.Canceled, Retries: r.Retries, Hedges: r.Hedges,
		Rejected: r.Rejected, BreakerTrips: r.BreakerTrips,
	}
	for _, c := range r.Classes {
		m.Classes = append(m.Classes, ClassModel{
			Name: c.Name, Admitted: c.Admitted, Completed: c.Completed, Missed: c.Missed,
			WaitP99: int64(c.WaitP99), LatP50: int64(c.LatencyP50), LatP95: int64(c.LatencyP95), LatP99: int64(c.LatencyP99),
		})
	}
	for _, n := range r.Nodes {
		m.Nodes = append(m.Nodes, NodeModel{
			Admitted: n.Admitted, Completed: n.Completed, Lost: n.Lost, InFlight: n.InFlight, Missed: n.Missed,
			Incarnations: n.Incarnations, Preemptions: n.Preemptions,
		})
	}
	return m
}

// MixFromResult reduces a facade workload result.
func MixFromResult(r *repro.Result) MixModel {
	m := MixModel{
		ANTT: r.ANTT, STP: r.STP, Fairness: r.Fairness,
		EndNS: int64(r.EndTime), Preemptions: r.Preemptions, ContextSavedBytes: r.ContextSavedBytes,
	}
	for _, a := range r.Apps {
		m.Apps = append(m.Apps, AppModel{
			Name: a.Name, Runs: a.Runs, Turnaround: int64(a.Turnaround), Isolated: int64(a.Isolated),
			Starved: a.Starved, HighPriority: a.HighPriority,
		})
	}
	return m
}

// Digest fingerprints the model: 53 bits of an FNV-1a hash of its full
// rendering, so it is exact as a JSON number.
func (m Model) Digest() uint64 {
	h := fnv.New64a()
	if m.Fleet != nil {
		fmt.Fprintf(h, "%+v", *m.Fleet)
	}
	fmt.Fprintf(h, "%+v", m.Mixes)
	return h.Sum64() >> 11
}

// Requests counts the simulated requests the call resolved.
func (m Model) Requests() int {
	if m.Fleet != nil {
		if m.Fleet.Requests > 0 {
			return m.Fleet.Requests
		}
		return m.Fleet.Completed + m.Fleet.InFlight
	}
	n := 0
	for _, x := range m.Mixes {
		for _, a := range x.Apps {
			n += a.Runs
		}
	}
	return n
}

// CheckFleet verifies a cluster run's conservation laws against the number
// of arrivals it was offered.
func (m Model) CheckFleet(arrivals int, resilient bool) error {
	f := m.Fleet
	if got := f.Completed + f.Lost + f.TimedOut + f.Canceled + f.InFlight; got != f.Admitted {
		return fmt.Errorf("attempt conservation: admitted %d != completed+lost+timed-out+canceled+in-flight %d", f.Admitted, got)
	}
	var adm, done, lost, inFl int
	for _, n := range f.Nodes {
		adm, done, lost, inFl = adm+n.Admitted, done+n.Completed, lost+n.Lost, inFl+n.InFlight
	}
	if adm != f.Admitted || done != f.Completed || lost != f.Lost || inFl != f.InFlight {
		return fmt.Errorf("per-GPU counters do not sum to the fleet totals")
	}
	if resilient {
		if f.Requests != arrivals {
			return fmt.Errorf("lifecycle ledger holds %d requests, trace has %d", f.Requests, arrivals)
		}
		if got := f.ReqCompleted + f.Dropped + f.Shed + f.ReqInFlight; got != f.Requests {
			return fmt.Errorf("request conservation: requests %d != completed+dropped+shed+in-flight %d", f.Requests, got)
		}
		if f.ReqInFlight != 0 {
			return fmt.Errorf("%d requests still in flight at the end", f.ReqInFlight)
		}
		return nil
	}
	if f.Completed != arrivals || f.InFlight != 0 {
		return fmt.Errorf("completed %d of %d arrivals (%d in flight)", f.Completed, arrivals, f.InFlight)
	}
	return nil
}

// Check verifies every paper mix finished its replay with no app starved.
func (m Model) Check() error {
	for i, x := range m.Mixes {
		for _, a := range x.Apps {
			if a.Starved || a.Runs < MixRuns {
				return fmt.Errorf("mix %d: %s completed %d of %d runs", i, a.Name, a.Runs, MixRuns)
			}
		}
		if !(x.ANTT >= 1) || !(x.STP > 0) {
			return fmt.Errorf("mix %d: implausible ANTT %v / STP %v", i, x.ANTT, x.STP)
		}
	}
	return nil
}

// Outputs are the model's headline statistics, reported per layer and never
// gated: rt p99 completion latency, rt deadline-miss rate and goodput on a
// fleet; mean ANTT, STP and fairness over the mixes.
func (m Model) Outputs() map[string]float64 {
	out := map[string]float64{}
	if f := m.Fleet; f != nil {
		for _, c := range f.Classes {
			if c.Name == "rt" {
				out["model.rt_p99_us"] = float64(c.LatP99) / float64(time.Microsecond)
				if c.Completed > 0 {
					out["model.rt_miss_rate"] = float64(c.Missed) / float64(c.Completed)
				}
			}
		}
		out["model.goodput_per_s"] = f.Goodput
		return out
	}
	var antt, stp, fair float64
	for _, x := range m.Mixes {
		antt, stp, fair = antt+x.ANTT, stp+x.STP, fair+x.Fairness
	}
	n := float64(len(m.Mixes))
	out["model.antt"], out["model.stp"], out["model.fairness"] = antt/n, stp/n, fair/n
	return out
}
