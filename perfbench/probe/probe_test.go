package probe

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/preempt"
	"repro/perfbench/bench"
)

// TestTracedRunMatchesUntraced pins the traced run to the end-to-end one on
// every workload: the wrappers and the internal mirror of the facade's
// configuration must reproduce the same simulation on the same executor.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	for _, w := range bench.Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			in, err := w.Setup(bench.DefaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := in.Simulate(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var tr *Traced
			if w.Mix {
				tr, err = TraceMixes(in, true)
			} else {
				at, _, gerr := FleetTrace(bench.DefaultSeed)
				if gerr != nil {
					t.Fatal(gerr)
				}
				tr, err = TraceFleet(w, bench.DefaultSeed, at, true)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, want := tr.Model.Digest(), ref.Model.Digest(); got != want {
				t.Errorf("traced digest %x, untraced %x", got, want)
			}
			if !w.Mix && tr.Executor != ref.Executor {
				t.Errorf("traced run took executor %q, untraced %q", tr.Executor, ref.Executor)
			}
			if tr.Layers[LayerPolicy].Calls == 0 || tr.Events == 0 {
				t.Errorf("traced run recorded %d policy calls and %d events", tr.Layers[LayerPolicy].Calls, tr.Events)
			}
			if !w.Mix && tr.Layers[LayerPick].Calls < uint64(ref.Requests) {
				t.Errorf("traced run recorded %d picks for %d requests", tr.Layers[LayerPick].Calls, ref.Requests)
			}
		})
	}
}

// TestWrappersForwardOptionalInterfaces checks that a wrapped dispatcher of
// every built-in kind, and a wrapped mechanism, implement exactly the
// optional interfaces the wrapped value does.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tc := NewTracer()
	for _, k := range cluster.Kinds() {
		d, err := cluster.NewDispatcher(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := tc.Dispatcher(d)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if optional(w) != optional(d) {
			t.Errorf("%s: wrapper implements %04b, dispatcher %04b", k, optional(w), optional(d))
		}
	}
	for _, m := range []core.Mechanism{preempt.NewAdaptive(), preempt.ContextSwitch{}, preempt.Drain{}} {
		w := tc.Mechanism(func() core.Mechanism { return m })()
		_, inObs := m.(core.TBObserver)
		_, wObs := w.(core.TBObserver)
		if inObs != wObs {
			t.Errorf("%s: wrapper TBObserver %v, mechanism %v", m.Name(), wObs, inObs)
		}
	}
}
