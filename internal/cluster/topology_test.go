package cluster_test

// The cluster topology file is decoded by the facade's ReadClusterTopology,
// the one reader of that schema. These tests drive it from outside the
// facade: every corpus entry's accept/reject decision and resulting Options
// are pinned, and any accepted topology must round-trip through json.Marshal.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
)

// topologyBase is the Options every pinned case reads its topology onto. Each
// field the file can set holds a distinct value, so the table shows which
// ones a topology overwrites and which it leaves alone.
func topologyBase() repro.Options {
	return repro.Options{
		Seed:            9,
		Nodes:           7,
		NodeTypes:       []repro.ClusterNodeType{{Count: 7, SMs: 4}},
		Dispatch:        repro.DispatchLeastLoaded,
		DispatchSeed:    5,
		ContextCapacity: 3,
		Autoscale:       &repro.AutoscalePolicy{Min: 1, Max: 2},
		Faults:          &repro.FaultPlan{KillRate: 1},
		Resilience:      &repro.ResilienceSpec{Timeout: 1},
	}
}

// topologyCases is the fuzz corpus with its pinned outcomes: apply turns
// topologyBase into the Options the topology yields, and a nil apply means
// the topology is rejected. It covers the heterogeneous-node, autoscale,
// fault and resilience stanzas, including the decoder panics they once
// invited (null node-type entries, negative downtimes).
var topologyCases = []struct {
	json  string
	apply func(o *repro.Options)
}{
	{`{"nodes": 4, "dispatch": "jsq"}`, func(o *repro.Options) {
		o.Nodes, o.NodeTypes, o.Dispatch = 4, nil, repro.DispatchJSQ
	}},
	{`{"nodes": 1}`, func(o *repro.Options) { o.Nodes, o.NodeTypes = 1, nil }},
	{`{"nodes": 8, "dispatch": "p2c", "seed": 42, "context_capacity": 16}`, func(o *repro.Options) {
		o.Nodes, o.NodeTypes, o.Dispatch = 8, nil, repro.DispatchPowerOfTwo
		o.DispatchSeed, o.ContextCapacity = 42, 16
	}},
	{`{"nodes": 0}`, nil},
	{`{"nodes": -3, "dispatch": "round-robin"}`, nil},
	{`{"nodes": 2, "dispatch": "no-such-policy"}`, nil},
	{`{"nodes": 1e9}`, nil},
	{`null`, nil},
	{`{}`, nil},
	{`{"nodes": 2, "unknown_field": true}`, nil},
	{`{"node_types": [{"count": 2, "sms": 16}, {"count": 2, "pcie_gen": 3}]}`, func(o *repro.Options) {
		o.Nodes = 4
		o.NodeTypes = []repro.ClusterNodeType{{Count: 2, SMs: 16}, {Count: 2, PCIeGen: 3}}
	}},
	{`{"node_types": [null]}`, nil},
	{`{"node_types": [{"count": 0}]}`, nil},
	{`{"nodes": 3, "node_types": [{"count": 2}]}`, nil},
	{`{"node_types": [{"count": 1, "slow_factor": -1}]}`, nil},
	{`{"node_types": [{"count": 1, "pcie_gen": 9}]}`, nil},
	{`{"nodes": 2, "autoscale": {"min": 2, "max": 8, "high_backlog": 4, "low_backlog": 1}}`, func(o *repro.Options) {
		o.Nodes, o.NodeTypes = 2, nil
		o.Autoscale = &repro.AutoscalePolicy{Min: 2, Max: 8, HighBacklog: 4, LowBacklog: 1}
	}},
	{`{"nodes": 2, "autoscale": {"min": 8, "max": 2}}`, nil},
	// A negative interval is defaulted, not rejected.
	{`{"nodes": 2, "autoscale": {"interval": -5}}`, func(o *repro.Options) {
		o.Nodes, o.NodeTypes = 2, nil
		o.Autoscale = &repro.AutoscalePolicy{Interval: -5}
	}},
	{`{"nodes": 2, "autoscale": {"high_miss": 2.5}}`, nil},
	{`{"nodes": 4, "faults": {"kill_rate": 200, "downtime": 500000}}`, func(o *repro.Options) {
		o.Nodes, o.NodeTypes = 4, nil
		o.Faults = &repro.FaultPlan{KillRate: 200, Downtime: 500 * time.Microsecond}
	}},
	{`{"nodes": 4, "faults": {"downtime": -1}}`, nil},
	{`{"nodes": 4, "faults": {"kill_rate": -3}}`, nil},
	{`{"nodes": 4, "faults": {"straggler_frac": 1.5}}`, nil},
	{`{"nodes": 4, "faults": {"straggler_frac": 0.25, "slow_factor": 3}}`, func(o *repro.Options) {
		o.Nodes, o.NodeTypes = 4, nil
		o.Faults = &repro.FaultPlan{StragglerFrac: 0.25, SlowFactor: 3}
	}},
	{`{"nodes": 4, "resilience": {"timeout": 400000, "retry": {"max_attempts": 4, "backoff_base": 20000, "budget": {"tokens": 10, "ratio": 0.1}}}}`, func(o *repro.Options) {
		o.Nodes, o.NodeTypes = 4, nil
		o.Resilience = &repro.ResilienceSpec{
			Timeout: 400 * time.Microsecond,
			Retry: &repro.RetryPolicy{
				MaxAttempts: 4,
				BackoffBase: 20 * time.Microsecond,
				Budget:      &repro.RetryBudget{Tokens: 10, Ratio: 0.1},
			},
		}
	}},
	{`{"nodes": 4, "resilience": {"hedge": {"quantile": 0.95, "min_obs": 16, "max_hedges": 1}, "shed": {"per_node": 8, "queue": 32}}}`, func(o *repro.Options) {
		o.Nodes, o.NodeTypes = 4, nil
		o.Resilience = &repro.ResilienceSpec{
			Hedge: &repro.HedgePolicy{Quantile: 0.95, MinObs: 16, MaxHedges: 1},
			Shed:  &repro.ShedPolicy{PerNode: 8, Queue: 32},
		}
	}},
	{`{"nodes": 4, "resilience": {"breaker": {"window": 500000, "error_rate": 0.5, "min_volume": 8, "cooldown": 250000, "probes": 2}}}`, func(o *repro.Options) {
		o.Nodes, o.NodeTypes = 4, nil
		o.Resilience = &repro.ResilienceSpec{Breaker: &repro.BreakerPolicy{
			Window: 500 * time.Microsecond, ErrorRate: 0.5, MinVolume: 8, Cooldown: 250 * time.Microsecond, Probes: 2,
		}}
	}},
	{`{"nodes": 4, "resilience": {"timeout": -1}}`, nil},
	{`{"nodes": 4, "resilience": {"retry": {"max_attempts": -2}}}`, nil},
	{`{"nodes": 4, "resilience": {"retry": {"budget": {"tokens": -5}}}}`, nil},
	{`{"nodes": 4, "resilience": {"retry": {"backoff_base": 100, "backoff_max": 10}}}`, nil},
	{`{"nodes": 4, "resilience": {"hedge": {"quantile": 1.5}}}`, nil},
	{`{"nodes": 4, "resilience": {"breaker": {"error_rate": -0.5}}}`, nil},
	{`{"nodes": 4, "resilience": {"shed": {"per_node": -1}}}`, nil},
	// A null stanza is absent: the preset resilience plan survives.
	{`{"nodes": 4, "resilience": null}`, func(o *repro.Options) { o.Nodes, o.NodeTypes = 4, nil }},
	// Counts whose int sum wraps around to 1 must not pass as a 1-GPU fleet.
	{`{"node_types": [{"count": 9223372036854775807}, {"count": 9223372036854775807}, {"count": 3}]}`, nil},
}

// TestTopologyDecisions pins every corpus entry's accept/reject decision and
// the exact Options an accepted one produces.
func TestTopologyDecisions(t *testing.T) {
	for i, c := range topologyCases {
		got, err := repro.ReadClusterTopology(strings.NewReader(c.json), topologyBase())
		if c.apply == nil {
			if err == nil {
				t.Errorf("case %d accepted, want rejected: %s", i, c.json)
			}
			continue
		}
		if err != nil {
			t.Errorf("case %d rejected: %v\ninput: %s", i, err, c.json)
			continue
		}
		want := topologyBase()
		c.apply(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: options\n got %+v\nwant %+v\ninput: %s", i, got, want, c.json)
		}
	}
}

// topologyFile spells the file schema's top level from the outside, so an
// accepted topology read onto empty Options can be written back out.
type topologyFile struct {
	Nodes           int                     `json:"nodes"`
	NodeTypes       []repro.ClusterNodeType `json:"node_types,omitempty"`
	Dispatch        repro.DispatchKind      `json:"dispatch,omitempty"`
	Seed            uint64                  `json:"seed,omitempty"`
	ContextCapacity int                     `json:"context_capacity,omitempty"`
	Autoscale       *repro.AutoscalePolicy  `json:"autoscale,omitempty"`
	Faults          *repro.FaultPlan        `json:"faults,omitempty"`
	Resilience      *repro.ResilienceSpec   `json:"resilience,omitempty"`
}

// readTopology reads a topology onto empty Options and checks that the
// result round-trips: written back out through json.Marshal and read again,
// it yields the same Options.
func readTopology(t *testing.T, data string) (repro.Options, error) {
	t.Helper()
	o, err := repro.ReadClusterTopology(strings.NewReader(data), repro.Options{})
	if err != nil {
		return o, err
	}
	blob, err := json.Marshal(topologyFile{
		Nodes: o.Nodes, NodeTypes: o.NodeTypes, Dispatch: o.Dispatch, Seed: o.DispatchSeed,
		ContextCapacity: o.ContextCapacity, Autoscale: o.Autoscale, Faults: o.Faults, Resilience: o.Resilience,
	})
	if err != nil {
		t.Fatalf("accepted topology does not serialize: %v", err)
	}
	back, err := repro.ReadClusterTopology(bytes.NewReader(blob), repro.Options{})
	if err != nil {
		t.Fatalf("round-trip rejected: %v\njson: %s", err, blob)
	}
	if !reflect.DeepEqual(back, o) {
		t.Fatalf("round-trip changed the topology: %+v vs %+v\njson: %s", back, o, blob)
	}
	return o, nil
}

// FuzzReadClusterConfig fuzzes the topology JSON reader: whatever the input,
// it must never panic, and an accepted topology must describe a fleet
// cluster.New accepts, build its dispatcher, and round-trip through
// json.Marshal.
func FuzzReadClusterConfig(f *testing.F) {
	for _, c := range topologyCases {
		f.Add(c.json)
	}
	f.Fuzz(func(t *testing.T, data string) {
		o, err := readTopology(t, data)
		if err != nil {
			return
		}
		if n, err := cluster.FleetSize(o.Nodes, o.NodeTypes); err != nil || n != o.Nodes {
			t.Fatalf("accepted topology has fleet size %d (%v) for %d nodes\ninput: %s", n, err, o.Nodes, data)
		}
		if _, err := cluster.NewDispatcher(cluster.Kind(o.Dispatch), o.DispatchSeed); err != nil {
			t.Fatalf("accepted topology cannot build its dispatcher: %v\ninput: %s", err, data)
		}
	})
}

// TestConfigResilienceStanza pins the topology-JSON path for resilience: a
// stanza decodes onto Options.Resilience, survives a round trip, and
// malformed stanzas are rejected at read time.
func TestConfigResilienceStanza(t *testing.T) {
	good := `{"nodes": 2, "dispatch": "jsq", "resilience": {
		"timeout": 400000,
		"retry": {"max_attempts": 4, "backoff_base": 20000, "budget": {"tokens": 10, "ratio": 0.1}},
		"hedge": {"quantile": 0.9},
		"breaker": {"error_rate": 0.3},
		"shed": {"per_node": 16, "queue": 32}}}`
	o, err := readTopology(t, good)
	if err != nil {
		t.Fatal(err)
	}
	r := o.Resilience
	if r == nil || r.Timeout != 400*time.Microsecond || r.Retry.MaxAttempts != 4 ||
		r.Retry.Budget.Tokens != 10 || r.Hedge.Quantile != 0.9 || r.Breaker.ErrorRate != 0.3 ||
		r.Shed.Queue != 32 {
		t.Errorf("stanza decoded wrong: %+v", r)
	}

	for name, blob := range map[string]string{
		"negative timeout": `{"nodes": 2, "resilience": {"timeout": -5}}`,
		"negative budget":  `{"nodes": 2, "resilience": {"retry": {"budget": {"tokens": -1}}}}`,
		"bad quantile":     `{"nodes": 2, "resilience": {"hedge": {"quantile": 2}}}`,
		"unknown field":    `{"nodes": 2, "resilience": {"no_such_policy": 1}}`,
	} {
		if _, err := repro.ReadClusterTopology(strings.NewReader(blob), repro.Options{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
