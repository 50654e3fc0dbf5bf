package cluster

import (
	"fmt"
	"math"

	"repro/internal/system"
)

// MaxNodes bounds the topology size: a guard against nonsense
// configurations, not a simulator limit.
const MaxNodes = 1024

// NodeType describes one slice of a heterogeneous fleet: Count nodes sharing
// hardware overrides of the base machine config. Zero-valued fields keep the
// base value. The facade exports it as ClusterNodeType, and its JSON tags
// name a topology file's node_types entries.
type NodeType struct {
	// Count is how many nodes of this type the fleet starts with.
	Count int `json:"count"`
	// SMs overrides the GPU's SM count (0 = base config).
	SMs int `json:"sms,omitempty"`
	// PCIeGen overrides the PCIe generation, 1..5; each generation doubles
	// the transfer bandwidth of the previous one, with the base config's
	// bandwidth as generation 2 (0 = base config).
	PCIeGen int `json:"pcie_gen,omitempty"`
	// SlowFactor multiplies the type's service time — a permanently slow
	// hardware class, as opposed to the fault injector's per-incarnation
	// stragglers (0 = nominal speed).
	SlowFactor float64 `json:"slow_factor,omitempty"`
	// HBMBytes overrides the type's device-memory capacity, the budget each
	// node's working-set ledger enforces at admission (0 = the GPU spec's
	// memory size).
	HBMBytes int64 `json:"hbm_bytes,omitempty"`
}

// Validate checks one node type's shape.
func (t NodeType) Validate() error {
	if t.Count < 1 {
		return fmt.Errorf("cluster: node type count %d must be positive", t.Count)
	}
	if t.SMs < 0 {
		return fmt.Errorf("cluster: negative SM count %d", t.SMs)
	}
	if t.PCIeGen < 0 || t.PCIeGen > 5 {
		return fmt.Errorf("cluster: PCIe generation %d outside [0, 5]", t.PCIeGen)
	}
	if t.SlowFactor < 0 || math.IsNaN(t.SlowFactor) || math.IsInf(t.SlowFactor, 0) {
		return fmt.Errorf("cluster: slow factor %v invalid", t.SlowFactor)
	}
	if t.HBMBytes < 0 {
		return fmt.Errorf("cluster: negative HBM size %d", t.HBMBytes)
	}
	return nil
}

// apply overlays the type's hardware overrides on a base machine config.
func (t NodeType) apply(base system.Config) system.Config {
	if t.SMs > 0 {
		base.GPU.NumSMs = t.SMs
	}
	if t.HBMBytes > 0 {
		base.GPU.MemSize = t.HBMBytes
	}
	if t.PCIeGen > 0 {
		// The base bandwidth is generation 2 (the default config's PCIe 2.0);
		// each generation doubles it.
		base.PCIe.Bandwidth = int64(float64(base.PCIe.Bandwidth) * math.Pow(2, float64(t.PCIeGen-2)))
	}
	return base
}

// scale returns the type's service-time multiplier (1 = nominal).
func (t NodeType) scale() float64 {
	if t.SlowFactor > 0 {
		return t.SlowFactor
	}
	return 1
}

// FleetSize validates a starting fleet's shape and returns its node count:
// nodes homogeneous replicas, or the types expanded in order, in which case
// nodes may be 0 (derived) or must equal the types' total. New and the
// facade's topology reader both apply these rules.
func FleetSize(nodes int, types []NodeType) (int, error) {
	if len(types) == 0 {
		if nodes < 1 || nodes > MaxNodes {
			return 0, fmt.Errorf("cluster: node count %d out of range [1, %d]", nodes, MaxNodes)
		}
		return nodes, nil
	}
	total := 0
	for i, t := range types {
		if err := t.Validate(); err != nil {
			return 0, fmt.Errorf("cluster: node type %d: %w", i, err)
		}
		// Checked per type so a sum of huge counts cannot wrap around.
		if t.Count > MaxNodes-total {
			return 0, fmt.Errorf("cluster: node types' total exceeds %d nodes", MaxNodes)
		}
		total += t.Count
	}
	if nodes != 0 && nodes != total {
		return 0, fmt.Errorf("cluster: node count %d does not match node types' total %d", nodes, total)
	}
	return total, nil
}
