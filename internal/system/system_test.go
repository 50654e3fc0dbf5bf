package system

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/preempt"
)

func TestNewAssemblesMachine(t *testing.T) {
	cfg := DefaultConfig()
	sys, err := New(cfg, policy.NewFCFS(), preempt.Drain{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Eng == nil || sys.Exec == nil || sys.DMA == nil || sys.Contexts == nil || sys.Mem == nil {
		t.Fatal("incomplete machine")
	}
	if sys.Exec.NumSMs() != 13 {
		t.Errorf("NumSMs = %d, want 13", sys.Exec.NumSMs())
	}
	if sys.Exec.Timeline() != nil {
		t.Error("timeline attached without being requested")
	}
}

func TestNewWithTimelineAndActiveLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordTimeline = true
	cfg.ActiveLimit = 5
	sys, err := New(cfg, policy.NewFCFS(), preempt.Drain{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Exec.Timeline() == nil {
		t.Error("timeline not attached")
	}
	if sys.Exec.ActiveLimit() != 5 {
		t.Errorf("active limit = %d, want 5", sys.Exec.ActiveLimit())
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GPU.NumSMs = 0
	if _, err := New(cfg, policy.NewFCFS(), preempt.Drain{}); err == nil {
		t.Fatal("invalid GPU config accepted")
	}
	cfg = DefaultConfig()
	cfg.PCIe.Bandwidth = -1
	if _, err := New(cfg, policy.NewFCFS(), preempt.Drain{}); err == nil {
		t.Fatal("invalid PCIe config accepted")
	}
}

func TestNewContextAllocatesDistinctIDs(t *testing.T) {
	sys, err := New(DefaultConfig(), policy.NewFCFS(), preempt.Drain{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.NewContext("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.NewContext("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("duplicate context ids")
	}
	if b.Priority != 2 {
		t.Errorf("priority = %d, want 2", b.Priority)
	}
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.GPU.NumSMs != 13 || cfg.GPU.MemBandwidth != 208e9 {
		t.Error("GPU defaults do not match Table 2")
	}
	if cfg.PCIe.BurstBytes != 4096 {
		t.Error("PCIe burst should be 4KB (Table 2)")
	}
	if cfg.Jitter != 0.30 {
		t.Errorf("default jitter = %v", cfg.Jitter)
	}
}

// noopMech asserts the system wires whatever mechanism it is given.
type noopMech struct{}

func (noopMech) Name() string                            { return "noop" }
func (noopMech) Preempt(fw *core.Framework, smID int)    {}
func (noopMech) OnTBFinished(fw *core.Framework, sm int) {}

func TestMechanismWiring(t *testing.T) {
	sys, err := New(DefaultConfig(), policy.NewFCFS(), noopMech{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Exec.Mechanism().Name() != "noop" {
		t.Error("mechanism not wired through")
	}
}

func TestRetireContextRecyclesPageTable(t *testing.T) {
	sys, err := New(DefaultConfig(), policy.NewFCFS(), preempt.Drain{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.NewContext("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	pt := a.PageTable
	va, err := pt.AllocRegion(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RetireContext(a.ID); err == nil {
		t.Fatal("retired a context with a live mapping")
	}
	if err := pt.Unmap(va, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.RetireContext(a.ID); err != nil {
		t.Fatal(err)
	}
	b, err := sys.NewContext("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.PageTable != pt || b.ID == a.ID || pt.ASID != b.ID {
		t.Errorf("context %d did not reuse retired context %d's page table under a fresh ASID", b.ID, a.ID)
	}
}
