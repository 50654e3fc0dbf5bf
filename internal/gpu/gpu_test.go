package gpu

import (
	"testing"

	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.NumSMs != 13 {
		t.Errorf("NumSMs = %d, want 13 (K20c)", cfg.NumSMs)
	}
	if cfg.RegFileBytes() != 65536*4 {
		t.Errorf("RegFileBytes = %d", cfg.RegFileBytes())
	}
	if cfg.MaxSharedMemPerSM() != 48*1024 {
		t.Errorf("MaxSharedMemPerSM = %d", cfg.MaxSharedMemPerSM())
	}
	if cfg.SMBandwidthShare() != 16e9 {
		t.Errorf("SMBandwidthShare = %d, want 16 GB/s (208/13)", cfg.SMBandwidthShare())
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }},
		{"zero regs", func(c *Config) { c.RegsPerSM = 0 }},
		{"zero reg bytes", func(c *Config) { c.RegBytes = 0 }},
		{"no smem configs", func(c *Config) { c.SharedMemConfigs = nil }},
		{"unsorted smem configs", func(c *Config) { c.SharedMemConfigs = []int{32 * 1024, 16 * 1024} }},
		{"zero smem config", func(c *Config) { c.SharedMemConfigs = []int{0} }},
		{"zero TB slots", func(c *Config) { c.MaxTBsPerSM = 0 }},
		{"zero threads", func(c *Config) { c.MaxThreadsPerSM = 0 }},
		{"zero bandwidth", func(c *Config) { c.MemBandwidth = 0 }},
		{"zero memory", func(c *Config) { c.MemSize = 0 }},
		{"negative drain", func(c *Config) { c.PipelineDrainLatency = -1 }},
		{"negative setup", func(c *Config) { c.SMSetupLatency = -1 }},
		{"zero TLB", func(c *Config) { c.TLBEntriesPerSM = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}
}

func TestSharedMemConfigSelection(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		need, want int
	}{
		{0, 16 * 1024},
		{4096, 16 * 1024},
		{16 * 1024, 16 * 1024},
		{16*1024 + 1, 32 * 1024},
		{24576, 32 * 1024},
		{48 * 1024, 48 * 1024},
	}
	for _, c := range cases {
		got, err := cfg.SharedMemConfigFor(c.need)
		if err != nil {
			t.Fatalf("SharedMemConfigFor(%d): %v", c.need, err)
		}
		if got != c.want {
			t.Errorf("SharedMemConfigFor(%d) = %d, want %d", c.need, got, c.want)
		}
	}
	if _, err := cfg.SharedMemConfigFor(48*1024 + 1); err == nil {
		t.Error("oversized shared memory accepted")
	}
}

func kernel(regs, smem, threads int) trace.KernelSpec {
	return trace.KernelSpec{
		Name: "k", NumTBs: 100, TBTime: sim.Microseconds(1),
		RegsPerTB: regs, SharedMemPerTB: smem, ThreadsPerTB: threads,
	}
}

func TestOccupancyLimits(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		name string
		k    trace.KernelSpec
		want int
	}{
		{"register-limited", kernel(4320, 0, 128), 15},
		{"slot-limited", kernel(100, 0, 64), 16},
		{"thread-limited", kernel(100, 0, 512), 4},
		{"smem-limited (16KB cfg)", kernel(100, 4096, 64), 4},
		{"smem picks 32KB cfg", kernel(100, 24576, 64), 1},
		{"single TB", kernel(41984, 0, 512), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := cfg.Occupancy(&c.k)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("Occupancy = %d, want %d", got, c.want)
			}
		})
	}
}

func TestOccupancyRejectsUnfittableKernel(t *testing.T) {
	cfg := DefaultConfig()
	k := kernel(70000, 0, 128) // more registers than the file holds
	if _, err := cfg.Occupancy(&k); err == nil {
		t.Fatal("kernel that cannot fit accepted")
	}
	k2 := kernel(100, 49*1024, 128) // more shared memory than any config
	if _, err := cfg.Occupancy(&k2); err == nil {
		t.Fatal("kernel with oversized shared memory accepted")
	}
}

func TestContextBytesAndSaveTime(t *testing.T) {
	cfg := DefaultConfig()
	k := kernel(4320, 0, 128) // lbm StreamCollide
	if got := cfg.TBContextBytes(&k); got != 4320*4 {
		t.Errorf("TBContextBytes = %d, want %d", got, 4320*4)
	}
	if got := cfg.SMContextBytes(&k, 15); got != 4320*4*15 {
		t.Errorf("SMContextBytes = %d", got)
	}
	save, err := cfg.SaveTime(&k)
	if err != nil {
		t.Fatal(err)
	}
	// 259200 bytes at 16 GB/s = 16.2 us (Table 1).
	if us := save.Microseconds(); us < 16.19 || us > 16.21 {
		t.Errorf("SaveTime = %v us, want 16.20", us)
	}
}

func TestContextMoveTimeZero(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ContextMoveTime(0) != 0 {
		t.Error("moving zero bytes takes time")
	}
	if cfg.ContextMoveTime(-5) != 0 {
		t.Error("moving negative bytes takes time")
	}
}

func TestResourceUtilization(t *testing.T) {
	cfg := DefaultConfig()
	k := kernel(4320, 0, 128)
	util, err := cfg.ResourceUtilization(&k)
	if err != nil {
		t.Fatal(err)
	}
	if pct := util * 100; pct < 83.2 || pct > 83.3 {
		t.Errorf("ResourceUtilization = %.2f%%, want 83.26%% (Table 1)", pct)
	}
}

func TestContextTable(t *testing.T) {
	tbl := NewContextTable(2)
	a, err := tbl.Create("procA", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tbl.Create("procB", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("duplicate context ids")
	}
	if a.PageTable == nil || a.PageTable.ASID != a.ID {
		t.Fatal("context page table not wired to ASID")
	}
	if _, err := tbl.Create("procC", 0); err == nil {
		t.Fatal("context table over capacity")
	}
	if tbl.Lookup(a.ID) != a {
		t.Fatal("Lookup failed")
	}
	if err := tbl.Destroy(a.ID); err != nil {
		t.Fatal(err)
	}
	if tbl.Lookup(a.ID) != nil {
		t.Fatal("destroyed context still present")
	}
	if err := tbl.Destroy(a.ID); err == nil {
		t.Fatal("double destroy succeeded")
	}
	if tbl.Len() != 1 || tbl.Capacity() != 2 {
		t.Errorf("Len=%d Cap=%d", tbl.Len(), tbl.Capacity())
	}
}

func TestContextTableRecyclesPageTables(t *testing.T) {
	tbl := NewContextTable(4)
	a, err := tbl.Create("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	va, err := a.PageTable.AllocRegion(0x100000, 3*mmu.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// An SM's TLB caches a's translation.
	tlb := mmu.NewTLB(8)
	if _, err := tlb.Lookup(a.PageTable, va); err != nil {
		t.Fatal(err)
	}
	// A context that still maps a page cannot retire.
	if err := tbl.Destroy(a.ID); err == nil {
		t.Fatal("destroyed a context with live mappings")
	}
	if tbl.Lookup(a.ID) != a || a.PageTable == nil {
		t.Fatal("failed Destroy changed the table")
	}
	pt := a.PageTable
	if err := pt.Unmap(va, 3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Destroy(a.ID); err != nil {
		t.Fatal(err)
	}
	if a.PageTable != nil {
		t.Error("retired context keeps its recycled page table")
	}

	b, err := tbl.Create("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.PageTable != pt {
		t.Fatal("page table not recycled")
	}
	if b.ID == a.ID || b.PageTable.ASID != b.ID {
		t.Fatalf("recycled context id %d, ASID %d (retired id %d)", b.ID, b.PageTable.ASID, a.ID)
	}
	if n := b.PageTable.Mapped(); n != 0 {
		t.Fatalf("recycled page table maps %d pages", n)
	}
	if _, err := b.PageTable.Translate(va); err == nil {
		t.Error("retired context's address translates in the new context")
	}
	hits := tlb.Hits
	if _, err := tlb.Lookup(b.PageTable, va); err == nil || tlb.Hits != hits {
		t.Error("TLB served the retired context's translation to the new one")
	}
	// The new context's own mapping of the same address resolves to its own
	// physical page, not the TLB's stale entry.
	vb, err := b.PageTable.AllocRegion(0x900000, mmu.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if vb != va {
		t.Fatalf("new address space starts at %#x, want %#x", uint64(vb), uint64(va))
	}
	if pa, err := tlb.Lookup(b.PageTable, vb); err != nil || pa != 0x900000 {
		t.Errorf("TLB Lookup = %#x, %v; want 0x900000", uint64(pa), err)
	}
}
