package gmem

import "testing"

// BenchmarkAllocFreeOwner measures the allocator's context-churn hot path:
// a steady state of 64 live owners where each iteration destroys one owner
// (first-fit scan, free-list coalescing, O(1) Used) and admits a replacement.
// This is the per-admission work the cluster's memory ledger does for every
// request, and Used() lands on the dispatcher's per-Pick path — so the gate
// watches allocations per op as much as time. FreeOwner sorts into a reused
// scratch slice, so the gate pins the cycle at zero allocations.
func BenchmarkAllocFreeOwner(b *testing.B) {
	const owners = 64
	const ws = 64 << 10
	m := NewManager(owners * ws * 2)
	for o := 0; o < owners; o++ {
		if _, err := m.Alloc(o, ws); err != nil {
			b.Fatal(err)
		}
	}
	// One cycle sizes FreeOwner's scratch before measuring.
	m.FreeOwner(0)
	if _, err := m.Alloc(0, ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := i % owners
		m.FreeOwner(o)
		if _, err := m.Alloc(o, ws); err != nil {
			b.Fatal(err)
		}
		if m.Used() != owners*ws {
			b.Fatal("accounting drift")
		}
	}
}
