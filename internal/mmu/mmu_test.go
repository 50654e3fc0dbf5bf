package mmu

import (
	"testing"

	"repro/internal/gmem"
)

func TestMapTranslate(t *testing.T) {
	pt := NewPageTable(1)
	if err := pt.Map(PageSize, 0x100000, 4); err != nil {
		t.Fatal(err)
	}
	pa, err := pt.Translate(PageSize + 123)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x100000+123 {
		t.Fatalf("Translate = %#x, want %#x", uint64(pa), 0x100000+123)
	}
	// Third page.
	pa, err = pt.Translate(3*PageSize + 7)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x100000+2*PageSize+7 {
		t.Fatalf("Translate third page = %#x", uint64(pa))
	}
}

func TestTranslateFaults(t *testing.T) {
	pt := NewPageTable(1)
	if _, err := pt.Translate(0x5000000); err == nil {
		t.Fatal("translation of unmapped address succeeded")
	}
}

func TestMapRejectsUnaligned(t *testing.T) {
	pt := NewPageTable(1)
	if err := pt.Map(123, 0, 1); err == nil {
		t.Fatal("unaligned Map succeeded")
	}
}

func TestDoubleMapRejected(t *testing.T) {
	pt := NewPageTable(1)
	if err := pt.Map(PageSize, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(PageSize, PageSize, 1); err == nil {
		t.Fatal("double map succeeded")
	}
}

func TestUnmap(t *testing.T) {
	pt := NewPageTable(1)
	pt.Map(PageSize, 0, 2)
	if err := pt.Unmap(PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Translate(PageSize); err == nil {
		t.Fatal("translation after unmap succeeded")
	}
	if pt.Mapped() != 0 {
		t.Errorf("Mapped = %d after unmap", pt.Mapped())
	}
	if err := pt.Unmap(PageSize, 1); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

func TestAllocRegion(t *testing.T) {
	pt := NewPageTable(3)
	va1, err := pt.AllocRegion(0x200000, 3*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	va2, err := pt.AllocRegion(0x800000, 100) // sub-page rounds up
	if err != nil {
		t.Fatal(err)
	}
	if va2 < va1+3*PageSize {
		t.Fatalf("regions overlap: %#x then %#x", uint64(va1), uint64(va2))
	}
	pa, err := pt.Translate(va2 + 50)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x800000+50 {
		t.Fatalf("Translate region 2 = %#x", uint64(pa))
	}
}

func TestPageZeroUnmapped(t *testing.T) {
	pt := NewPageTable(0)
	va, err := pt.AllocRegion(0x1000, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if va == 0 {
		t.Fatal("AllocRegion handed out page zero")
	}
	if _, err := pt.Translate(0); err == nil {
		t.Fatal("null translation succeeded")
	}
}

func TestTLBHitMiss(t *testing.T) {
	pt := NewPageTable(1)
	pt.Map(PageSize, 0x100000, 2)
	tlb := NewTLB(8)
	if _, err := tlb.Lookup(pt, PageSize+5); err != nil {
		t.Fatal(err)
	}
	if tlb.Misses != 1 || tlb.Hits != 0 {
		t.Fatalf("after first lookup: hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
	if _, err := tlb.Lookup(pt, PageSize+500); err != nil {
		t.Fatal(err)
	}
	if tlb.Hits != 1 {
		t.Fatalf("same-page lookup did not hit (hits=%d)", tlb.Hits)
	}
	pa, err := tlb.Lookup(pt, 2*PageSize+9)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x100000+PageSize+9 {
		t.Fatalf("TLB translation = %#x", uint64(pa))
	}
}

func TestTLBFaultCounting(t *testing.T) {
	pt := NewPageTable(1)
	tlb := NewTLB(4)
	if _, err := tlb.Lookup(pt, 0x7000000); err == nil {
		t.Fatal("fault not reported")
	}
	if tlb.Faults != 1 {
		t.Fatalf("Faults = %d", tlb.Faults)
	}
}

func TestTLBEvictionLRU(t *testing.T) {
	pt := NewPageTable(1)
	pt.Map(PageSize, 0, 10)
	tlb := NewTLB(2)
	mustLookup := func(va VAddr) {
		if _, err := tlb.Lookup(pt, va); err != nil {
			t.Fatal(err)
		}
	}
	mustLookup(1 * PageSize) // miss, cache A
	mustLookup(2 * PageSize) // miss, cache B
	mustLookup(1 * PageSize) // hit A (A more recent than B)
	mustLookup(3 * PageSize) // miss, evicts B
	misses := tlb.Misses
	mustLookup(1 * PageSize) // should still hit
	if tlb.Misses != misses {
		t.Fatal("LRU evicted the recently used entry")
	}
	mustLookup(2 * PageSize) // B was evicted: miss
	if tlb.Misses != misses+1 {
		t.Fatal("expected miss on evicted entry")
	}
	if tlb.Len() > 2 {
		t.Fatalf("TLB over capacity: %d", tlb.Len())
	}
}

func TestTLBIsolationBetweenASIDs(t *testing.T) {
	ptA := NewPageTable(1)
	ptB := NewPageTable(2)
	ptA.Map(PageSize, 0x1000000, 1)
	ptB.Map(PageSize, 0x2000000, 1)
	tlb := NewTLB(8)
	paA, err := tlb.Lookup(ptA, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	paB, err := tlb.Lookup(ptB, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if paA == paB {
		t.Fatal("TLB returned the same translation for different address spaces")
	}
	if paA != 0x1000000 || paB != 0x2000000 {
		t.Fatalf("translations wrong: %#x %#x", uint64(paA), uint64(paB))
	}
}

func TestTLBFlushASID(t *testing.T) {
	ptA := NewPageTable(1)
	ptB := NewPageTable(2)
	ptA.Map(PageSize, 0x1000000, 1)
	ptB.Map(PageSize, 0x2000000, 1)
	tlb := NewTLB(8)
	tlb.Lookup(ptA, PageSize)
	tlb.Lookup(ptB, PageSize)
	tlb.FlushASID(1)
	if tlb.Len() != 1 {
		t.Fatalf("FlushASID removed %d entries, want 1 left", tlb.Len())
	}
	misses := tlb.Misses
	tlb.Lookup(ptB, PageSize)
	if tlb.Misses != misses {
		t.Fatal("other ASID's entry was flushed")
	}
}

func TestTLBFlush(t *testing.T) {
	pt := NewPageTable(1)
	pt.Map(PageSize, 0, 4)
	tlb := NewTLB(8)
	for i := 1; i <= 4; i++ {
		tlb.Lookup(pt, VAddr(i)*PageSize)
	}
	tlb.Flush()
	if tlb.Len() != 0 {
		t.Fatalf("Flush left %d entries", tlb.Len())
	}
}

func TestNewTLBPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTLB(0) did not panic")
		}
	}()
	NewTLB(0)
}

func TestPageTableIsolation(t *testing.T) {
	// Two contexts map the same virtual address to different physical
	// frames; translations must not leak across page tables.
	ptA := NewPageTable(1)
	ptB := NewPageTable(2)
	var frameA, frameB gmem.PAddr = 0xA0000, 0xB0000
	ptA.Map(PageSize, frameA, 1)
	ptB.Map(PageSize, frameB, 1)
	pa, _ := ptA.Translate(PageSize)
	pb, _ := ptB.Translate(PageSize)
	if pa != frameA || pb != frameB {
		t.Fatalf("isolation violated: %#x %#x", uint64(pa), uint64(pb))
	}
}

func TestWarmMapUnmapDoesNotAllocate(t *testing.T) {
	pt := NewPageTable(1)
	// 1500 pages straddle two level-2 tables.
	const npages = 1500
	cycle := func() {
		if err := pt.Map(PageSize, 0, npages); err != nil {
			t.Fatal(err)
		}
		if err := pt.Unmap(PageSize, npages); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm: builds the root and both level-2 tables
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("warm map/unmap cycle allocates %v times, want 0", n)
	}
	if pt.Mapped() != 0 {
		t.Fatalf("Mapped = %d after unmapping everything", pt.Mapped())
	}
	// A table reset for a new address space stays allocation-free too.
	asid := 1
	if n := testing.AllocsPerRun(100, func() {
		asid++
		if err := pt.Reset(asid); err != nil {
			t.Fatal(err)
		}
		va, err := pt.AllocRegion(0, npages*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.Unmap(va, npages); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("reset/map/unmap cycle allocates %v times, want 0", n)
	}
}

func TestResetRequiresEmptyTable(t *testing.T) {
	pt := NewPageTable(1)
	va, err := pt.AllocRegion(0x100000, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Reset(2); err == nil {
		t.Fatal("Reset of a table with live mappings succeeded")
	}
	if pt.ASID != 1 || pt.Mapped() != 2 {
		t.Fatalf("failed Reset changed the table: asid %d, %d mapped", pt.ASID, pt.Mapped())
	}
	if err := pt.Unmap(va, 2); err != nil {
		t.Fatal(err)
	}
	if err := pt.Reset(2); err != nil {
		t.Fatal(err)
	}
	if pt.ASID != 2 {
		t.Errorf("ASID = %d after Reset(2)", pt.ASID)
	}
	if _, err := pt.Translate(va); err == nil {
		t.Error("old address translates after Reset")
	}
	// The virtual address space restarts: the first region lands where the
	// previous address space's did, mapped to the new physical address.
	va2, err := pt.AllocRegion(0x900000, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if va2 != va {
		t.Errorf("first region after Reset at %#x, want %#x", uint64(va2), uint64(va))
	}
	if pa, err := pt.Translate(va2); err != nil || pa != 0x900000 {
		t.Errorf("Translate = %#x, %v; want 0x900000", uint64(pa), err)
	}
}
