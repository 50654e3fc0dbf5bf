// Package mmu models per-context GPU address translation: two-level page
// tables walked from a base page-table register, and per-SM TLBs.
//
// The paper's multiprogramming extensions (§3.1) give every SM a GPU context
// id register and a base page table register so that SMs running kernels
// from different processes translate through different page tables. The
// simulator uses the MMU on the context save/restore path (the trap routine
// writes the saved context through the virtual address space of its process)
// and to enforce isolation between contexts.
package mmu

import (
	"fmt"

	"repro/internal/gmem"
)

// VAddr is a GPU virtual address.
type VAddr uint64

// PageSize is the GPU page size. GPUs use large pages; 64 KiB matches
// contemporary NVIDIA MMUs.
const PageSize = 64 * 1024

const (
	level1Bits = 10
	level2Bits = 10
	pageShift  = 16 // log2(PageSize)
)

// PageTable is a two-level per-context page table. Its "root" stands in for
// the physical location named by the base page table register of §3.1.
// Level-2 tables are dense arrays with a presence bitmap, like the real
// structure. A level-2 table that empties leaves the root but is kept on the
// table's spare list, and Reset readies an empty table for a new address
// space, so once a table is warm the per-activation save-area map/unmap
// traffic is a handful of array stores with no allocation — also across the
// contexts that reuse it.
type PageTable struct {
	ASID  int // address-space identifier (the GPU context id)
	root  []*ptLevel2
	spare []*ptLevel2 // emptied level-2 tables, reused before allocating
	next  VAddr       // simple growing virtual address space
}

const l2Entries = 1 << level2Bits

type ptLevel2 struct {
	entries [l2Entries]gmem.PAddr
	present [l2Entries / 64]uint64
	count   int
}

func (t *ptLevel2) has(l2 uint64) bool { return t.present[l2>>6]&(1<<(l2&63)) != 0 }
func (t *ptLevel2) set(l2 uint64)      { t.present[l2>>6] |= 1 << (l2 & 63) }
func (t *ptLevel2) clear(l2 uint64)    { t.present[l2>>6] &^= 1 << (l2 & 63) }

// NewPageTable returns an empty page table for the given address space.
func NewPageTable(asid int) *PageTable {
	return &PageTable{
		ASID: asid,
		next: PageSize, // keep page 0 unmapped to catch null derefs
	}
}

// Reset readies an empty page table for a new address space: it takes the
// new ASID and restarts the virtual address space, keeping its level-2
// tables for reuse. It fails if any page is still mapped, so a recycled
// table can never carry another context's translations.
func (pt *PageTable) Reset(asid int) error {
	if n := pt.Mapped(); n != 0 {
		return fmt.Errorf("mmu: resetting asid %d with %d pages still mapped", pt.ASID, n)
	}
	pt.ASID = asid
	pt.root = pt.root[:0]
	pt.next = PageSize
	return nil
}

// level2 returns the level-2 table for an L1 index, growing the root and
// installing a table (a spare one if any) as needed.
func (pt *PageTable) level2(l1 uint64) *ptLevel2 {
	for uint64(len(pt.root)) <= l1 {
		pt.root = append(pt.root, nil)
	}
	tbl := pt.root[l1]
	if tbl == nil {
		if n := len(pt.spare); n > 0 {
			tbl = pt.spare[n-1]
			pt.spare = pt.spare[:n-1]
		} else {
			tbl = &ptLevel2{}
		}
		pt.root[l1] = tbl
	}
	return tbl
}

// lookup returns the level-2 table for an L1 index, or nil.
func (pt *PageTable) lookup(l1 uint64) *ptLevel2 {
	if l1 >= uint64(len(pt.root)) {
		return nil
	}
	return pt.root[l1]
}

// Map installs translations for npages pages starting at va -> pa.
func (pt *PageTable) Map(va VAddr, pa gmem.PAddr, npages int) error {
	if va%PageSize != 0 {
		return fmt.Errorf("mmu: unaligned virtual address %#x", uint64(va))
	}
	for i := 0; i < npages; i++ {
		v := va + VAddr(i*PageSize)
		l1 := uint64(v) >> (pageShift + level2Bits)
		l2 := (uint64(v) >> pageShift) & (l2Entries - 1)
		tbl := pt.level2(l1)
		if tbl.has(l2) {
			return fmt.Errorf("mmu: double map of va %#x in asid %d", uint64(v), pt.ASID)
		}
		tbl.entries[l2] = pa + gmem.PAddr(i*PageSize)
		tbl.set(l2)
		tbl.count++
	}
	return nil
}

// Unmap removes translations for npages pages starting at va.
func (pt *PageTable) Unmap(va VAddr, npages int) error {
	for i := 0; i < npages; i++ {
		v := va + VAddr(i*PageSize)
		l1 := uint64(v) >> (pageShift + level2Bits)
		l2 := (uint64(v) >> pageShift) & (l2Entries - 1)
		tbl := pt.lookup(l1)
		if tbl == nil || !tbl.has(l2) {
			return fmt.Errorf("mmu: unmap of unmapped va %#x in asid %d", uint64(v), pt.ASID)
		}
		tbl.clear(l2)
		tbl.count--
		if tbl.count == 0 {
			// Every entry of an empty table is clear: it can serve any L1
			// index as is.
			pt.root[l1] = nil
			pt.spare = append(pt.spare, tbl)
		}
	}
	return nil
}

// Translate walks the page table (two levels) and returns the physical
// address for va, or an error on a page fault.
func (pt *PageTable) Translate(va VAddr) (gmem.PAddr, error) {
	l1 := uint64(va) >> (pageShift + level2Bits)
	l2 := (uint64(va) >> pageShift) & (l2Entries - 1)
	tbl := pt.lookup(l1)
	if tbl == nil {
		return 0, fmt.Errorf("mmu: page fault at va %#x in asid %d (no L1 entry)", uint64(va), pt.ASID)
	}
	if !tbl.has(l2) {
		return 0, fmt.Errorf("mmu: page fault at va %#x in asid %d (no L2 entry)", uint64(va), pt.ASID)
	}
	return tbl.entries[l2] + gmem.PAddr(uint64(va)&(PageSize-1)), nil
}

// Mapped returns the number of mapped pages.
func (pt *PageTable) Mapped() int {
	n := 0
	for _, tbl := range pt.root {
		if tbl != nil {
			n += tbl.count
		}
	}
	return n
}

// AllocRegion reserves a fresh region of virtual address space covering
// size bytes and maps it to pa. It returns the base virtual address.
func (pt *PageTable) AllocRegion(pa gmem.PAddr, size int64) (VAddr, error) {
	npages := int((size + PageSize - 1) / PageSize)
	va := pt.next
	if err := pt.Map(va, pa, npages); err != nil {
		return 0, err
	}
	pt.next += VAddr(npages * PageSize)
	return va, nil
}

// TLB is a per-SM translation lookaside buffer with LRU replacement. A miss
// walks the page table selected by the SM's base page table register (here:
// the PageTable passed to Lookup).
type TLB struct {
	capacity int
	entries  map[tlbKey]tlbEntry
	clock    uint64

	Hits   uint64
	Misses uint64
	Faults uint64
}

type tlbKey struct {
	asid int
	vpn  uint64
}

type tlbEntry struct {
	pa   gmem.PAddr
	used uint64
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		panic("mmu: non-positive TLB capacity")
	}
	return &TLB{capacity: capacity, entries: make(map[tlbKey]tlbEntry, capacity)}
}

// Lookup translates va through the TLB, walking pt on a miss.
func (t *TLB) Lookup(pt *PageTable, va VAddr) (gmem.PAddr, error) {
	t.clock++
	key := tlbKey{asid: pt.ASID, vpn: uint64(va) >> pageShift}
	if e, ok := t.entries[key]; ok {
		t.Hits++
		e.used = t.clock
		t.entries[key] = e
		return e.pa + gmem.PAddr(uint64(va)&(PageSize-1)), nil
	}
	t.Misses++
	pa, err := pt.Translate(va)
	if err != nil {
		t.Faults++
		return 0, err
	}
	base := pa - gmem.PAddr(uint64(va)&(PageSize-1))
	if len(t.entries) >= t.capacity {
		t.evict()
	}
	t.entries[key] = tlbEntry{pa: base, used: t.clock}
	return pa, nil
}

// FlushASID removes all entries belonging to the given address space. The SM
// driver flushes the SM's TLB when it installs a different context (§3.1).
func (t *TLB) FlushASID(asid int) {
	for k := range t.entries {
		if k.asid == asid {
			delete(t.entries, k)
		}
	}
}

// Flush empties the TLB. The map is cleared, not reallocated: installing a
// different context on an SM is frequent in multiprogrammed runs.
func (t *TLB) Flush() {
	clear(t.entries)
}

// Len returns the number of resident entries.
func (t *TLB) Len() int { return len(t.entries) }

func (t *TLB) evict() {
	var victim tlbKey
	var oldest uint64 = ^uint64(0)
	for k, e := range t.entries {
		if e.used < oldest {
			oldest = e.used
			victim = k
		}
	}
	delete(t.entries, victim)
}
