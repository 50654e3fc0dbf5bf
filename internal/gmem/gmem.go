// Package gmem models the GPU's physical memory. Like the baseline GK110 in
// the paper, the GPU has no demand paging: allocations from all contexts are
// resident in physical memory for their whole lifetime, and allocation fails
// when physical memory is exhausted.
package gmem

import (
	"fmt"
	"slices"
	"sort"
)

// PAddr is a GPU physical address.
type PAddr uint64

// Manager is a first-fit physical memory allocator with per-owner
// accounting. Owners are context ids; owner -1 is the system (for example,
// the preallocated context-save areas of §3.2 belong to the kernel's
// context, while framework structures belong to the system).
type Manager struct {
	size  int64
	used  int64  // running sum of live allocation sizes
	free  []span // sorted by base
	inUse map[PAddr]alloc
	owned map[int]int64
	bases []PAddr // FreeOwner's reusable scratch
}

type span struct {
	base PAddr
	size int64
}

type alloc struct {
	size  int64
	owner int
}

// NewManager returns a manager for size bytes of physical memory.
func NewManager(size int64) *Manager {
	if size <= 0 {
		panic("gmem: non-positive memory size")
	}
	return &Manager{
		size:  size,
		free:  []span{{base: 0, size: size}},
		inUse: make(map[PAddr]alloc),
		owned: make(map[int]int64),
	}
}

// Size returns the total physical memory size in bytes.
func (m *Manager) Size() int64 { return m.size }

// Used returns the number of bytes currently allocated. It is O(1) — a
// running counter, not a walk of the live allocations — because dispatchers
// consult free memory on every placement decision.
func (m *Manager) Used() int64 { return m.used }

// Available returns the number of unallocated bytes.
func (m *Manager) Available() int64 { return m.size - m.used }

// OwnedBy returns the number of bytes currently allocated to owner.
func (m *Manager) OwnedBy(owner int) int64 { return m.owned[owner] }

// Alloc reserves size bytes for owner and returns the base physical address.
// It fails when no free span is large enough (no paging, as in the paper's
// baseline architecture).
func (m *Manager) Alloc(owner int, size int64) (PAddr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("gmem: allocation of %d bytes", size)
	}
	for i, s := range m.free {
		if s.size < size {
			continue
		}
		base := s.base
		if s.size == size {
			m.free = append(m.free[:i], m.free[i+1:]...)
		} else {
			m.free[i] = span{base: s.base + PAddr(size), size: s.size - size}
		}
		m.inUse[base] = alloc{size: size, owner: owner}
		m.owned[owner] += size
		m.used += size
		return base, nil
	}
	return 0, fmt.Errorf("gmem: out of memory allocating %d bytes for owner %d (used %d of %d, %d free)",
		size, owner, m.used, m.size, m.size-m.used)
}

// Free releases the allocation at base.
func (m *Manager) Free(base PAddr) error {
	a, ok := m.inUse[base]
	if !ok {
		return fmt.Errorf("gmem: freeing unallocated address %#x", uint64(base))
	}
	delete(m.inUse, base)
	m.owned[a.owner] -= a.size
	m.used -= a.size
	if m.owned[a.owner] == 0 {
		delete(m.owned, a.owner)
	}
	m.insertFree(span{base: base, size: a.size})
	return nil
}

// FreeOwner releases every allocation belonging to owner and returns the
// number of bytes freed. Used when a GPU context is destroyed.
func (m *Manager) FreeOwner(owner int) int64 {
	bases := m.bases[:0]
	for base, a := range m.inUse {
		if a.owner == owner {
			bases = append(bases, base)
		}
	}
	slices.Sort(bases)
	m.bases = bases
	var freed int64
	for _, base := range bases {
		freed += m.inUse[base].size
		m.Free(base) //nolint:errcheck // base came from inUse
	}
	return freed
}

// insertFree inserts a span keeping the free list sorted and coalesced.
func (m *Manager) insertFree(s span) {
	i := sort.Search(len(m.free), func(i int) bool { return m.free[i].base > s.base })
	m.free = append(m.free, span{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = s
	// Coalesce with successor, then predecessor.
	if i+1 < len(m.free) && m.free[i].base+PAddr(m.free[i].size) == m.free[i+1].base {
		m.free[i].size += m.free[i+1].size
		m.free = append(m.free[:i+1], m.free[i+2:]...)
	}
	if i > 0 && m.free[i-1].base+PAddr(m.free[i-1].size) == m.free[i].base {
		m.free[i-1].size += m.free[i].size
		m.free = append(m.free[:i], m.free[i+1:]...)
	}
}

// FreeSpans returns the number of fragments in the free list (for tests).
func (m *Manager) FreeSpans() int { return len(m.free) }
