package gpu

import (
	"fmt"

	"repro/internal/mmu"
)

// Context is a GPU context: the per-process state the GPU holds (§2.1).
// Each process that uses the GPU gets its own context, containing the page
// table of its GPU address space and scheduling attributes consulted by the
// policies (priority for the priority-queue schedulers, token budget for
// DSS).
type Context struct {
	// ID is the GPU context id; it doubles as the address-space identifier
	// programmed into the SM's context-id register (§3.1).
	ID int
	// Name labels the owning process (for reports and timelines).
	Name string
	// Priority orders contexts for the priority-queue schedulers; larger is
	// more important.
	Priority int
	// PageTable is the per-process GPU page table, walked from the base
	// page-table register of SMs running this context's kernels.
	PageTable *mmu.PageTable
}

// DefaultContextCapacity is the context-table capacity of an assembled
// machine when the configuration leaves it unset: the number of processes a
// single GPU can hold simultaneously. system.New and the cluster layer both
// fall back to it; open-system runs override it with their arrival count so
// admission never fails while retired contexts free their slots.
const DefaultContextCapacity = 64

// ContextTable is the execution engine's table of active contexts (§3.1).
// The SM driver reads it during SM setup to install per-context state (the
// context id and base page-table registers) into the SM.
//
// Destroyed contexts' (empty) page tables go onto a free list that Create
// draws from, so admitting a context per request stops allocating page
// tables once the table is warm. Context ids still come from a monotonic
// counter and are never reused: a recycled page table takes the new id as
// its ASID, so TLB entries, SM context-id registers and anything else keyed
// by a retired id can never match the new context.
type ContextTable struct {
	capacity int
	byID     map[int]*Context
	nextID   int
	spare    []*mmu.PageTable // page tables of destroyed contexts, all empty
}

// NewContextTable returns a context table with the given capacity.
func NewContextTable(capacity int) *ContextTable {
	if capacity <= 0 {
		panic("gpu: non-positive context table capacity")
	}
	return &ContextTable{capacity: capacity, byID: make(map[int]*Context)}
}

// Create allocates a new context with the next free id.
func (t *ContextTable) Create(name string, priority int) (*Context, error) {
	if len(t.byID) >= t.capacity {
		return nil, fmt.Errorf("gpu: context table full (%d contexts)", t.capacity)
	}
	id := t.nextID
	var pt *mmu.PageTable
	if n := len(t.spare); n > 0 {
		pt = t.spare[n-1]
		if err := pt.Reset(id); err != nil {
			return nil, err
		}
		t.spare = t.spare[:n-1]
	} else {
		pt = mmu.NewPageTable(id)
	}
	t.nextID++
	ctx := &Context{
		ID:        id,
		Name:      name,
		Priority:  priority,
		PageTable: pt,
	}
	t.byID[id] = ctx
	return ctx, nil
}

// Lookup returns the context with the given id, or nil.
func (t *ContextTable) Lookup(id int) *Context { return t.byID[id] }

// Destroy removes the context with the given id and recycles its page
// table, which must be empty: destroying a context that still maps a page is
// an error and leaves the context in place. The retired context loses its
// page table, so a stale reference cannot translate through the recycled one.
func (t *ContextTable) Destroy(id int) error {
	ctx, ok := t.byID[id]
	if !ok {
		return fmt.Errorf("gpu: destroying unknown context %d", id)
	}
	if n := ctx.PageTable.Mapped(); n != 0 {
		return fmt.Errorf("gpu: destroying context %d with %d pages still mapped", id, n)
	}
	delete(t.byID, id)
	t.spare = append(t.spare, ctx.PageTable)
	ctx.PageTable = nil
	return nil
}

// Len returns the number of active contexts.
func (t *ContextTable) Len() int { return len(t.byID) }

// Capacity returns the table capacity.
func (t *ContextTable) Capacity() int { return t.capacity }
