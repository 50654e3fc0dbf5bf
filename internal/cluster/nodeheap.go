package cluster

import (
	"slices"

	"repro/internal/sim"
)

// nodeHeap is an indexed 4-ary min-heap of node slots keyed by (next event
// time, slot index). It is the cluster's only cache of each node engine's
// next pending event time: the lockstep loop reads the fleet-wide earliest
// node event off its root in O(1), and each refresh re-keys one slot in
// O(log N). The slot index as the secondary key makes equal-time node events
// fire lowest index first, the cluster's documented tie order. The layout
// follows sim.Engine's heap.
type nodeHeap struct {
	heap []int32    // slot indices in heap order
	slot []heapSlot // per node slot
}

// heapSlot is one node slot's heap entry.
type heapSlot struct {
	at  sim.Time // next event time (meaningful while pos >= 0)
	pos int32    // position in heap, -1 when nothing is pending
}

// grow extends the heap to n slots, the new ones with nothing pending, and
// reserves heap room for all of them so set never allocates.
func (h *nodeHeap) grow(n int) {
	h.slot = slices.Grow(h.slot, n-len(h.slot))
	for len(h.slot) < n {
		h.slot = append(h.slot, heapSlot{pos: -1})
	}
	h.heap = slices.Grow(h.heap, n-len(h.heap))
}

// min returns the slot with the earliest pending event and its time, or -1
// when no slot has one.
func (h *nodeHeap) min() (int, sim.Time) {
	if len(h.heap) == 0 {
		return -1, 0
	}
	i := h.heap[0]
	return int(i), h.slot[i].at
}

// before reports whether slot i has a pending event strictly before bound.
func (h *nodeHeap) before(i int, bound sim.Time) bool {
	s := &h.slot[i]
	return s.pos >= 0 && s.at < bound
}

// set records slot i's next event time t, inserting the slot if nothing was
// pending on it.
func (h *nodeHeap) set(i int, t sim.Time) {
	s := &h.slot[i]
	if s.pos < 0 {
		s.at = t
		h.heap = append(h.heap, int32(i))
		h.siftUp(len(h.heap) - 1)
		return
	}
	old := s.at
	if t == old {
		return
	}
	s.at = t
	if t < old {
		h.siftUp(int(s.pos))
	} else {
		h.siftDown(int(s.pos))
	}
}

// remove drops slot i from the heap; a no-op when nothing was pending on it.
func (h *nodeHeap) remove(i int) {
	p := int(h.slot[i].pos)
	if p < 0 {
		return
	}
	h.slot[i].pos = -1
	last := len(h.heap) - 1
	if p == last {
		h.heap = h.heap[:last]
		return
	}
	moved := h.heap[last]
	h.heap = h.heap[:last]
	h.heap[p] = moved
	h.siftUp(p)
	h.siftDown(int(h.slot[moved].pos))
}

// less orders slots by (time, index).
func (h *nodeHeap) less(a, b int32) bool {
	ta, tb := h.slot[a].at, h.slot[b].at
	return ta < tb || (ta == tb && a < b)
}

func (h *nodeHeap) siftUp(i int) {
	q := h.heap
	id := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(id, q[parent]) {
			break
		}
		q[i] = q[parent]
		h.slot[q[i]].pos = int32(i)
		i = parent
	}
	q[i] = id
	h.slot[id].pos = int32(i)
}

func (h *nodeHeap) siftDown(i int) {
	q := h.heap
	n := len(q)
	id := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h.less(q[c], q[best]) {
				best = c
			}
		}
		if !h.less(q[best], id) {
			break
		}
		q[i] = q[best]
		h.slot[q[i]].pos = int32(i)
		i = best
	}
	q[i] = id
	h.slot[id].pos = int32(i)
}
