package cluster

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// scanRef is the linear fleet scan the lockstep loop ran before nodeHeap:
// per-slot (has, at) and a first-lowest-index minimum.
type scanRef struct {
	has []bool
	at  []sim.Time
}

func (r *scanRef) min() (int, sim.Time) {
	ni := -1
	var tN sim.Time
	for i := range r.has {
		if r.has[i] && (ni < 0 || r.at[i] < tN) {
			tN, ni = r.at[i], i
		}
	}
	return ni, tN
}

// TestNodeHeapMatchesScan drives random sequences of set (a node's next
// event moved), remove (a kill or a drained engine), re-add (a restart) and
// grow (a scale-up) against the linear scan and checks that the same
// (node, time) comes out after every operation. Times are drawn from a
// small range so equal-time ties between nodes are frequent; the lowest
// index must win them, as in the scan.
func TestNodeHeapMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		var h nodeHeap
		var ref scanRef
		grow := func(n int) {
			h.grow(n)
			for len(ref.has) < n {
				ref.has = append(ref.has, false)
				ref.at = append(ref.at, 0)
			}
		}
		grow(1 + r.Intn(8))
		ties := 0
		for step := 0; step < 4000; step++ {
			n := len(ref.has)
			i := r.Intn(n)
			switch op := r.Intn(10); {
			case op < 6:
				at := sim.Time(r.Intn(16))
				h.set(i, at)
				ref.has[i], ref.at[i] = true, at
			case op < 9:
				h.remove(i)
				ref.has[i] = false
			default:
				if n < 200 {
					grow(n + 1 + r.Intn(4))
				}
			}
			gi, gt := h.min()
			wi, wt := ref.min()
			if gi != wi || (wi >= 0 && gt != wt) {
				t.Fatalf("seed %d step %d: heap min = (%d, %v), scan = (%d, %v)", seed, step, gi, gt, wi, wt)
			}
			bound := sim.Time(r.Intn(17))
			for j := range ref.has {
				want := ref.has[j] && ref.at[j] < bound
				if got := h.before(j, bound); got != want {
					t.Fatalf("seed %d step %d: before(%d, %v) = %v, want %v", seed, step, j, bound, got, want)
				}
				if want && j != wi && ref.at[j] == wt {
					ties++
				}
			}
		}
		if ties == 0 {
			t.Fatalf("seed %d: no equal-time ties exercised", seed)
		}
	}
}

// TestNodeHeapWarmUpdateAllocFree pins that re-keying, removing and
// re-adding slots of a pre-sized heap never allocates: the lockstep loop
// does one of these per event.
func TestNodeHeapWarmUpdateAllocFree(t *testing.T) {
	var h nodeHeap
	h.grow(64)
	for i := 0; i < 64; i++ {
		h.set(i, sim.Time(i))
	}
	var k int
	allocs := testing.AllocsPerRun(1000, func() {
		i := k % 64
		k++
		h.set(i, sim.Time(k*7%97))
		if k%5 == 0 {
			h.remove(i)
			h.set(i, sim.Time(k))
		}
	})
	if allocs != 0 {
		t.Fatalf("warm update allocates %v per op, want 0", allocs)
	}
}
