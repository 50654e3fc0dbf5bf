// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock with nanosecond resolution and a
// priority queue of scheduled events. Events scheduled for the same instant
// fire in the order they were scheduled, which makes simulations fully
// deterministic and therefore reproducible and testable.
//
// The scheduling core is allocation-free on the steady state: event records
// live inline in a pooled value slice (no per-event heap object), ordered by
// an index-based 4-ary min-heap, and callers receive compact
// generation-counted EventID handles instead of pointers. Cancellation is
// O(1) and lazy — cancelled records are discarded when they surface at the
// top of the heap, or in bulk when they outnumber live ones.
package sim

import (
	"fmt"
)

// Time is a point in virtual time, in nanoseconds. It is also used for
// durations; the zero value is the simulation epoch.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds converts a duration expressed in microseconds (possibly
// fractional, as in the paper's tables) to a Time.
func Microseconds(us float64) Time {
	if us < 0 {
		return Time(us*float64(Microsecond) - 0.5)
	}
	return Time(us*float64(Microsecond) + 0.5)
}

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0"
	case t < Microsecond && t > -Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond && t > -Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second && t > -Second:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}

// EventID is a generation-counted handle to a scheduled event. The zero
// value is invalid and never matches a live event; handles to events that
// fired (or whose record was reclaimed and reused) go stale and every
// operation on them reports false.
type EventID struct {
	idx int32
	gen uint32
}

// Valid reports whether the handle ever referred to an event. Use
// Engine.Canceled / Engine.Cancel to check whether it still does.
func (id EventID) Valid() bool { return id.gen != 0 }

// Func is the closure-free callback form: a plain function (typically a
// top-level one, so the func value itself never allocates) receiving the
// context pointer and scalar argument it was scheduled with.
type Func func(p any, x int64)

// evState is the lifecycle state of an event record.
type evState uint8

const (
	evFree evState = iota
	evPending
	evCanceled
)

// eventRecord is one inline pooled event. Records are stored by value in
// Engine.rec and referenced by index from the heap; they are reused (with a
// bumped generation) once they fire or their cancellation is collected.
type eventRecord struct {
	at    Time
	seq   uint64
	x     int64
	fn    func()
	tfn   Func
	p     any
	gen   uint32
	state evState
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now Time
	seq uint64

	rec  []eventRecord // record pool; heap entries index into it
	free []int32       // reusable record slots
	heap []int32       // 4-ary min-heap of record indices, keyed by (at, seq)

	ncanceled int // cancelled records still occupying heap entries

	stopped   bool
	processed uint64
	maxEvents uint64 // 0 = unlimited
}

// NewEngine returns an engine with the clock at the epoch.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still scheduled (including canceled
// events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.heap) }

// SetMaxEvents installs a safety limit on the total number of events the
// engine will process; Run returns ErrEventLimit once the limit is reached.
// Zero (the default) means no limit.
func (e *Engine) SetMaxEvents(n uint64) { e.maxEvents = n }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it is always a simulation bug.
func (e *Engine) At(t Time, fn func()) EventID {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	return e.schedule(t, fn, nil, nil, 0)
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// AtFunc schedules fn(p, x) to run at virtual time t. Unlike At, it captures
// no closure: when fn is a top-level function and p a pointer (or nil), the
// call allocates nothing beyond the pooled event record.
func (e *Engine) AtFunc(t Time, fn Func, p any, x int64) EventID {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	return e.schedule(t, nil, fn, p, x)
}

// AfterFunc schedules fn(p, x) to run d after the current time, without
// capturing a closure. Negative d panics.
func (e *Engine) AfterFunc(d Time, fn Func, p any, x int64) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtFunc(e.now+d, fn, p, x)
}

// schedule allocates a pooled record for the event and pushes it on the heap.
func (e *Engine) schedule(t Time, fn func(), tfn Func, p any, x int64) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.rec = append(e.rec, eventRecord{gen: 1})
		idx = int32(len(e.rec) - 1)
	}
	r := &e.rec[idx]
	r.at, r.seq = t, e.seq
	e.seq++
	r.fn, r.tfn, r.p, r.x = fn, tfn, p, x
	r.state = evPending
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap) - 1)
	return EventID{idx: idx, gen: r.gen}
}

// release returns a record (already removed from the heap) to the pool and
// bumps its generation so outstanding handles go stale.
func (e *Engine) release(idx int32) {
	r := &e.rec[idx]
	r.state = evFree
	r.fn, r.tfn, r.p = nil, nil, nil
	if r.gen++; r.gen == 0 {
		r.gen = 1 // skip 0 on wrap: the zero EventID must stay invalid
	}
	e.free = append(e.free, idx)
}

// Cancel prevents a pending event from firing. It reports whether the
// cancellation had effect (false if the event already fired, was already
// canceled, or the handle is stale). Canceling is O(1); the engine discards
// canceled records lazily, compacting the heap in bulk when they outnumber
// live entries.
func (e *Engine) Cancel(id EventID) bool {
	if id.idx < 0 || int(id.idx) >= len(e.rec) {
		return false
	}
	r := &e.rec[id.idx]
	if r.gen != id.gen || r.state != evPending {
		return false
	}
	r.state = evCanceled
	r.fn, r.tfn, r.p = nil, nil, nil // drop references early
	e.ncanceled++
	if e.ncanceled*2 > len(e.heap) {
		e.compact()
	}
	return true
}

// Canceled reports whether the handle refers to a canceled event whose
// record has not been reclaimed yet. Stale handles report false.
func (e *Engine) Canceled(id EventID) bool {
	if id.idx < 0 || int(id.idx) >= len(e.rec) {
		return false
	}
	r := &e.rec[id.idx]
	return r.gen == id.gen && r.state == evCanceled
}

// When returns the scheduled time of a still-pending (or canceled but
// uncollected) event, and whether the handle is live.
func (e *Engine) When(id EventID) (Time, bool) {
	if id.idx < 0 || int(id.idx) >= len(e.rec) {
		return 0, false
	}
	r := &e.rec[id.idx]
	if r.gen != id.gen || r.state == evFree {
		return 0, false
	}
	return r.at, true
}

// --- 4-ary heap over record indices -------------------------------------

// less orders records by (time, schedule sequence): the total order that
// makes same-time events fire in schedule order.
func (e *Engine) less(a, b int32) bool {
	ra, rb := &e.rec[a], &e.rec[b]
	return ra.at < rb.at || (ra.at == rb.at && ra.seq < rb.seq)
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	id := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(id, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = id
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	id := h[i]
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
			if e.less(h[c], h[best]) {
				best = c
			}
		}
		if !e.less(h[best], id) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = id
}

// popMin removes and returns the root record index.
func (e *Engine) popMin() int32 {
	h := e.heap
	idx := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return idx
}

// compact removes every cancelled entry from the heap at once and restores
// the heap invariant. Called when cancelled entries exceed half the heap.
func (e *Engine) compact() {
	live := e.heap[:0]
	for _, idx := range e.heap {
		if e.rec[idx].state == evCanceled {
			e.ncanceled--
			e.release(idx)
		} else {
			live = append(live, idx)
		}
	}
	e.heap = live
	if len(live) > 1 {
		for i := (len(live) - 2) / 4; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

// --- Execution -----------------------------------------------------------

// Stop makes Run return after the currently executing event completes.
// The remaining events stay queued; Run can be called again to resume.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called since the last Run/Resume.
func (e *Engine) Stopped() bool { return e.stopped }

// ErrEventLimit is returned by Run when the event safety limit is hit.
var ErrEventLimit = fmt.Errorf("sim: event limit reached")

// Step fires the next pending event. It returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		idx := e.popMin()
		r := &e.rec[idx]
		if r.state == evCanceled {
			e.ncanceled--
			e.release(idx)
			continue
		}
		e.now = r.at
		e.processed++
		// Copy the callback out and release the record before firing, so the
		// callback can schedule into the freed slot and stale handles to this
		// event are already invalid while it runs.
		fn, tfn, p, x := r.fn, r.tfn, r.p, r.x
		e.release(idx)
		if tfn != nil {
			tfn(p, x)
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run processes events until none remain, Stop is called, or the event
// limit is exceeded (in which case ErrEventLimit is returned).
func (e *Engine) Run() error {
	e.stopped = false
	for !e.stopped {
		if e.maxEvents > 0 && e.processed >= e.maxEvents {
			return ErrEventLimit
		}
		if !e.Step() {
			return nil
		}
	}
	return nil
}

// RunUntil processes all events scheduled at or before t, then advances the
// clock to t. It respects Stop and the event limit like Run.
func (e *Engine) RunUntil(t Time) error {
	e.stopped = false
	for !e.stopped {
		if e.maxEvents > 0 && e.processed >= e.maxEvents {
			return ErrEventLimit
		}
		next, ok := e.peek()
		if !ok || next > t {
			break
		}
		e.Step()
	}
	if e.now < t && !e.stopped {
		e.now = t
	}
	return nil
}

// Peek returns the timestamp of the next pending event without firing it.
// The second result is false when no events remain. Lockstep drivers (the
// cluster layer) use it to merge several engines by timestamp.
func (e *Engine) Peek() (Time, bool) { return e.peek() }

func (e *Engine) peek() (Time, bool) {
	for len(e.heap) > 0 {
		idx := e.heap[0]
		r := &e.rec[idx]
		if r.state == evCanceled {
			e.popMin()
			e.ncanceled--
			e.release(idx)
			continue
		}
		return r.at, true
	}
	return 0, false
}
