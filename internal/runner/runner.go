// Package runner is the shared concurrent job runner behind the experiment
// grids. The paper's evaluation replays hundreds of independent simulations
// (policy x workload x size cells); each cell is a pure function of its
// configuration and seed, so the grid is embarrassingly parallel. Map fans a
// job list out over a bounded worker pool and returns results in submission
// order, which makes aggregation deterministic: callers iterate the result
// slice exactly as the old sequential loops iterated their grids, so the
// output is byte-identical at any worker count.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Map call.
type Options struct {
	// Workers bounds the number of concurrently running jobs. Zero or
	// negative means runtime.NumCPU().
	Workers int
	// OnProgress, when non-nil, is called after every completed job with
	// (completed, total). Calls are serialized; completed increases
	// monotonically from 1 to total.
	OnProgress func(completed, total int)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// Pool is a persistent fan-out pool for many small, latency-sensitive
// batches: the cluster layer's parallel time windows fan out thousands of
// times per run, each batch only tens of microseconds of work. The pool has
// W = min(workers, GOMAXPROCS) participants — the goroutine calling Run is
// worker 0 and W-1 helper goroutines are spawned once — and Run splits its
// index range into one contiguous partition per participant, so a batch
// costs one handoff per helper rather than one per index, and a caller
// whose batches keep a stable index order (the cluster's active nodes, in
// node order) keeps each index on the same goroutine from batch to batch.
//
// Between batches each helper spins on the batch generation for spinFor
// before parking on a condition variable, so back-to-back batches separated
// by a short serial phase hand off without a scheduler wake-up, while an
// idle pool costs no CPU. Spinners yield the processor periodically, so
// they cannot starve the caller even when GOMAXPROCS shrinks below W.
//
// A Pool is much leaner than Map — no contexts, no errors, no result
// collection — because its callers communicate through state they
// partition themselves. A warm Run allocates nothing.
type Pool struct {
	helpers int // W-1; the caller of Run is worker 0

	// work publishes a batch: its generation in the high 32 bits and its
	// partition count in the low 32. Helper h runs partition h when h is
	// below the count; only those helpers read n and fn, which stay put
	// until pending drains to zero.
	work    atomic.Uint64
	n       int
	fn      func(int)
	pending atomic.Int32

	parked atomic.Int32 // helpers asleep on wake
	mu     sync.Mutex
	wake   *sync.Cond
	closed atomic.Bool
	exited sync.WaitGroup
}

const (
	// spinFor bounds how long an idle helper polls for the next batch
	// before parking. It exceeds the serial phase between two cluster
	// windows (the micro-merge and the next window's set-up), so
	// steady-state batches rarely pay a wake-up, yet an idle pool parks
	// within a fraction of a millisecond. A 15 µs bound measurably parked
	// between jsq lookahead windows on a 2-CPU Xeon.
	spinFor = 50 * time.Microsecond
	// spinCheck is the number of polls between clock reads and yields.
	spinCheck = 32
)

// NewPool starts a pool of min(workers, GOMAXPROCS) participants (zero or
// negative workers means GOMAXPROCS): the caller of Run plus that many
// minus one helper goroutines. Close the pool when done with it.
func NewPool(workers int) *Pool {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > procs {
		workers = procs
	}
	p := &Pool{helpers: workers - 1}
	p.wake = sync.NewCond(&p.mu)
	p.exited.Add(p.helpers)
	for h := 1; h <= p.helpers; h++ {
		go p.helper(h)
	}
	return p
}

// Run invokes fn(0) .. fn(n-1) and returns when all calls have finished:
// the caller runs the first partition itself, the helpers the others, each
// partition's indices in ascending order. fn must be safe for concurrent
// use across partitions; Run itself must not be called concurrently from
// multiple goroutines, and fn must not call Run reentrantly.
func (p *Pool) Run(n int, fn func(int)) {
	parts := min(n, p.helpers+1)
	if parts < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.n, p.fn = n, fn
	p.pending.Store(int32(parts - 1))
	p.work.Store((p.work.Load()>>32+1)<<32 | uint64(parts))
	// A helper increments parked before its final check of work, and Run
	// stores work before reading parked, so either the helper sees the new
	// batch or Run sees the sleeper (both are sequentially consistent).
	if p.parked.Load() > 0 {
		p.mu.Lock()
		p.wake.Broadcast()
		p.mu.Unlock()
	}
	p.runPart(0, parts)
	for p.pending.Load() != 0 {
		runtime.Gosched()
	}
}

// runPart runs partition w of parts over the current batch.
func (p *Pool) runPart(w, parts int) {
	for i, hi := w*p.n/parts, (w+1)*p.n/parts; i < hi; i++ {
		p.fn(i)
	}
}

// helper is the loop of helper goroutine h: wait for each new batch and run
// its partition when the batch has one for it.
func (p *Pool) helper(h int) {
	defer p.exited.Done()
	var seen uint64
	for {
		seen = p.await(seen)
		if p.closed.Load() {
			return
		}
		if parts := int(uint32(seen)); h < parts {
			p.runPart(h, parts)
			p.pending.Add(-1)
		}
	}
}

// await spins for up to spinFor, then parks, until the published batch
// differs from seen, and returns it.
func (p *Pool) await(seen uint64) uint64 {
	start := time.Now()
	for i := 1; ; i++ {
		if w := p.work.Load(); w != seen {
			return w
		}
		if i%spinCheck == 0 {
			if time.Since(start) > spinFor {
				break
			}
			runtime.Gosched()
		}
	}
	p.mu.Lock()
	p.parked.Add(1)
	for p.work.Load() == seen {
		p.wake.Wait()
	}
	p.parked.Add(-1)
	p.mu.Unlock()
	return p.work.Load()
}

// Close stops the helpers, spinning or parked, and returns once every one
// has exited. Run must not be called after Close.
func (p *Pool) Close() {
	p.closed.Store(true)
	p.work.Add(1 << 32)
	p.mu.Lock()
	p.wake.Broadcast()
	p.mu.Unlock()
	p.exited.Wait()
}

// Map runs fn(ctx, i) for every i in [0, n) on a pool of Options.Workers
// goroutines and returns the n results in index order. The first error
// cancels the pool's context and is returned after in-flight jobs finish;
// cancelling ctx has the same effect and returns ctx's error. fn must be
// safe for concurrent use; any randomness inside fn must be derived from i
// (see rng.SeedFrom), never from scheduling order.
func Map[T any](ctx context.Context, n int, o Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := o.workers()
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	idx := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				v, err := fn(ctx, i)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
						cancel()
					}
				} else {
					out[i] = v
					done++
					if o.OnProgress != nil {
						o.OnProgress(done, n)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
