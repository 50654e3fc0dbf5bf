package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out, err := Map(context.Background(), 50, Options{Workers: workers},
			func(ctx context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 0, Options{},
		func(ctx context.Context, i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty map: %v, %v", out, err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), 30, Options{Workers: workers},
		func(ctx context.Context, i int) (struct{}, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, want <= %d", p, workers)
	}
}

func TestMapFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Map(context.Background(), 1000, Options{Workers: 2},
		func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("error did not cancel remaining jobs (ran %d)", n)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(ctx, 1000, Options{Workers: 2},
		func(ctx context.Context, i int) (int, error) {
			if ran.Add(1) == 4 {
				cancel()
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the pool (ran %d)", n)
	}
	// A pre-cancelled context runs nothing at all.
	ran.Store(0)
	if _, err := Map(ctx, 10, Options{},
		func(ctx context.Context, i int) (int, error) { ran.Add(1); return i, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	if ran.Load() != 0 {
		t.Error("pre-cancelled context still ran jobs")
	}
}

func TestMapProgress(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	total := 17
	_, err := Map(context.Background(), total, Options{
		Workers: 4,
		OnProgress: func(done, n int) {
			mu.Lock()
			defer mu.Unlock()
			if n != total {
				t.Errorf("total = %d, want %d", n, total)
			}
			seen = append(seen, done)
		},
	}, func(ctx context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != total {
		t.Fatalf("progress called %d times, want %d", len(seen), total)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress sequence %v not monotone", seen)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) string {
		out, err := Map(context.Background(), 25, Options{Workers: workers},
			func(ctx context.Context, i int) (string, error) {
				return fmt.Sprintf("%d:%d", i, i*7%13), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(out)
	}
	want := run(1)
	for _, w := range []int{2, 4, 16} {
		if got := run(w); got != want {
			t.Errorf("workers=%d diverged:\n got %s\nwant %s", w, got, want)
		}
	}
}

// runCounts runs one batch of n on p and fails unless every index ran
// exactly once.
func runCounts(t *testing.T, p *Pool, n int, hits []atomic.Int32) {
	t.Helper()
	p.Run(n, func(i int) { hits[i].Add(1) })
	for i := 0; i < n; i++ {
		if h := hits[i].Swap(0); h != 1 {
			t.Fatalf("n=%d: index %d ran %d times", n, i, h)
		}
	}
}

func TestPoolRunSizes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		w := p.helpers + 1
		hits := make([]atomic.Int32, 50*w)
		for _, n := range []int{0, 1, w - 1, w, w + 1, 50 * w} {
			runCounts(t, p, n, hits)
		}
		p.Close()
	}
}

func TestPoolBackToBackRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := NewPool(4)
	defer p.Close()
	hits := make([]atomic.Int32, 64)
	for r := 0; r < 10000; r++ {
		runCounts(t, p, r%len(hits), hits)
	}
}

// settle waits for the goroutine count to return to want, failing after a
// generous deadline.
func settle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolCloseStopsSpinningAndParkedHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	hits := make([]atomic.Int32, 16)

	// Spinning: Close right after a batch, well inside the spin bound.
	p := NewPool(4)
	runCounts(t, p, len(hits), hits)
	p.Close()
	settle(t, base)

	// Parked: wait until every helper sleeps on the condition variable.
	p = NewPool(4)
	runCounts(t, p, len(hits), hits)
	for deadline := time.Now().Add(5 * time.Second); int(p.parked.Load()) < p.helpers; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers parked", p.parked.Load(), p.helpers)
		}
		time.Sleep(time.Millisecond)
	}
	// A parked pool still runs batches.
	runCounts(t, p, len(hits), hits)
	p.Close()
	settle(t, base)
}

func TestPoolHelpersBoundedByGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := runtime.NumGoroutine()
	p := NewPool(64)
	defer p.Close()
	if p.helpers != 1 {
		t.Errorf("Parallel 64 at GOMAXPROCS 2 started %d helpers, want 1", p.helpers)
	}
	if got := runtime.NumGoroutine() - base; got > 1 {
		t.Errorf("%d new goroutines, want at most 1", got)
	}
}

// TestPoolYieldsOnOneProc shrinks GOMAXPROCS below the pool's size: the
// caller waiting on its helpers, and helpers spinning for the next batch,
// must yield the processor, or a batch would wait out preemption ticks.
func TestPoolYieldsOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := NewPool(4)
	defer p.Close()
	runtime.GOMAXPROCS(1)
	hits := make([]atomic.Int32, 16)
	start := time.Now()
	for r := 0; r < 2000; r++ {
		runCounts(t, p, len(hits), hits)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("2000 batches on one P took %v", d)
	}
}

func TestPoolRunAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := NewPool(2)
	defer p.Close()
	out := make([]int, 64)
	fn := func(i int) { out[i] = i }
	p.Run(len(out), fn)
	if a := testing.AllocsPerRun(100, func() { p.Run(len(out), fn) }); a != 0 {
		t.Errorf("warm Pool.Run allocates %v per call, want 0", a)
	}
}
