package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// DefaultSeed is the workload seed the benchmark's documentation quotes. A
// claimed gain must also hold on a seed not used while the change was made.
const DefaultSeed = 1

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the single JSON line a run ends with.
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Write prints the report as one JSON line.
func (r *Report) Write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// Median returns the median of xs (0 for none).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Setup builds the workload's inputs several times from the same seed and
// returns the last inputs with the median build time in seconds. Repeating
// keeps the set-up figure steady even where one build takes microseconds;
// each build starts from a collected heap, so it does not pay for the
// garbage of the one before.
func Setup(w Workload, seed uint64) (*Input, float64, error) {
	const minReps, maxReps, budget = 5, 401, 500 * time.Millisecond
	var times []float64
	var in *Input
	start := time.Now()
	for len(times) < minReps || (len(times) < maxReps && time.Since(start) < budget) {
		runtime.GC()
		t := time.Now()
		x, err := w.Setup(seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		in = x
	}
	return in, Median(times), nil
}

// Sample is one timed simulation call: wall seconds, process CPU seconds
// (all threads), the runtime's GC CPU estimate, and heap allocations.
type Sample struct {
	Seconds, CPU, GC float64
	Mallocs, Bytes   uint64
	Out              *Outcome
}

// PerRequest returns requests per second, allocations per request and bytes
// per request of the call.
func (s Sample) PerRequest() (rps, allocs, bytes float64) {
	n := float64(s.Out.Requests)
	return n / s.Seconds, float64(s.Mallocs) / n, float64(s.Bytes) / n
}

// Timed runs one simulation call from a collected heap and records its host
// time and the Go heap allocations it made.
func Timed(ctx context.Context, in *Input) (Sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, g0 := cpuSeconds(), gcSeconds()
	t := time.Now()
	out, err := in.Simulate(ctx)
	d := time.Since(t)
	c1, g1 := cpuSeconds(), gcSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return Sample{}, err
	}
	return Sample{Seconds: d.Seconds(), CPU: c1 - c0, GC: g1 - g0,
		Mallocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc, Out: out}, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func gcSeconds() float64 {
	smp := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(smp)
	if smp[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return smp[0].Value.Float64()
}

// MaxRSSMB is the process's peak resident set in MiB.
func MaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// Run is the outcome of repeating the simulation call for a time budget.
type Run struct {
	Samples []Sample
	// Attempted counts requests across every call made (the untimed warm-up
	// included); Failed counts requests of calls that errored or failed a
	// check, including a digest that differs from the first call's.
	Attempted, Failed int
	Errors            []error
}

// Repeat makes one untimed warm-up call, then repeats timed calls until the
// budget is spent (at least three). Every call must reproduce the warm-up's
// digest and executor: the same inputs must give the same simulation.
func Repeat(ctx context.Context, in *Input, budget time.Duration) *Run {
	r := &Run{}
	warm, err := in.Simulate(ctx)
	if err != nil {
		// Without a reference there is nothing steady to time.
		r.Errors = append(r.Errors, fmt.Errorf("warm-up call: %w", err))
		r.Attempted, r.Failed = in.Offered(), in.Offered()
		return r
	}
	r.Attempted = warm.Requests
	ref := warm.Model.Digest()
	start := time.Now()
	for len(r.Samples) < 3 || time.Since(start) < budget {
		s, err := Timed(ctx, in)
		if err == nil && (s.Out.Model.Digest() != ref || s.Out.Executor != warm.Executor) {
			err = fmt.Errorf("call %d: digest %x executor %q, warm-up gave %x %q",
				len(r.Samples), s.Out.Model.Digest(), s.Out.Executor, ref, warm.Executor)
		}
		if err != nil {
			r.Errors = append(r.Errors, err)
			r.Attempted += warm.Requests
			r.Failed += warm.Requests
			if len(r.Errors) >= 3 {
				break
			}
			continue
		}
		r.Attempted += s.Out.Requests
		r.Samples = append(r.Samples, s)
	}
	return r
}

// Offered is the request count the inputs present: arrivals on a fleet; on
// paper-mix the minimum completed runs the replay asks for.
func (in *Input) Offered() int {
	if !in.W.Mix {
		return in.Fleet.Arrivals.Trace.Len()
	}
	n := 0
	for _, b := range in.Batches {
		for _, w := range b.Mixes {
			n += len(w.Apps) * MixRuns
		}
	}
	return n
}

// EndToEnd reduces a run to the end-to-end metrics: medians over the timed
// calls, plus the set-up time.
func (r *Run) EndToEnd(setupS float64) map[string]Metric {
	var rps, allocs, bytes []float64
	for _, s := range r.Samples {
		a, b, c := s.PerRequest()
		rps, allocs, bytes = append(rps, a), append(allocs, b), append(bytes, c)
	}
	return map[string]Metric{
		"setup_s":                 {setupS, "s"},
		"requests_per_s":          {Median(rps), "1/s"},
		"allocs_per_request":      {Median(allocs), "count"},
		"alloc_bytes_per_request": {Median(bytes), "B"},
	}
}

// Provenance describes the host a run measured on, printed ahead of the
// result line.
func Provenance(w Workload, seed uint64, executor string, calls int) string {
	return fmt.Sprintf("# perfbench workload=%s seed=%d calls=%d executor=%q nproc=%d GOMAXPROCS=%d go=%s",
		w.Name, seed, calls, executor, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
