// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) plus the ablations listed in DESIGN.md. Each experiment
// returns structured results and can render itself as an aligned text table
// or CSV.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parboil"
	"repro/internal/pcie"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options parameterize an experiment run.
type Options struct {
	// Sizes are the workload sizes (processes per workload). Default
	// {2, 4, 6, 8} as in the paper.
	Sizes []int
	// PerSize is the number of random workloads per size. For the priority
	// experiments it should be a multiple of the suite size (10) so every
	// benchmark is the high-priority process equally often. Default 10.
	PerSize int
	// Seed drives workload generation and machine jitter.
	Seed uint64
	// MinRuns is the replay threshold (3 in the paper).
	MinRuns int
	// Scale divides benchmark sizes for quick runs (1 = paper-faithful).
	Scale int
	// Jitter is the per-thread-block time variability. Default 0.30.
	Jitter float64
	// Progress, when non-nil, receives one line per completed simulation,
	// prefixed with a [completed/total] job counter.
	Progress io.Writer
	// Workers bounds the number of concurrently running simulations
	// (0 = runtime.NumCPU(), 1 = sequential). Every simulation derives its
	// randomness from its grid coordinates, so results are identical at any
	// worker count.
	Workers int
	// ParWindow runs each cluster simulation's node engines in parallel-in-
	// time windows on this many workers (0 = the lockstep reference); cells
	// with load-aware dispatch or resilience run lockstep regardless. Output
	// is byte-identical either way; it parallelizes inside one cell, where
	// Workers parallelizes across cells.
	ParWindow int
	// Context, when non-nil, cancels an in-flight experiment grid.
	Context context.Context
}

func (o Options) withDefaults() Options {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{2, 4, 6, 8}
	}
	if o.PerSize <= 0 {
		o.PerSize = 10
	}
	if o.Seed == 0 {
		o.Seed = 2014
	}
	if o.MinRuns <= 0 {
		o.MinRuns = 3
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Jitter == 0 {
		o.Jitter = 0.30
	}
	return o
}

// Harness carries the benchmark suite and shared isolated baselines across
// experiments.
type Harness struct {
	Opts  Options
	Suite []*trace.App
	iso   *workload.Cache
}

// NewHarness builds a harness with the (possibly scaled) Parboil suite.
func NewHarness(o Options) *Harness {
	o = o.withDefaults()
	suite := parboil.Suite()
	if o.Scale > 1 {
		for i, a := range suite {
			suite[i] = a.Scale(o.Scale)
		}
	}
	return &Harness{Opts: o, Suite: suite, iso: workload.NewCache()}
}

// runConfig returns a workload run configuration with the given transfer
// engine policy.
func (h *Harness) runConfig(dma pcie.QueuePolicy) workload.RunConfig {
	sys := system.DefaultConfig()
	sys.Jitter = h.Opts.Jitter
	sys.Seed = h.Opts.Seed
	sys.DMAPolicy = dma
	return workload.RunConfig{Sys: sys, MinRuns: h.Opts.MinRuns}
}

// Isolated returns the application's isolated baseline turnaround.
func (h *Harness) Isolated(app *trace.App) (sim.Time, error) {
	return h.iso.Isolated(app, h.runConfig(pcie.FCFS{}))
}

// simJob is one independent simulation cell of an experiment grid: a
// workload, a machine configuration, and the policy/mechanism under test.
// Every job is a pure function of its fields (the workload's Seed carries
// all randomness), so jobs may run in any order on any number of workers.
type simJob struct {
	spec  workload.Spec
	rc    workload.RunConfig
	pol   func(n int) core.Policy
	mech  func() core.Mechanism
	label string
}

// run simulates one job.
func (h *Harness) run(j simJob) (*workload.Result, error) {
	rc := j.rc
	rc.Policy = j.pol
	rc.Mechanism = j.mech
	res, err := workload.Run(j.spec, rc)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", j.label, j.spec.Name, err)
	}
	return res, nil
}

// baselineJobs builds one nonprioritized FCFS baseline job per workload
// (the "nonprioritized execution" reference the priority sweeps compare
// against). The baseline is independent of any swept parameter, so sweeps
// submit these once and share the results across all sweep values.
func baselineJobs(h *Harness, specs []workload.Spec) []simJob {
	jobs := make([]simJob, 0, len(specs))
	for _, spec := range specs {
		base := spec
		base.HighPriority = -1
		jobs = append(jobs, simJob{spec: base, rc: h.runConfig(pcie.FCFS{}),
			pol: func(int) core.Policy { return policy.NewFCFS() }, label: "FCFS"})
	}
	return jobs
}

// runAll submits the grid to the shared concurrent runner and returns one
// result per job, in submission order. Experiments build their job list in
// the same nested-loop order their aggregation walks, so aggregating
// results[i] in that order reproduces the sequential path exactly.
func (h *Harness) runAll(jobs []simJob) ([]*workload.Result, error) {
	ctx := h.Opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	total := len(jobs)
	var mu sync.Mutex
	done := 0
	return runner.Map(ctx, total, runner.Options{Workers: h.Opts.Workers},
		func(ctx context.Context, i int) (*workload.Result, error) {
			j := jobs[i]
			res, err := h.run(j)
			if err != nil {
				return nil, err
			}
			if h.Opts.Progress != nil {
				mu.Lock()
				done++
				fmt.Fprintf(h.Opts.Progress, "  [%d/%d] %-10s %-9s end=%-12v util=%.2f preempt=%d\n",
					done, total, j.spec.Name, j.label, res.EndTime, res.Utilization, res.Stats.Preemptions)
				mu.Unlock()
			}
			return res, nil
		})
}

// perf builds the per-application performance pairs for a workload result.
func (h *Harness) perf(res *workload.Result) ([]metrics.AppPerf, error) {
	perfs := make([]metrics.AppPerf, 0, len(res.Apps))
	for i, ar := range res.Apps {
		iso, err := h.Isolated(res.Spec.Apps[i])
		if err != nil {
			return nil, err
		}
		perfs = append(perfs, metrics.AppPerf{Name: ar.Name, Isolated: iso, Shared: ar.MeanTurnaround})
	}
	return perfs, nil
}

// appNTT returns the normalized turnaround time of application index i.
func (h *Harness) appNTT(res *workload.Result, i int) (float64, error) {
	iso, err := h.Isolated(res.Spec.Apps[i])
	if err != nil {
		return 0, err
	}
	p := metrics.AppPerf{Name: res.Apps[i].Name, Isolated: iso, Shared: res.Apps[i].MeanTurnaround}
	return p.NTT(), nil
}

// --- aggregation ----------------------------------------------------------

// meanAgg accumulates values keyed by an arbitrary comparable key.
type meanAgg[K comparable] struct {
	sum map[K]float64
	n   map[K]int
}

func newMeanAgg[K comparable]() *meanAgg[K] {
	return &meanAgg[K]{sum: make(map[K]float64), n: make(map[K]int)}
}

func (a *meanAgg[K]) add(k K, v float64) {
	a.sum[k] += v
	a.n[k]++
}

func (a *meanAgg[K]) mean(k K) (float64, bool) {
	if a.n[k] == 0 {
		return 0, false
	}
	return a.sum[k] / float64(a.n[k]), true
}

func (a *meanAgg[K]) count(k K) int { return a.n[k] }

// --- generic table rendering ----------------------------------------------

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// WriteCSV writes the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	write := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := write(row); err != nil {
			return err
		}
	}
	return nil
}
