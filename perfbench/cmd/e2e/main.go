// Command e2e is the repository benchmark's end-to-end runner. It builds one
// workload's inputs from a seed, repeats the simulation call through the
// public repro facade for a time budget, checks every call's output, and
// prints the end-to-end metrics as the last line of standard output:
//
//	e2e --workload fleet-rr --seed 1 --seconds 25 --trace 0
//
// The traced per-layer run is the separate traced command; perfbench/run.sh
// picks one by the --trace flag.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/perfbench/bench"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", bench.DefaultSeed, "workload seed")
	seconds := flag.Int("seconds", 25, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "must be 0: the traced run is the traced command")
	flag.Parse()
	if *traced != 0 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2e: needs --trace 0 and --seconds >= 1")
		return 2
	}
	w, err := bench.Lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	in, setupS, err := bench.Setup(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e: set-up:", err)
		return 1
	}
	r := bench.Repeat(context.Background(), in, time.Duration(*seconds)*time.Second)
	for _, err := range r.Errors {
		fmt.Fprintln(os.Stderr, "e2e:", err)
	}
	executor := ""
	if len(r.Samples) > 0 {
		executor = r.Samples[0].Out.Executor
	}
	fmt.Println(bench.Provenance(w, *seed, executor, len(r.Samples)))
	rep := bench.Report{
		Correct:   len(r.Errors) == 0 && len(r.Samples) > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   r.EndToEnd(setupS),
	}
	if err := rep.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	return 0
}
