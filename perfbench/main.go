// Command perfbench is the repository benchmark. It measures the
// service's unit of work end to end — one Session.ApplyBatch: ∆D in,
// ∆V durable and published to readers — beside the lock-free read
// surface, on four workloads that stress different layers (see
// WORKLOADS.md). A run with --trace 1 rebuilds the write path from
// public calls and breaks each batch down by layer instead.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload cent-rw --seed 1 --seconds 10 --trace 0
//
// Inputs are generated from --seed before any timing. The last line of
// standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. A fingerprint of the inputs and of the
// deterministic work counters goes to standard error, so two runs at
// one seed can be shown to have done identical work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// fingerprint is the run's input hash and deterministic work
	// counters (see fingerprint); it goes to standard error.
	fingerprint string
}

// options are one invocation's settings.
type options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// WorkDir holds the run's storage, checkpoint and journal files;
	// it is removed when the run ends.
	WorkDir string
	// TraceDir, when set, receives the per-batch layer table of a
	// traced run.
	TraceDir string
}

func main() {
	workload := flag.String("workload", "", "workload name: cent-rw, cent-disk, hor-tcp or ver-loop")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "nominal length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	sp, err := lookupSpec(*workload)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("bad --seconds or --trace")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work := filepath.Join(build, fmt.Sprintf("work-%s-%d", sp.Name, os.Getpid()))
	opt := options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, WorkDir: work,
		TraceDir: filepath.Join(build, "trace")}
	res, err := run(sp, opt)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation: generate inputs, then either the
// end-to-end run or the traced run.
func run(sp spec, opt options) (*result, error) {
	if err := os.MkdirAll(opt.WorkDir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	in := generate(sp, opt.Seed, sp.phaseBatches(opt.Seconds, opt.Trace))
	fmt.Fprintf(os.Stderr, "perfbench: generated inputs in %.2fs\n", time.Since(t0).Seconds())
	defer func() { fmt.Fprintf(os.Stderr, "perfbench: run took %.2fs\n", time.Since(t0).Seconds()) }()
	if opt.Trace {
		return runTraced(sp, opt, in)
	}
	return runEndToEnd(sp, opt, in)
}
