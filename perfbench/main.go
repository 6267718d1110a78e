// Command perfbench is the repository's benchmark. It drives the cem
// library in-process on three workloads — dblp-smp, hepth-mmp and
// people-stream (see README.md) — checks every operation's match set
// against a reference, and prints each metric by name with its unit and
// sample count, then one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run times each layer from outside it and reports per-layer metrics,
// writing its spans as Chrome trace-event JSON under -out.
//
//	go build -o perfbench . && ./perfbench -workload hepth-mmp -seed 42 -seconds 25 -trace 0
//
// -workload all runs each workload in a process of its own.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "dblp-smp | hepth-mmp | people-stream | all")
		seed    = fs.Int64("seed", 42, "input seed")
		secs    = fs.Int("seconds", 25, "measurement window in seconds")
		traceOn = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		out     = fs.String("out", ".bench_build/perfbench", "directory for span files and stream state")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *secs < 1 || (*traceOn != 0 && *traceOn != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if *name == "all" {
		return runAll(args)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*secs) * time.Second,
		trace:   *traceOn == 1,
		out:     *out,
		workers: runtime.NumCPU(),
	}
	rep := &report{env: environment()}
	rep.env["workload"] = w.name + ": " + w.why
	rep.env["seed"] = strconv.FormatInt(cfg.seed, 10)
	rep.env["workers"] = fmt.Sprintf("%d blocking shards, %d matcher workers", cfg.workers, cfg.workers)

	ctx := context.Background()
	var err error
	if w.stream {
		err = runStream(ctx, w, cfg, rep)
	} else {
		err = runBatch(ctx, w, cfg, rep)
	}
	if err != nil {
		return err
	}
	if !cfg.trace {
		rep.finish()
	}
	return rep.print()
}

// runAll runs every workload in a child process of its own, so each
// peak RSS is that workload's alone, and waits for each to exit.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}
