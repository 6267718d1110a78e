// Command emserve runs the online matching service: an HTTP server over
// the incremental pipeline (internal/serve). Records POSTed to /records
// are coalesced into delta batches and applied through Pipeline.Update;
// reads (/records/{key}, /cluster/{key}, /matches, /stats) are served
// from the last committed snapshot while updates run. With -state-dir
// the service journals every accepted batch and checkpoints every
// matching round, so SIGTERM (graceful drain) or even a kill restarts
// into the identical state. Adding -store disk keeps the accumulated
// match state in a disk-backed segment store under the state directory:
// every commit saves a reopenable snapshot, and a restart reopens it
// with zero matcher work instead of replaying the journal. /metrics
// speaks the Prometheus text format.
//
// Usage:
//
//	emserve -addr 127.0.0.1:8080 -state-dir /var/lib/emserve
//	emserve -state-dir /var/lib/emserve -store disk
//	emserve -scheme smp -matcher mln -max-batch 512 -max-delay 100ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	cem "repro"
	"repro/internal/serve"
)

// httpLimits bounds every connection, so a slow or stalled client
// cannot hold one forever. The write limit covers a POST ?wait=1, which
// answers only once its batch is committed, so it is generous.
var httpLimits = struct{ readHeader, read, write, idle time.Duration }{
	readHeader: 10 * time.Second,
	read:       2 * time.Minute,
	write:      10 * time.Minute,
	idle:       2 * time.Minute,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil, nil); err != nil {
		fmt.Fprintf(os.Stderr, "emserve: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable entry point. sigs overrides the OS signal channel
// (nil installs SIGINT/SIGTERM); ready, when non-nil, receives the bound
// listen address once the server accepts connections.
func run(args []string, stdout, stderr io.Writer, sigs chan os.Signal, ready chan<- string) error {
	fs := flag.NewFlagSet("emserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		state    = fs.String("state", "", "durable state directory (journal + checkpoints + store); empty = ephemeral")
		stName   = fs.String("store", "", "storage backend under <state>/store: "+strings.Join(cem.Stores(), " | ")+"; empty = journal/checkpoint recovery only")
		matcher  = fs.String("matcher", "mln", "matcher: "+strings.Join(cem.Matchers(), " | "))
		scheme   = fs.String("scheme", "smp", "scheme: nomp | smp | mmp (incremental path required)")
		shards   = fs.Int("shards", 0, "blocking shards (blocking is serial; the output is identical for every count)")
		maxNbr   = fs.Int("max-neighborhood", 0, "canopy size bound (0 = unbounded)")
		parallel = fs.Int("parallel", 1, "concurrent neighborhood evaluations")
		dataset  = fs.String("dataset", "emserve", "dataset name reported in snapshots")
		rulesF   = fs.String("rules-file", "", "declarative rules program; compiles and registers it, selecting it as the matcher")
		maxBatch = fs.Int("max-batch", 256, "flush a batch once it holds this many records")
		maxDelay = fs.Duration("max-delay", 200*time.Millisecond, "flush a batch once its oldest record waited this long")
		queueCap = fs.Int("queue-cap", 64, "queued ingest requests before producers block (backpressure)")
		drain    = fs.Duration("drain-timeout", time.Minute, "graceful-shutdown bound; an overrunning drain is aborted (the journal recovers it)")
	)
	fs.StringVar(state, "state-dir", "", "alias of -state")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stName == "mem" {
		return fmt.Errorf("-store mem persists nothing across restarts; drop -store (journal/checkpoint recovery) or use -store disk")
	}
	if *stName != "" && *state == "" {
		return fmt.Errorf("-store %s requires -state-dir", *stName)
	}
	if *rulesF != "" {
		name, err := cem.LoadRulesFile(*rulesF)
		if err != nil {
			return err
		}
		matcherSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "matcher" {
				matcherSet = true
			}
		})
		if matcherSet && *matcher != name {
			return fmt.Errorf("-rules-file program is named %q but -matcher asks for %q; drop -matcher or make the names agree", name, *matcher)
		}
		*matcher = name
	}
	switch cem.Scheme(*scheme) {
	case cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP:
	default:
		return fmt.Errorf("scheme %q has no incremental path (need nomp, smp or mmp)", *scheme)
	}

	svc, err := serve.New(context.Background(), serve.Config{
		Matcher:         *matcher,
		Scheme:          cem.Scheme(*scheme),
		Shards:          *shards,
		MaxNeighborhood: *maxNbr,
		Parallelism:     *parallel,
		DatasetName:     *dataset,
		StateDir:        *state,
		Store:           *stName,
		Batching: serve.BatcherConfig{
			MaxBatch: *maxBatch,
			MaxDelay: *maxDelay,
			QueueCap: *queueCap,
		},
		Logf: func(format string, a ...any) { fmt.Fprintf(stderr, "emserve: "+format+"\n", a...) },
	})
	if err != nil {
		return err
	}
	if snap := svc.Snapshot(); snap.Seq > 0 {
		fmt.Fprintf(stderr, "emserve: recovered seq %d (%d records, %d matches) from %s\n",
			snap.Seq, snap.Records(), snap.Matches(), *state)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "emserve: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	srv := &http.Server{
		Handler:           svc,
		ReadHeaderTimeout: httpLimits.readHeader,
		ReadTimeout:       httpLimits.read,
		WriteTimeout:      httpLimits.write,
		IdleTimeout:       httpLimits.idle,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if sigs == nil {
		sigs = make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(sigs)
	}
	select {
	case sig := <-sigs:
		fmt.Fprintf(stderr, "emserve: %v: draining\n", sig)
	case err := <-serveErr:
		svc.Kill()
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "emserve: http shutdown: %v\n", err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	snap := svc.Snapshot()
	fmt.Fprintf(stdout, "emserve: drained at seq %d (%d records, %d matches)\n",
		snap.Seq, snap.Records(), snap.Matches())
	return nil
}
