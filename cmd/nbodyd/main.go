// Command nbodyd is the solver-as-a-service daemon: an HTTP front end
// over internal/server that accepts JSON job specs, runs them on a
// bounded worker pool with per-tenant quotas, write-ahead journals
// every transition, and checkpoints every committed PFASST block.
//
// A SIGTERM (or SIGINT) begins a graceful drain: admission stops,
// running jobs halt at their next block boundary with checkpoints
// intact, the queue is persisted in the journal, and the process exits
// 0. Restarting on the same -dir resumes every interrupted job
// bitwise-identically to an uninterrupted run.
//
// Usage:
//
//	nbodyd -addr 127.0.0.1:8790 -dir nbodyd-state -workers 2 -queue 16
//	nbodyd -chaos "crash=0.5,corrupt=0.1" -chaos-seed 7   # chaos testing
//
// Submit a job (see internal/server.JobSpec for the full schema):
//
//	curl -s -X POST localhost:8790/jobs -d '{
//	  "tenant": "alice",
//	  "system": {"kind": "vortex", "n": 1000},
//	  "t0": 0, "t1": 0.5, "steps": 8, "pt": 2, "ps": 1
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
)

// ignoredFlag returns the first of the set flags the daemon would not
// read, or "": -chaos-seed seeds a chaos plan, so it needs -chaos.
func ignoredFlag(set []string, chaos string) string {
	if chaos == "" && slices.Contains(set, "chaos-seed") {
		return "chaos-seed"
	}
	return ""
}

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8790", "listen address")
		dir           = flag.String("dir", "nbodyd-state", "state directory (journal, checkpoints, results)")
		workers       = flag.Int("workers", 2, "concurrently running jobs")
		queue         = flag.Int("queue", 16, "admission queue depth (full queue rejects with 429)")
		tenantQueued  = flag.Int("tenant-queued", 0, "per-tenant queued-job quota (0 = queue depth)")
		tenantRunning = flag.Int("tenant-running", 0, "per-tenant running-job cap (0 = worker count)")
		deadline      = flag.Duration("deadline", 0, "default per-job deadline (0 = unbounded)")
		retries       = flag.Int("retries", 2, "default retry budget for retryable failures")
		shed          = flag.Bool("shed", false, "shed the oldest queued job when full instead of rejecting")
		chaos         = flag.String("chaos", "", "server chaos plan (fault.ParseServer spec, e.g. \"crash=0.5,killdrain=1\")")
		chaosSeed     = flag.Int64("chaos-seed", 42, "seed of the chaos plan's deterministic verdicts")
	)
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if name := ignoredFlag(set, *chaos); name != "" {
		fmt.Fprintf(os.Stderr, "nbodyd: -%s has no effect without -chaos\n", name)
		flag.Usage()
		os.Exit(2)
	}

	plan, err := fault.ParseServer(*chaos, *chaosSeed)
	if err != nil {
		log.Fatalf("nbodyd: %v", err)
	}
	cfg := server.Config{
		Dir:              *dir,
		Workers:          *workers,
		QueueDepth:       *queue,
		TenantMaxQueued:  *tenantQueued,
		TenantMaxRunning: *tenantRunning,
		DefaultDeadline:  *deadline,
		MaxRetries:       *retries,
		ShedOldest:       *shed,
		Chaos:            plan,
	}
	if *retries == 0 {
		cfg.MaxRetries = -1 // flag 0 means "no retries", Config 0 means "default"
	}
	d, err := server.New(cfg)
	if err != nil {
		log.Fatalf("nbodyd: %v", err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           d.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("nbodyd: listening on %s, state in %s", *addr, *dir)

	select {
	case <-ctx.Done():
		log.Printf("nbodyd: signal received, draining")
	case err := <-errc:
		log.Fatalf("nbodyd: serve: %v", err)
	}
	derr := d.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	if derr != nil && !errors.Is(derr, server.ErrKilledDuringDrain) {
		log.Fatalf("nbodyd: drain: %v", derr)
	}
	log.Printf("nbodyd: drained, state persisted to %s", *dir)
}
