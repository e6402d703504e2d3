// Command sacworker is one worker process of the distributed runtime:
// it registers with a sac driver over TCP, heartbeats, executes its
// rank of each submitted SPMD job program, and serves its shuffle
// buckets to peer workers.
//
//	sacworker -driver 127.0.0.1:7077
//	sacworker -driver 127.0.0.1:7077 -id w1 -parallelism 4 -mem 256MiB
//
// Queries arrive as data (the SAC DSL source plus generator
// parameters), never as code, so any sacworker binary can serve any
// driver built from the same source tree; the driver refuses a worker
// whose wire protocol version differs, and the worker then exits. The
// worker retries its initial driver connection with backoff, so
// workers may be started before the driver is listening.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/debug"
	"repro/internal/memory"

	// Job programs register themselves; linking the package is what
	// teaches this worker to execute them.
	_ "repro/internal/jobs"
)

func main() {
	driver := flag.String("driver", "127.0.0.1:7077", "driver control address to register with")
	id := flag.String("id", "", "worker identity (default host:pid)")
	data := flag.String("data", "127.0.0.1:0", "listen address for the shuffle data server")
	parallelism := flag.Int("parallelism", 0, "task slots per job (default 1)")
	mem := flag.String("mem", "", "per-worker memory budget (e.g. 256MiB); work past it spills to disk. Default: $SAC_MEMORY_BUDGET, else unlimited")
	connectWait := flag.Duration("connect-wait", 30*time.Second, "how long to keep retrying the initial driver connection")
	debugAddr := flag.String("debug", "", "serve /debug endpoints (pprof and the Prometheus metrics registry) on this address while running")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT: how long to let in-flight jobs finish before disconnecting")
	flag.Parse()

	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	budget := memory.BudgetFromEnv(0)
	if *mem != "" {
		var err error
		if budget, err = memory.ParseBytes(*mem); err != nil {
			fmt.Fprintf(os.Stderr, "sacworker: %v\n", err)
			os.Exit(2)
		}
	}

	// The worker has no session of its own, but the process-wide
	// instrument registry (stage/task/shuffle/telemetry counters) and
	// pprof are live from the first job — a nil Source serves those and
	// answers 503 on the snapshot routes.
	if *debugAddr != "" {
		srv, err := debug.Serve(*debugAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sacworker: debug endpoint: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint: http://%s/\n", srv.Addr())
	}

	cfg := cluster.WorkerConfig{
		ID:           *id,
		DriverAddr:   *driver,
		DataAddr:     *data,
		Parallelism:  *parallelism,
		MemoryBudget: budget,
	}
	// The driver may not be up yet (CI starts both concurrently);
	// retry registration with backoff until -connect-wait elapses. A
	// refusal (protocol version mismatch) is final.
	var w *cluster.Worker
	var err error
	deadline := time.Now().Add(*connectWait)
	for backoff := 100 * time.Millisecond; ; backoff *= 2 {
		w, err = cluster.StartWorker(cfg)
		if err == nil {
			break
		}
		if errors.Is(err, cluster.ErrRefused) {
			fmt.Fprintf(os.Stderr, "sacworker: %v\n", err)
			os.Exit(1)
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "sacworker: giving up on driver %s: %v\n", *driver, err)
			os.Exit(1)
		}
		if backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
		time.Sleep(backoff)
	}
	fmt.Printf("sacworker %s: registered with %s, serving shuffle data on %s\n",
		*id, *driver, w.DataAddr())

	// SIGTERM/SIGINT drain gracefully: refuse new jobs, finish the ones
	// in flight (still heartbeating and serving shuffle data), then
	// disconnect and exit 0 — a rolling restart never fails a job that
	// had already been assigned here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	sigSeen := make(chan struct{})
	drained := make(chan int, 1)
	go func() {
		<-sig
		close(sigSeen)
		fmt.Printf("sacworker %s: draining (timeout %v)\n", *id, *drainTimeout)
		if err := w.Drain(*drainTimeout); err != nil {
			fmt.Fprintf(os.Stderr, "sacworker %s: %v\n", *id, err)
			drained <- 1
			return
		}
		fmt.Printf("sacworker %s: drained\n", *id)
		drained <- 0
	}()

	err = w.Wait()
	select {
	case <-sigSeen:
		// Signal-initiated exit: the drain outcome is the exit status
		// (Wait's "connection lost" after our own disconnect is not an
		// error).
		os.Exit(<-drained)
	default:
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sacworker %s: %v\n", *id, err)
		os.Exit(1)
	}
}
