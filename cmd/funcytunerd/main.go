// Command funcytunerd serves FuncyTuner tuning campaigns as cancellable
// HTTP jobs. Submit a JSON JobSpec to POST /jobs, watch it via
// /jobs/{id} and /jobs/{id}/progress, cancel it with
// POST /jobs/{id}/cancel, and read the winner from /jobs/{id}/result.
//
// The daemon runs in one of three modes:
//
//	-mode=local        (default) every job evaluates in-process; all
//	                   jobs share one worker gate (-global-workers)
//	-mode=coordinator  like local, plus a fleet coordinator mounted at
//	                   /fleet/ — jobs submitted with "distributed": true
//	                   dispatch their evaluations to remote workers via
//	                   the lease protocol (-lease-ttl, -heartbeat)
//	-mode=worker       no job API; claims evaluations from -coordinator
//	                   and reports outcomes until quarantined or killed
//
// On SIGINT/SIGTERM a local or coordinator daemon stops accepting work,
// cancels every running job at its next evaluation boundary, and drains
// each to a valid checkpoint under -data — a restarted daemon (or the
// CLI) can resume them with the "resume" spec field. A worker simply
// stops claiming; its in-flight leases expire and are re-dispatched,
// which changes nothing about the run's result.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"funcytuner"
	"funcytuner/internal/faults"
	"funcytuner/internal/fleet"
	"funcytuner/internal/metrics"
	"funcytuner/internal/server"
)

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "funcytunerd:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "funcytunerd:", err)
		os.Exit(1)
	}
}

// config is the parsed, validated command line.
type config struct {
	mode          string
	addr          string
	data          string
	globalWorkers int
	drainTimeout  time.Duration

	// Results repository (local, coordinator) and shared compile cache
	// (all modes — a worker shares one cache across every job it
	// evaluates, and spills/reloads it like a server does).
	repo        string
	skipExist   bool
	sharedCache int
	cacheSpill  string

	// Job defaults (local, coordinator): applied to submitted specs that
	// leave the matching field unset.
	technique string
	warmStart bool

	// Coordinator-mode lease protocol knobs.
	leaseTTL       time.Duration
	heartbeat      time.Duration
	maxLeaseLosses int
	fleetJournal   string

	// Worker-mode knobs.
	coordinator string
	workerID    string
	concurrency int
	claimBatch  int
	poll        time.Duration
	faultRate   float64
}

// parseFlags parses and validates args. It is pure apart from writing
// usage to errOut, so tests can drive it table-style.
func parseFlags(args []string, errOut io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("funcytunerd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&cfg.mode, "mode", "local", "local, coordinator or worker")
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:7461", "listen address (local, coordinator)")
	fs.StringVar(&cfg.data, "data", "funcytunerd-data", "checkpoint root directory (one subdirectory per job)")
	fs.IntVar(&cfg.globalWorkers, "global-workers", runtime.GOMAXPROCS(0),
		"total in-flight evaluations across all jobs (local, coordinator)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second,
		"how long shutdown waits for jobs to drain to their checkpoints")
	fs.StringVar(&cfg.repo, "repo", "",
		"results repository directory: completed jobs are stored there and survive restarts (local, coordinator)")
	fs.BoolVar(&cfg.skipExist, "skip-exist", false,
		"serve identical resubmissions from -repo in one lookup instead of re-running them")
	fs.IntVar(&cfg.sharedCache, "shared-cache", 0,
		"entries in a process-wide compile cache shared by all jobs; 0 = per-job private caches (server) / default size (worker)")
	fs.StringVar(&cfg.cacheSpill, "cache-spill", "",
		"directory the shared compile cache spills evicted objects to and reloads them from; requires -shared-cache (server), any cache (worker)")
	fs.StringVar(&cfg.technique, "technique", "",
		"default search technique for jobs that do not set one: cfr, bo or ga (local, coordinator)")
	fs.BoolVar(&cfg.warmStart, "warm-start", false,
		"warm-start jobs from -repo by default; requires -repo and -technique bo or ga (local, coordinator)")
	fs.DurationVar(&cfg.leaseTTL, "lease-ttl", fleet.DefaultLeaseTTL,
		"evaluation lease TTL; a worker silent for this long loses its claim (coordinator)")
	fs.DurationVar(&cfg.heartbeat, "heartbeat", 0,
		"heartbeat cadence workers are told to keep; 0 = lease-ttl/4 (coordinator)")
	fs.IntVar(&cfg.maxLeaseLosses, "max-lease-losses", fleet.DefaultMaxLeaseLosses,
		"consecutive lease losses before a worker is quarantined (coordinator)")
	fs.StringVar(&cfg.fleetJournal, "fleet-journal", "",
		"write-ahead journal for the fleet queue/lease state; a killed coordinator restarted with the same path re-adopts in-flight work (coordinator)")
	fs.StringVar(&cfg.coordinator, "coordinator", "", "coordinator base URL, e.g. http://host:7461 (worker)")
	fs.StringVar(&cfg.workerID, "worker-id", "", "stable worker identity; default hostname-pid (worker)")
	fs.IntVar(&cfg.concurrency, "concurrency", runtime.GOMAXPROCS(0), "simultaneous claims (worker)")
	fs.IntVar(&cfg.claimBatch, "claim-batch", 1,
		"tasks leased per claim round-trip, reported back in one batch (worker)")
	fs.DurationVar(&cfg.poll, "poll", 2*time.Second, "claim long-poll bound (worker)")
	fs.Float64Var(&cfg.faultRate, "worker-fault-rate", 0,
		"scale of the injected worker fault mix, for chaos testing (worker)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return cfg, cfg.validate()
}

func (cfg config) validate() error {
	switch cfg.mode {
	case "local", "coordinator", "worker":
	default:
		return fmt.Errorf("-mode must be local, coordinator or worker, got %q", cfg.mode)
	}
	if cfg.mode != "coordinator" && cfg.fleetJournal != "" {
		return fmt.Errorf("-fleet-journal requires -mode=coordinator")
	}
	// The cache flags apply to every mode: servers share one cache across
	// jobs, workers share one across the jobs they evaluate.
	if cfg.sharedCache < 0 {
		return fmt.Errorf("-shared-cache must be >= 0, got %d", cfg.sharedCache)
	}
	if cfg.mode == "worker" {
		if cfg.coordinator == "" {
			return fmt.Errorf("-mode=worker requires -coordinator URL")
		}
		if cfg.concurrency < 1 {
			return fmt.Errorf("-concurrency must be >= 1, got %d", cfg.concurrency)
		}
		if cfg.claimBatch < 1 {
			return fmt.Errorf("-claim-batch must be >= 1, got %d", cfg.claimBatch)
		}
		if cfg.poll <= 0 {
			return fmt.Errorf("-poll must be positive, got %v", cfg.poll)
		}
		if cfg.faultRate < 0 {
			return fmt.Errorf("-worker-fault-rate must be >= 0, got %v", cfg.faultRate)
		}
		if cfg.technique != "" {
			return fmt.Errorf("-technique is a job default, not a worker setting (workers replay whatever claims the coordinator issues)")
		}
		if cfg.warmStart {
			return fmt.Errorf("-warm-start is a job default, not a worker setting")
		}
		return nil
	}
	if cfg.globalWorkers < 1 {
		return fmt.Errorf("-global-workers must be >= 1, got %d", cfg.globalWorkers)
	}
	if cfg.skipExist && cfg.repo == "" {
		return fmt.Errorf("-skip-exist requires -repo")
	}
	if cfg.cacheSpill != "" && cfg.sharedCache == 0 {
		return fmt.Errorf("-cache-spill requires -shared-cache")
	}
	if cfg.warmStart && cfg.repo == "" {
		return fmt.Errorf("-warm-start requires -repo")
	}
	// The job defaults must make a valid job on their own.
	if err := (funcytuner.Spec{Technique: cfg.technique, WarmStart: cfg.warmStart}).Validate(); err != nil {
		return err
	}
	if cfg.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", cfg.drainTimeout)
	}
	if cfg.mode == "coordinator" {
		if cfg.leaseTTL <= 0 {
			return fmt.Errorf("-lease-ttl must be positive, got %v", cfg.leaseTTL)
		}
		if cfg.heartbeat < 0 {
			return fmt.Errorf("-heartbeat must be >= 0, got %v", cfg.heartbeat)
		}
		if cfg.heartbeat >= cfg.leaseTTL {
			return fmt.Errorf("-heartbeat (%v) must be below -lease-ttl (%v), or a healthy worker can lose its lease between beats",
				cfg.heartbeat, cfg.leaseTTL)
		}
		if cfg.maxLeaseLosses < 1 {
			return fmt.Errorf("-max-lease-losses must be >= 1, got %d", cfg.maxLeaseLosses)
		}
	}
	return nil
}

func run(cfg config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.mode == "worker" {
		return runWorker(ctx, cfg)
	}
	return runServer(ctx, stop, cfg)
}

// runWorker claims evaluations from the coordinator until the context
// is cancelled, the coordinator shuts down, or it quarantines us.
func runWorker(ctx context.Context, cfg config) error {
	id := cfg.workerID
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID:          id,
		Coordinator: cfg.coordinator,
		Concurrency: cfg.concurrency,
		ClaimBatch:  cfg.claimBatch,
		Poll:        cfg.poll,
		CacheSize:   cfg.sharedCache,
		CacheSpill:  cfg.cacheSpill,
		Faults:      faults.DefaultWorkerRates().Scale(cfg.faultRate),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("funcytunerd: worker %s claiming from %s (%d slots)\n", id, cfg.coordinator, cfg.concurrency)
	if err := w.Run(ctx); err != nil {
		return err
	}
	fmt.Println("funcytunerd: worker stopped")
	return nil
}

// runServer serves the job API in local or coordinator mode.
func runServer(ctx context.Context, stop context.CancelFunc, cfg config) error {
	mcfg := server.Config{
		Dir:              cfg.data,
		Gate:             server.NewGate(cfg.globalWorkers),
		DefaultTechnique: cfg.technique,
		DefaultWarmStart: cfg.warmStart,
	}
	if cfg.repo != "" {
		repo, err := funcytuner.OpenResultRepo(cfg.repo)
		if err != nil {
			return err
		}
		mcfg.Repo = repo
		mcfg.SkipExist = cfg.skipExist
	}
	var cache *funcytuner.CompileCache
	if cfg.sharedCache > 0 {
		cache = funcytuner.NewCompileCache(cfg.sharedCache)
		if cfg.cacheSpill != "" {
			if err := cache.AttachSpill(cfg.cacheSpill); err != nil {
				return err
			}
		}
		mcfg.Cache = cache
	}
	if cfg.mode == "coordinator" {
		coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
			LeaseTTL:       cfg.leaseTTL,
			Heartbeat:      cfg.heartbeat,
			MaxLeaseLosses: cfg.maxLeaseLosses,
			Registry:       metrics.NewRegistry(),
			JournalPath:    cfg.fleetJournal,
		})
		if err != nil {
			return err
		}
		// Close compacts the journal on a clean drain: truncated to empty
		// when nothing is outstanding, snapshotted otherwise.
		defer coord.Close()
		mcfg.Fleet = coord
	}
	mgr, err := server.NewManager(mcfg)
	if err != nil {
		return err
	}
	if cfg.fleetJournal != "" {
		reattached, err := mgr.ReattachFleetJobs()
		if err != nil {
			return err
		}
		if n := mcfg.Fleet.RecoveredTasks(); n > 0 || len(reattached) > 0 {
			fmt.Printf("funcytunerd: fleet journal %s: re-adopted %d in-flight tasks, re-attached %d jobs\n",
				cfg.fleetJournal, n, len(reattached))
		}
	}
	srv := &http.Server{Addr: cfg.addr, Handler: server.NewServer(mgr)}

	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	fmt.Printf("funcytunerd: %s mode, listening on http://%s (data %s, %d worker slots)\n",
		cfg.mode, cfg.addr, cfg.data, cfg.globalWorkers)
	if cfg.repo != "" {
		fmt.Printf("funcytunerd: results repository at %s (skip-exist %v, %d entries)\n",
			cfg.repo, cfg.skipExist, mcfg.Repo.Len())
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills us

	fmt.Println("funcytunerd: shutting down, draining jobs to checkpoints...")
	dctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain jobs; each cancelled
	// job flushes its checkpoint before its goroutine exits. Closing the
	// coordinator (deferred) fails the drained distributed evaluations.
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "funcytunerd: http shutdown:", err)
	}
	if err := mgr.Drain(dctx); err != nil {
		return err
	}
	if cache != nil && cfg.cacheSpill != "" {
		// Flush the still-resident cache entries to the spill directory so
		// a restarted daemon starts warm instead of recompiling.
		cache.SpillAll()
	}
	fmt.Println("funcytunerd: all jobs drained")
	return <-errc
}
