// Command funcytuner tunes one benchmark with the FuncyTuner pipeline and
// prints the chosen per-module compilation vectors.
//
// Usage:
//
//	funcytuner [-bench CL] [-machine broadwell] [-samples 1000] [-topx 50]
//	           [-technique cfr|bo|ga] [-warm-start]
//	           [-compare] [-seed funcytuner] [-flags] [-workers N]
//	           [-cache] [-cache-size N] [-cache-spill dir]
//	           [-repo dir] [-skip-exist]
//	           [-fault-rate 1] [-max-retries 2] [-checkpoint f] [-resume f]
//	           [-trace out.jsonl] [-progress] [-report run.md]
//
// With -compare, all four §2.2 algorithms run and their speedups are
// reported side by side; otherwise only the collection + search pipeline
// runs. -technique selects the search algorithm that spends the
// post-collection budget: cfr (default; Algorithm 1), bo (an
// analytical-surrogate Bayesian optimizer) or ga (a generational genetic
// algorithm) — all deterministic per seed. -warm-start seeds bo/ga from
// the best related prior runs in -repo. With -flags, the winning
// per-module CVs are printed in full. -workers bounds evaluation
// parallelism (0 = GOMAXPROCS).
//
// The content-addressed compile/link cache is on by default (-cache=false
// disables it; -cache-size bounds it in entries). Compilation is pure, so
// cached runs are bit-identical to uncached ones — the run summary shows
// how much physical compile/link work the cache removed.
//
// The resilience flags exercise the fault-tolerant evaluation harness:
// -fault-rate scales the default injected fault mix (0 = off, 1 = the
// default 2%/1%/0.5%/4% ICE/crash/timeout/flake rates), -checkpoint
// persists progress, and -resume continues a killed run from its
// checkpoint with bit-identical results. Ctrl-C (or SIGTERM) cancels a
// run the same way: it stops at the next evaluation boundary, and with
// -checkpoint set the interrupted campaign resumes bit-identically.
//
// Observability: -trace writes the run's structured event stream as
// JSONL (with wall-clock stamps for live inspection; the deterministic
// canonical view strips them), -progress prints periodic progress lines
// with an ETA to stderr, and -report writes a markdown run report
// including the metrics snapshot. None of them change results: traced
// runs are bit-identical to untraced ones.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"funcytuner"
	"funcytuner/internal/report"
)

// cliConfig is the parsed, validated command line. spec holds every flag
// that decides the run's outcome; the rest are how and where it runs.
type cliConfig struct {
	spec        funcytuner.Spec
	programFile string
	size        float64
	steps       int
	workers     int
	cache       bool
	cacheSize   int
	cacheSpill  string
	repoPath    string
	skipExist   bool
	showFlags   bool
	save        string
	maxRetries  int
	timeout     float64
	checkpoint  string
	resume      string
	killAfter   int
	tracePath   string
	progress    bool
	reportPath  string
}

// parseFlags parses and validates args. It is pure apart from writing
// usage to errOut, so tests can drive it table-style.
func parseFlags(args []string, errOut io.Writer) (cliConfig, error) {
	var cfg cliConfig
	fs := flag.NewFlagSet("funcytuner", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&cfg.spec.Benchmark, "bench", funcytuner.CloverLeaf, "benchmark name (LULESH, CL, AMG, Optewe, bwaves, fma3d, swim)")
	fs.StringVar(&cfg.programFile, "program", "", "tune a user-defined JSON program model instead of a built-in benchmark")
	fs.Float64Var(&cfg.size, "size", 0, "input size for -program (defaults to the model's BaseSize)")
	fs.IntVar(&cfg.steps, "steps", 0, "input steps for -program (defaults to the model's BaseSteps)")
	fs.StringVar(&cfg.spec.Machine, "machine", "broadwell", "machine (opteron, sandybridge, broadwell)")
	fs.IntVar(&cfg.spec.Samples, "samples", 1000, "evaluation budget K")
	fs.IntVar(&cfg.spec.TopX, "topx", 50, "CFR pruning width X")
	fs.StringVar(&cfg.spec.Technique, "technique", "",
		"search technique: cfr (default), bo (Bayesian optimization) or ga (genetic algorithm)")
	fs.BoolVar(&cfg.spec.WarmStart, "warm-start", false,
		"seed the technique from related prior runs in -repo; requires -technique bo or ga")
	fs.StringVar(&cfg.spec.Seed, "seed", "funcytuner", "tuning seed (equal seeds reproduce exactly)")
	fs.IntVar(&cfg.workers, "workers", 0, "parallel evaluation workers (0 = GOMAXPROCS)")
	fs.BoolVar(&cfg.cache, "cache", true, "memoize compile/link work (bit-identical results, less work)")
	fs.IntVar(&cfg.cacheSize, "cache-size", 0, "compile cache bound in entries (0 = default size)")
	fs.StringVar(&cfg.cacheSpill, "cache-spill", "", "directory the compile cache spills evicted objects to and reloads them from")
	fs.StringVar(&cfg.repoPath, "repo", "", "results repository directory: the finished run is stored there, content-addressed")
	fs.BoolVar(&cfg.skipExist, "skip-exist", false, "serve an identical already-completed run from -repo instead of re-tuning")
	fs.BoolVar(&cfg.spec.Compare, "compare", false, "run Random/FR/G/CFR side by side (§4.1 protocol)")
	fs.BoolVar(&cfg.showFlags, "flags", false, "print the winning per-module compilation vectors")
	fs.BoolVar(&cfg.spec.Adaptive, "adaptive", false, "early-stopped search (convergence-trend budget policy)")
	fs.StringVar(&cfg.save, "save", "", "write the winning configuration as JSON to this file")
	fs.Float64Var(&cfg.spec.FaultRate, "fault-rate", 0, "scale the default injected fault mix (0 = off, 1 = default rates)")
	fs.IntVar(&cfg.maxRetries, "max-retries", 0, "retry budget for transient failures (0 = default 2)")
	fs.Float64Var(&cfg.timeout, "timeout", 0, "per-evaluation deadline in simulated seconds (0 = off)")
	fs.StringVar(&cfg.checkpoint, "checkpoint", "", "persist tuning progress to this file")
	fs.StringVar(&cfg.resume, "resume", "", "resume from this checkpoint file (missing file starts fresh)")
	fs.IntVar(&cfg.killAfter, "kill-after", 0, "simulate a node failure after N evaluations (crash-testing)")
	fs.StringVar(&cfg.tracePath, "trace", "", "write the structured event trace as JSONL to this file")
	fs.BoolVar(&cfg.progress, "progress", false, "print periodic progress lines with ETA to stderr")
	fs.StringVar(&cfg.reportPath, "report", "", "write a markdown run report (results + metrics) to this file")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return cfg, cfg.validate()
}

// validate checks the flags that are the CLI's own, then the spec the
// way the tuner will.
func (cfg cliConfig) validate() error {
	if cfg.size < 0 {
		return fmt.Errorf("-size must be >= 0, got %v", cfg.size)
	}
	if cfg.steps < 0 {
		return fmt.Errorf("-steps must be >= 0, got %d", cfg.steps)
	}
	if cfg.skipExist && cfg.repoPath == "" {
		return fmt.Errorf("-skip-exist requires -repo")
	}
	if cfg.spec.WarmStart && cfg.repoPath == "" {
		return fmt.Errorf("-warm-start requires -repo")
	}
	return cfg.spec.Validate()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("funcytuner: ")
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
	run(cfg)
}

func run(cfg cliConfig) {
	m, err := funcytuner.MachineByName(cfg.spec.Machine)
	if err != nil {
		log.Fatal(err)
	}
	var userProg *funcytuner.Program
	if cfg.programFile != "" {
		f, err := os.Open(cfg.programFile)
		if err != nil {
			log.Fatal(err)
		}
		userProg, err = funcytuner.LoadProgram(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	cacheBound := cfg.cacheSize
	if !cfg.cache {
		cacheBound = -1
	}
	var rec *funcytuner.TraceRecorder
	var traceFile *os.File
	if cfg.tracePath != "" {
		// Open the destination before tuning so an unwritable path fails
		// fast instead of after a long campaign.
		traceFile, err = os.Create(cfg.tracePath)
		if err != nil {
			log.Fatal(err)
		}
		rec = funcytuner.NewTraceRecorder()
		rec.WallClock(func() int64 { return time.Now().UnixNano() })
	}
	var progressTo io.Writer
	if cfg.progress {
		progressTo = os.Stderr
	}
	tuner, prog, in, err := cfg.spec.Tuner(funcytuner.Options{
		Workers:        cfg.workers,
		CacheSize:      cacheBound,
		CacheSpill:     cfg.cacheSpill,
		RepoPath:       cfg.repoPath,
		SkipExist:      cfg.skipExist,
		MaxRetries:     cfg.maxRetries,
		TimeoutBudget:  cfg.timeout,
		Checkpoint:     cfg.checkpoint,
		Resume:         cfg.resume,
		KillAfterEvals: cfg.killAfter,
		Trace:          rec,
		Progress:       progressTo,
	})
	if err != nil {
		log.Fatal(err)
	}
	if userProg != nil {
		prog = userProg
		in = funcytuner.Input{Name: "user", Size: prog.BaseSize, Steps: prog.BaseSteps}
		if cfg.size > 0 {
			in.Size = cfg.size
		}
		if cfg.steps > 0 {
			in.Steps = cfg.steps
		}
		if in.Steps == 0 {
			in.Steps = 10
		}
	}

	// Ctrl-C (or SIGTERM) cancels the run at its next evaluation boundary;
	// with -checkpoint set, the flushed checkpoint makes the interrupted
	// campaign resumable with bit-identical results.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	fmt.Printf("tuning %s on %s with input %s\n", prog.Name, m, in)
	rep, err := tuner.Run(ctx, prog, in, cfg.spec)
	stopSignals() // a second Ctrl-C past this point kills us immediately
	// The trace is written even when the run died (ErrKilled): the partial
	// event stream is exactly what post-mortem debugging wants.
	if rec != nil {
		werr := rec.Snapshot().WriteJSONL(traceFile)
		if cerr := traceFile.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			log.Fatal(werr)
		}
	}
	if err != nil {
		if (errors.Is(err, funcytuner.ErrKilled) || errors.Is(err, context.Canceled)) && cfg.checkpoint != "" {
			log.Fatalf("%v\nresume with: -resume %s", err, cfg.checkpoint)
		}
		log.Fatal(err)
	}
	if rec != nil {
		fmt.Printf("wrote %d trace events to %s\n", rec.Len(), cfg.tracePath)
	}

	if rep.Served {
		fmt.Printf("served from the results repository at %s (identical run already completed; re-run without -skip-exist to recompute)\n", cfg.repoPath)
	}

	fmt.Printf("\nO3 baseline profile (%d modules after outlining):\n%s\n", rep.Modules, rep.Profile)
	names := make([]string, 0, len(rep.All))
	for name := range rep.All {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rep.All[name]
		fmt.Printf("%-14s speedup %6.3f  (baseline %.2fs, best %.2fs, %d evaluations)\n",
			name, r.Speedup, r.Baseline, r.TrueTime, r.Evaluations)
	}
	fmt.Printf("\ntuning cost: %d compiles, %d runs, %.1f simulated hours\n",
		rep.Compiles, rep.Runs, rep.SimulatedHours)
	if cs := rep.Cache; cs != (funcytuner.CacheStats{}) {
		fmt.Printf("compile cache: objects %d hits / %d misses, links %d hits / %d misses, %d coalesced, %d evictions; %d loop compiles (~%.1f MB codegen) elided\n",
			cs.ObjectHits, cs.ObjectMisses, cs.LinkHits, cs.LinkMisses,
			cs.Coalesced(), cs.Evictions, cs.LoopCompilesSaved,
			float64(cs.BytesSaved)/(1<<20))
	}
	if ft := rep.Faults; ft != (funcytuner.FaultTally{}) {
		fmt.Printf("faults: %d ICEs, %d crashes, %d timeouts, %d flakes; %d retries, %d wasted compiles, %.1f simulated hours lost\n",
			ft.CompileFailures, ft.RunCrashes, ft.Timeouts, ft.Flakes,
			ft.Retries, ft.WastedCompiles, ft.LostHours)
		fmt.Printf("quarantined %d poison CVs; %d modules degraded to baseline\n",
			ft.Quarantined, ft.DegradedModules)
	}
	fmt.Printf("%s converged within 5%% of its final best after %d evaluations\n",
		rep.Best.Algorithm, rep.Best.ConvergedAt(0.05))

	if cfg.showFlags {
		fmt.Printf("\nwinning per-module compilation vectors (%s):\n", rep.Best.Algorithm)
		for mi, cv := range rep.Best.ModuleCVs {
			fmt.Printf("  module %2d: %s\n", mi, cv)
		}
	}

	if cfg.save != "" {
		f, err := os.Create(cfg.save)
		if err != nil {
			log.Fatal(err)
		}
		// Close errors matter here: the kernel may only surface a full disk
		// or quota failure at close time, and a silently truncated
		// configuration file is worse than no file.
		werr := rep.Save(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			log.Fatal(werr)
		}
		fmt.Printf("\nsaved the winning configuration to %s\n", cfg.save)
	}

	if cfg.reportPath != "" {
		if err := os.WriteFile(cfg.reportPath, []byte(markdownReport(prog.Name, names, rep)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote the run report to %s\n", cfg.reportPath)
	}
}

// markdownReport renders the run as a small markdown document: the
// speedup table, the tuning cost, and the metrics snapshot.
func markdownReport(prog string, names []string, rep *funcytuner.Report) string {
	tbl := report.NewTable("FuncyTuner run: "+prog, "algorithm", "speedup", "baseline s", "best s", "evaluations")
	for _, name := range names {
		r := rep.All[name]
		tbl.Set(name, "speedup", r.Speedup)
		tbl.Set(name, "baseline s", r.Baseline)
		tbl.Set(name, "best s", r.TrueTime)
		tbl.Set(name, "evaluations", float64(r.Evaluations))
	}
	tbl.AddNote("%d compiles, %d runs, %.1f simulated hours", rep.Compiles, rep.Runs, rep.SimulatedHours)
	return tbl.Markdown() + "\n" + report.MetricsMarkdown(rep.Metrics)
}
