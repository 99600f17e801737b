// Package funcytuner is the public API of the FuncyTuner reproduction — a
// per-loop compiler-flag auto-tuning framework after Wang et al., "Funcy-
// Tuner: Auto-tuning Scientific Applications With Per-loop Compilation"
// (ICPP 2019).
//
// The pipeline mirrors the paper's Fig. 4:
//
//  1. Profile the O3 baseline with Caliper-style instrumentation and
//     outline every loop at ≥ 1% of end-to-end runtime into its own
//     compilation module (§3.3).
//  2. Compile the program uniformly with K pre-sampled compilation
//     vectors (CVs) and collect per-loop runtimes (§2.2, Fig. 4).
//  3. Search: prune each module's CV pool to the top X by its own
//     measured time, re-sample per-module CVs from the pruned pools, and
//     measure K assembled executables end-to-end — Caliper-guided random
//     search, CFR (Algorithm 1). The minimum wins.
//
// The package also exposes the paper's reference algorithms (per-program
// Random search, per-function random search FR, greedy combination G with
// its G.Independent bound) and the modeled experimental substrate: the
// seven benchmark programs of Table 1, the three machines of Table 2, and
// an ICC-like 33-flag optimization space (~2.2e13 points).
//
// Quick start:
//
//	prog, _ := funcytuner.Benchmark(funcytuner.CloverLeaf)
//	machine, _ := funcytuner.MachineByName("broadwell")
//	tuner := funcytuner.NewTuner(funcytuner.Options{Machine: machine})
//	rep, _ := tuner.Tune(prog, funcytuner.TuningInput(prog.Name, machine))
//	fmt.Printf("CFR speedup over -O3: %.3f\n", rep.Best.Speedup)
//
// Everything is a deterministic simulation: compilation, execution and
// measurement noise all derive from seeded streams, so results reproduce
// bit-for-bit. See DESIGN.md for the substitution inventory (what the
// paper ran on real ICC/hardware versus what this repository models).
package funcytuner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/caliper"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
	"funcytuner/internal/metrics"
	"funcytuner/internal/outline"
	"funcytuner/internal/trace"
	"funcytuner/internal/xrand"
)

// Re-exported substrate types. Loops, programs and inputs are plain data;
// see the ir package documentation on field semantics.
type (
	// Program is a tunable program model (hot loops + non-loop code).
	Program = ir.Program
	// Loop is one hot-loop feature vector.
	Loop = ir.Loop
	// Input selects a workload (problem size and time-step count).
	Input = ir.Input
	// Machine is a platform model (Table 2).
	Machine = arch.Machine
	// CV is a compilation vector — one value per compiler flag.
	CV = flagspec.CV
	// Space is a compiler optimization space (COS).
	Space = flagspec.Space
	// Profile is a Caliper-style per-loop profile.
	Profile = caliper.Profile
	// FaultRates configures deterministic fault injection (per-evaluation
	// probabilities of compile failure, run crash, timeout and transient
	// flake). The zero value disables injection.
	FaultRates = faults.Rates
	// Checkpoint is a tuning run's persisted progress, replayed from
	// its checkpoint log.
	Checkpoint = core.Checkpoint
	// TraceRecorder accumulates structured trace events from a run (see
	// Options.Trace and internal/trace for the event taxonomy).
	TraceRecorder = trace.Recorder
	// TuningTrace is an ordered collection of trace events, as returned by
	// TraceRecorder.Snapshot. Its Canonical view is deterministic; its
	// WriteJSONL/ReadJSONL round-trip is byte-stable.
	TuningTrace = trace.Trace
	// MetricsSnapshot is a frozen view of a run's counters, gauges and
	// histograms (Report.Metrics).
	MetricsSnapshot = metrics.Snapshot
	// WorkerGate bounds evaluation concurrency across tuners (see
	// Options.Gate): every evaluation holds one gate slot while it runs,
	// so one gate shared by many concurrent tuning runs caps machine-wide
	// parallelism. Gates only sequence scheduling; they never change
	// results.
	WorkerGate = core.WorkerGate
	// Evaluator executes evaluation claims outside the tuning process —
	// the coordinator half of a distributed fleet (see Options.Evaluator
	// and internal/fleet). Each claim is a pure function of the run's
	// seed and the claim identity, so remote execution cannot change any
	// Report.
	Evaluator = core.RemoteEvaluator
	// EvalRequest identifies one evaluation claim (phase, sample, CVs).
	EvalRequest = core.EvalRequest
	// EvalOutcome is one completed claim's portable result: measured
	// times, cost delta, quarantine decisions, and the trace span.
	EvalOutcome = core.EvalOutcome
	// CostSnapshot is the JSON-portable form of a run's cost ledger,
	// carried in checkpoints and fleet evaluation outcomes.
	CostSnapshot = core.CostSnapshot
)

// NewTraceRecorder returns an empty trace recorder for Options.Trace.
// Call WallClock on it to add wall-clock stamps for live inspection —
// the canonical (deterministic) trace strips them.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// ErrKilled reports that a tuning run hit its simulated node failure
// (Options.KillAfterEvals) mid-run; resume it from its checkpoint.
var ErrKilled = core.ErrKilled

// DefaultFaultRates returns a realistic long-campaign fault mix (2% ICEs,
// 1% run crashes, 0.5% timeouts, 4% transient flakes). Scale it with
// FaultRates.Scale to dial severity.
func DefaultFaultRates() FaultRates { return faults.Default() }

// LoadCheckpoint reads and replays a checkpoint file written during a
// run with Options.Checkpoint set.
func LoadCheckpoint(path string) (*Checkpoint, error) { return core.LoadCheckpointFile(path) }

// Benchmark name constants (Table 1).
const (
	LULESH     = apps.LULESH
	CloverLeaf = apps.CloverLeaf
	AMG        = apps.AMG
	Optewe     = apps.Optewe
	Bwaves     = apps.Bwaves
	Fma3d      = apps.Fma3d
	Swim       = apps.Swim
)

// Benchmarks returns the benchmark names in the paper's order.
func Benchmarks() []string { return apps.Names() }

// Benchmark returns the named benchmark's calibrated program model.
func Benchmark(name string) (*Program, error) { return apps.Get(name) }

// Machines returns the three platform models (Opteron, Sandy Bridge,
// Broadwell).
func Machines() []*Machine { return arch.All() }

// MachineByName looks up a platform by short name.
func MachineByName(name string) (*Machine, error) { return arch.ByName(name) }

// TuningInput returns Table 2's tuning input for (benchmark, machine).
func TuningInput(app string, m *Machine) Input { return apps.TuningInput(app, m) }

// Techniques returns the selectable Options.Technique names in display
// order ("cfr", "bo", "ga").
func Techniques() []string { return core.Techniques() }

// ICCSpace returns the 33-flag Intel-compiler-like optimization space.
func ICCSpace() *Space { return flagspec.ICC() }

// GCCSpace returns the GCC-like optimization space (Fig. 1).
func GCCSpace() *Space { return flagspec.GCC() }

// Options configure a Tuner.
type Options struct {
	// Machine is the target platform (default: Broadwell).
	Machine *Machine
	// Space is the flag space (default: the ICC space).
	Space *Space
	// Samples is K, the evaluation budget per phase (default 1000).
	Samples int
	// TopX is CFR's per-module pruning width (default 50).
	TopX int
	// Technique selects the search algorithm that spends the
	// post-collection evaluation budget: "cfr" (the default; Algorithm
	// 1's Caliper-guided random search), "bo" (an analytical-surrogate
	// Bayesian optimizer), or "ga" (a generational genetic algorithm).
	// All three draw assemblies from the same Caliper-pruned per-module
	// pools and run behind the same suggest/observe driver, so the full
	// determinism contract holds regardless of technique: equal seeds
	// reproduce exactly, kill/resume is bit-equal, and caches, fleets
	// and worker counts cannot change the Report. TuneAdaptive stops
	// the selected technique early; Compare runs the §4.1 protocol,
	// which is defined in terms of CFR, and accepts only the default.
	Technique string
	// WarmStart seeds the technique's initial design/population with
	// the best assemblies of related prior runs found in the results
	// repository (same flag flavor, nearest by machine then program).
	// Requires RepoPath or Repo, and Technique "bo" or "ga" — CFR has
	// no initial design to seed. The chosen seed set is fingerprinted
	// into the repository key, so runs warmed from different repository
	// states are keyed (and reproduce) separately.
	WarmStart bool
	// Seed names the tuning run; equal seeds reproduce exactly.
	Seed string
	// Noisy applies measurement noise (default true, like real runs).
	Noisy *bool
	// Workers bounds parallel evaluation (0 = GOMAXPROCS).
	Workers int
	// HotThreshold is the outlining threshold (default 0.01, §3.3).
	HotThreshold float64
	// CacheSize bounds the content-addressed compile/link cache, in
	// entries. 0 selects the default size (compiler.DefaultCacheSize);
	// negative disables caching entirely. Compilation is a pure function
	// of its inputs, so cache-on runs are bit-identical to cache-off runs
	// — the cache only removes redundant work (Report.Cache reports how
	// much).
	CacheSize int
	// SharedCache, when non-nil, attaches an existing compile/link cache
	// instead of building a private one (CacheSize is then ignored).
	// Cache keys include the program seed and name, machine identity and
	// flag-space flavor, so one cache can safely back many tuners — a
	// fleet worker shares one across every job it evaluates, and warm
	// jobs skip the compile work a previous job already did. Purity is
	// unchanged: results are bit-identical with or without sharing.
	SharedCache *CompileCache
	// RepoPath, when non-empty, opens (creating if needed) a persistent
	// results repository at this directory and stores every completed
	// Report there, content-addressed by everything that determines the
	// outcome (program fingerprint × machine × flag space × search
	// config). See also SkipExist.
	RepoPath string
	// Repo, when non-nil, attaches an existing repository handle instead
	// of opening RepoPath (which is then ignored) — the funcytunerd job
	// service shares one handle across every job it runs, the way
	// SharedCache shares compile work.
	Repo *ResultRepo
	// SkipExist serves a stored result when the repository already holds
	// an entry for the exact submission: the Tune call returns in one
	// lookup — no outlining, no session, no evaluations — with
	// Report.Served set. The served Report is bit-identical to the
	// recompute it replaces (its Fingerprint is re-verified against the
	// stored one on every serve; a mismatch invalidates the entry and
	// falls through to a real run). Requires RepoPath or Repo.
	SkipExist bool
	// CacheSpill, when non-empty, attaches an on-disk spill tier rooted
	// at this directory to the tuner's private compile cache: entries
	// evicted from memory are written behind and misses read through, so
	// warm-cache compile savings survive a process restart. Results are
	// bit-identical spill-on vs spill-off. Only valid with a private,
	// enabled cache — combine SharedCache with CompileCache.AttachSpill
	// instead.
	CacheSpill string
	// Unpooled disables every allocation-reuse fast path (scratch pools,
	// trace batch reuse, run-profile memoization) and makes each
	// evaluation allocate from scratch. Results are bit-identical either
	// way — this is the reference path the pooled-determinism tests
	// compare against, not a tuning choice.
	Unpooled bool

	// Faults enables deterministic fault injection on the evaluation path
	// (see FaultRates). Zero value = off; the clean path is bit-identical
	// to a tuner without the resilience machinery.
	Faults FaultRates
	// MaxRetries caps retries of transient (flake) failures (default 2).
	MaxRetries int
	// BackoffSeconds is the initial retry backoff in simulated seconds,
	// doubled per retry (default 5).
	BackoffSeconds float64
	// BackoffCapSeconds caps the exponential backoff (default 60).
	BackoffCapSeconds float64
	// TimeoutBudget is the per-evaluation deadline in simulated seconds;
	// runs exceeding it are killed and score +Inf. 0 disables it.
	TimeoutBudget float64
	// Checkpoint, when non-empty, persists tuning progress to this file so
	// a killed run can be resumed.
	Checkpoint string
	// Resume, when non-empty, loads a checkpoint file before tuning and
	// skips its completed samples; the resumed run's Report is
	// bit-identical to an uninterrupted run. A missing file starts fresh.
	// Progress keeps checkpointing to the same file unless Checkpoint
	// names a different one.
	Resume string
	// CheckpointEvery is the flush cadence in completed evaluations
	// (default 25). Cadence writes run in the background, so a crash
	// loses at most this many evaluations plus those completed during
	// one in-flight write; phase ends and cancellation flush everything.
	CheckpointEvery int
	// KillAfterEvals, when > 0, simulates a node failure after that many
	// evaluations (the run aborts with ErrKilled) — the crash-testing
	// hook for checkpoint/resume.
	KillAfterEvals int
	// Gate, when non-nil, bounds evaluation concurrency across tuners: a
	// single gate shared by several concurrent runs (the funcytunerd job
	// service) caps total in-flight evaluations regardless of each run's
	// Workers setting. Nil leaves the run bounded only by Workers.
	Gate WorkerGate
	// Evaluator, when non-nil, turns the run into a fleet coordinator:
	// every evaluation is dispatched through it (typically to remote
	// worker processes via internal/fleet) instead of executing
	// in-process, and its outcome is merged as if measured locally. The
	// Report is bit-identical to a local run's — evaluations are pure
	// functions of their claims, so where they execute is unobservable.
	Evaluator Evaluator

	// Trace, when non-nil, records structured span events (session, phase,
	// compile, link, run, retry, fault, cache, eval) into the recorder as
	// the run executes. Tracing is strictly observational: a traced run's
	// Report is bit-identical to an untraced one, and the recorder's
	// Canonical() trace is itself deterministic for a given seed/config
	// across worker counts. Nil disables tracing at zero cost.
	Trace *TraceRecorder
	// Progress, when non-nil, receives periodic one-line progress reports
	// (completed evaluations, simulated hours, ETA) while tuning runs,
	// plus a final line when the run ends. Typically os.Stderr.
	Progress io.Writer
	// ProgressEvery is the progress-reporting cadence (default 5s).
	ProgressEvery time.Duration
}

// validate rejects option values that would silently misbehave. Defaults
// have already been applied.
func (o Options) validate() error {
	if o.Samples < 1 {
		return fmt.Errorf("funcytuner: Samples must be positive, got %d", o.Samples)
	}
	if o.TopX < 1 || o.TopX > o.Samples {
		return fmt.Errorf("funcytuner: TopX must be in [1, Samples], got %d", o.TopX)
	}
	if o.Workers < 0 {
		return fmt.Errorf("funcytuner: Workers must be >= 0, got %d", o.Workers)
	}
	if !(o.HotThreshold > 0 && o.HotThreshold <= 1) {
		return fmt.Errorf("funcytuner: HotThreshold must be in (0, 1], got %v", o.HotThreshold)
	}
	if o.MaxRetries < 0 {
		return fmt.Errorf("funcytuner: MaxRetries must be >= 0, got %d", o.MaxRetries)
	}
	if o.BackoffSeconds < 0 || o.BackoffCapSeconds < 0 {
		return fmt.Errorf("funcytuner: backoff seconds must be >= 0")
	}
	if o.TimeoutBudget < 0 || math.IsNaN(o.TimeoutBudget) || math.IsInf(o.TimeoutBudget, 0) {
		return fmt.Errorf("funcytuner: TimeoutBudget must be a finite value >= 0, got %v", o.TimeoutBudget)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("funcytuner: CheckpointEvery must be >= 0, got %d", o.CheckpointEvery)
	}
	if o.KillAfterEvals < 0 {
		return fmt.Errorf("funcytuner: KillAfterEvals must be >= 0, got %d", o.KillAfterEvals)
	}
	if o.ProgressEvery < 0 {
		return fmt.Errorf("funcytuner: ProgressEvery must be >= 0, got %v", o.ProgressEvery)
	}
	if o.SkipExist && o.RepoPath == "" && o.Repo == nil {
		return fmt.Errorf("funcytuner: SkipExist requires RepoPath or Repo")
	}
	if err := checkMode(o.Technique, o.WarmStart, false, false); err != nil {
		return err
	}
	if o.WarmStart && o.RepoPath == "" && o.Repo == nil {
		return fmt.Errorf("funcytuner: WarmStart requires RepoPath or Repo")
	}
	if o.CacheSpill != "" {
		if o.SharedCache != nil {
			return fmt.Errorf("funcytuner: CacheSpill requires a private cache; attach a spill tier to the shared cache with AttachSpill instead")
		}
		if o.CacheSize < 0 {
			return fmt.Errorf("funcytuner: CacheSpill requires caching (CacheSize >= 0)")
		}
	}
	return o.Faults.Validate()
}

// Tuner drives the FuncyTuner pipeline.
type Tuner struct {
	opts Options
	tc   *compiler.Toolchain
	repo *ResultRepo
	err  error // deferred option-validation error, surfaced by Tune et al.
}

// NewTuner builds a tuner, applying defaults for unset options. Invalid
// options (negative budgets, HotThreshold outside (0, 1], malformed fault
// rates, ...) are reported by the first Tune/TuneAdaptive/Compare call.
func NewTuner(opts Options) *Tuner {
	if opts.Machine == nil {
		opts.Machine = arch.Broadwell()
	}
	if opts.Space == nil {
		opts.Space = flagspec.ICC()
	}
	if opts.Samples == 0 {
		opts.Samples = 1000
	}
	if opts.TopX == 0 {
		opts.TopX = 50
	}
	if opts.Seed == "" {
		opts.Seed = "funcytuner"
	}
	if opts.Noisy == nil {
		noisy := true
		opts.Noisy = &noisy
	}
	if opts.HotThreshold == 0 {
		opts.HotThreshold = outline.HotThreshold
	}
	tc := compiler.NewToolchain(opts.Space)
	err := opts.validate()
	switch {
	case opts.SharedCache != nil:
		tc.AttachCache(opts.SharedCache)
	case opts.CacheSize >= 0:
		cc := compiler.NewCompileCache(opts.CacheSize)
		if opts.CacheSpill != "" && err == nil {
			err = cc.AttachSpill(opts.CacheSpill)
		}
		tc.AttachCache(cc)
	}
	t := &Tuner{opts: opts, tc: tc, err: err}
	if t.err == nil {
		switch {
		case opts.Repo != nil:
			t.repo = opts.Repo
		case opts.RepoPath != "":
			t.repo, t.err = OpenResultRepo(opts.RepoPath)
		}
	}
	return t
}

// Result is one algorithm's outcome (re-exported from the core engine).
type Result = core.Result

// Report is the outcome of a full tuning run.
type Report struct {
	// Best is the search technique's result (CFR by default; BO or GA
	// when Options.Technique selects them) — FuncyTuner's answer.
	Best *Result
	// All holds every algorithm's result keyed by name (Random, FR,
	// G.realized, G.Independent, CFR — or BO/GA for non-default
	// techniques).
	All map[string]*Result
	// Profile is the O3 baseline profile used for outlining.
	Profile Profile
	// HotLoops are the outlined loop indices, hottest first.
	HotLoops []int
	// Modules is the number of compilation modules (J, §2.1).
	Modules int
	// Compiles and Runs tally the simulated tuning cost.
	Compiles, Runs int64
	// SimulatedHours is the simulated tuning wall-clock (§4.3 discusses
	// 1.5-day to 1-week real overheads).
	SimulatedHours float64
	// Faults tallies what fault injection cost the run (all zero on clean
	// runs).
	Faults FaultTally
	// Cache reports the compile/link cache's real-work counters: hits,
	// misses, singleflight coalesces, evictions, and the elided codegen
	// work. All zero with the cache disabled. These are observability,
	// not results: they depend on scheduling and cache size, so
	// Fingerprint deliberately excludes them.
	Cache CacheStats
	// Metrics is the run's instrument snapshot: counters mirroring the
	// cost ledger (compiles, runs, retries, fault classes), cache outcome
	// counters, configuration gauges, and eval-latency/retry histograms.
	// Like Cache it is observability, excluded from Fingerprint (the
	// cache counters inside it are scheduling-dependent).
	Metrics MetricsSnapshot
	// Served reports that this result came from the results repository
	// (Options.SkipExist) rather than a fresh run. A served Report is
	// bit-identical to the recompute it replaces — its Fingerprint is
	// verified against the stored one on every serve — but it carries no
	// live session, so Evaluate and EvaluateBaseline return ErrServed,
	// and Cache/Metrics are zero (no work ran).
	Served bool

	sess   *core.Session
	served *servedMeta
}

// ErrServed reports an operation that needs the live tuning session on
// a Report served from the results repository (see Report.Served).
var ErrServed = errors.New("funcytuner: report was served from the results repository and has no live session; re-tune without SkipExist to evaluate")

// CacheStats is the compile/link cache activity snapshot (re-exported
// from the compiler layer).
type CacheStats = compiler.CacheStats

// DefaultCacheSize is the default entry bound of the compile/link cache.
const DefaultCacheSize = compiler.DefaultCacheSize

// CompileCache is the content-addressed compile/link cache (re-exported
// so callers can share one across tuners via Options.SharedCache).
type CompileCache = compiler.CompileCache

// NewCompileCache builds a cache holding up to the given number of
// entries (0 selects DefaultCacheSize).
func NewCompileCache(entries int) *CompileCache {
	return compiler.NewCompileCache(entries)
}

// FaultTally summarizes resilience activity over a tuning run.
type FaultTally struct {
	// CompileFailures, RunCrashes, Timeouts and Flakes count evaluations
	// lost to each injected fault class (Flakes counts individual flaked
	// attempts; retried evaluations may still succeed).
	CompileFailures, RunCrashes, Timeouts, Flakes int64
	// Retries counts retry attempts spent on transient failures.
	Retries int64
	// WastedCompiles counts module compilations discarded by ICEs.
	WastedCompiles int64
	// LostHours is the simulated wall-clock lost to faults (wasted runs,
	// timeout budgets, retry backoff) — a subset of SimulatedHours.
	LostHours float64
	// Quarantined is the number of poison CVs barred from re-sampling.
	Quarantined int
	// DegradedModules is the number of modules that fell back to the
	// baseline CV because their measurements kept failing.
	DegradedModules int
}

// Evaluation is one assembled executable's noise-free behaviour on an
// input.
type Evaluation struct {
	// Total is the end-to-end time in seconds.
	Total float64
	// PerLoop are the per-hot-loop times, indexed like Program.Loops.
	PerLoop []float64
	// Notes are the per-loop optimization decisions in the paper's
	// Table 3 notation (S / 128 / 256, unrollN, IS, IO, RS, ...).
	Notes []string
}

// Evaluate compiles the report's program with per-module CVs (e.g.
// Report.Best.ModuleCVs, or any modification of them) and measures it
// noise-free on an arbitrary input — the §4.3 generalization protocol.
// A crashing assembly (§3.2) reports Total +Inf and no PerLoop times;
// its Notes are still filled.
func (r *Report) Evaluate(cvs []CV, in Input) (*Evaluation, error) {
	if r.sess == nil {
		return nil, ErrServed
	}
	exe, res, err := r.sess.TrueRun(cvs, in)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Total: res.Total, PerLoop: res.PerLoop}
	for li := range exe.PerLoop {
		ev.Notes = append(ev.Notes, exe.PerLoop[li].Notes())
	}
	return ev, nil
}

// EvaluateBaseline measures the O3 baseline on an arbitrary input.
func (r *Report) EvaluateBaseline(in Input) (*Evaluation, error) {
	if r.sess == nil {
		return nil, ErrServed
	}
	return r.Evaluate(uniform(r.sess.Part, r.sess.Toolchain.Space.Baseline()), in)
}

func uniform(part ir.Partition, cv CV) []CV {
	out := make([]CV, len(part.Modules))
	for i := range out {
		out[i] = cv
	}
	return out
}

// session builds the outlined core session for prog on in, wiring the
// resilience policy and (when configured) the checkpointer. warm is the
// warm-start seed set (nil except for warm-started Tune runs).
func (t *Tuner) session(prog *Program, in Input, warm [][]CV) (*core.Session, outline.Result, error) {
	if t.err != nil {
		return nil, outline.Result{}, t.err
	}
	res, err := outline.AutoOutline(t.tc, prog, t.opts.Machine, in, t.opts.HotThreshold, 1, nil)
	if err != nil {
		return nil, outline.Result{}, err
	}
	sess, err := core.NewSession(t.tc, prog, res.Partition, t.opts.Machine, in, core.Config{
		Samples:           t.opts.Samples,
		TopX:              t.opts.TopX,
		Technique:         t.opts.Technique,
		WarmSeeds:         warm,
		Seed:              t.opts.Seed,
		Workers:           t.opts.Workers,
		Noisy:             *t.opts.Noisy,
		Faults:            t.opts.Faults,
		MaxRetries:        t.opts.MaxRetries,
		BackoffSeconds:    t.opts.BackoffSeconds,
		BackoffCapSeconds: t.opts.BackoffCapSeconds,
		TimeoutBudget:     t.opts.TimeoutBudget,
		KillAfterEvals:    t.opts.KillAfterEvals,
		Gate:              t.opts.Gate,
		Remote:            t.opts.Evaluator,
		Unpooled:          t.opts.Unpooled,
	})
	if err != nil {
		return nil, outline.Result{}, err
	}
	if path := t.opts.Checkpoint; path != "" || t.opts.Resume != "" {
		if path == "" {
			path = t.opts.Resume
		}
		ckpt := core.NewCheckpointer(path, t.opts.CheckpointEvery)
		if t.opts.Resume != "" {
			ck, err := core.LoadCheckpointFile(t.opts.Resume)
			switch {
			case os.IsNotExist(err):
				// Nothing persisted yet: start fresh, checkpointing to
				// the same path.
			case err != nil:
				return nil, outline.Result{}, err
			default:
				ckpt.Resume(ck)
			}
		}
		if err := sess.AttachCheckpointer(ckpt); err != nil {
			return nil, outline.Result{}, err
		}
	}
	// Metrics are always on (the registry is cheap and Report.Metrics is
	// always populated); tracing only when the caller supplied a recorder.
	// Attached after the checkpointer so the quarantine gauge reflects any
	// restored state.
	sess.AttachMetrics(metrics.NewRegistry())
	sess.AttachTrace(t.opts.Trace)
	return sess, res, nil
}

// startProgress launches the periodic progress reporter when
// Options.Progress is set. expected is the nominal evaluation budget of
// the protocol about to run (an upper bound for early-stopped searches).
// The returned stop function ends the reporter and emits a final line;
// it is safe to call exactly once.
func (t *Tuner) startProgress(sess *core.Session, expected int64) func() {
	w := t.opts.Progress
	if w == nil {
		return func() {}
	}
	every := t.opts.ProgressEvery
	if every <= 0 {
		every = 5 * time.Second
	}
	start := time.Now()
	emit := func(final bool) {
		n := sess.CompletedEvals()
		pct := 0.0
		if expected > 0 {
			pct = 100 * float64(n) / float64(expected)
			if pct > 100 {
				pct = 100
			}
		}
		line := fmt.Sprintf("funcytuner: %d/%d evals (%.1f%%), %.1f simulated hours",
			n, expected, pct, sess.Cost.SimulatedHours())
		if !final && n > 0 && n < expected {
			if rate := float64(n) / time.Since(start).Seconds(); rate > 0 {
				eta := time.Duration(float64(expected-n) / rate * float64(time.Second))
				line += fmt.Sprintf(", eta %s", eta.Round(time.Second))
			}
		}
		if final {
			line += ", done"
		}
		fmt.Fprintln(w, line)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				emit(false)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		emit(true)
	}
}

// EvalService executes evaluation claims for a tuning run of prog on in —
// the worker half of a distributed fleet. It holds a session configured
// identically to the coordinator's (same seed, budgets, fault rates and
// outlined partition), so every claim's outcome is bit-identical to what
// the coordinator would have measured locally.
type EvalService struct {
	sess *core.Session
}

// EvalService builds the claim-execution service for prog on in. The
// tuner must be local (Options.Evaluator unset): a claim executed by a
// coordinator would recurse into its own fleet.
func (t *Tuner) EvalService(prog *Program, in Input) (*EvalService, error) {
	if t.err != nil {
		return nil, t.err
	}
	if t.opts.Evaluator != nil {
		return nil, fmt.Errorf("funcytuner: EvalService requires a local tuner (Options.Evaluator is set)")
	}
	sess, _, err := t.session(prog, in, nil)
	if err != nil {
		return nil, err
	}
	return &EvalService{sess: sess}, nil
}

// Evaluate executes one claim. Claims for distinct (phase, sample) pairs
// may run concurrently; re-executing a claim returns a bit-identical
// outcome, which is what makes lease-expiry re-dispatch safe.
func (s *EvalService) Evaluate(ctx context.Context, req EvalRequest) (EvalOutcome, error) {
	return s.sess.EvaluateClaim(ctx, req)
}

// Space returns the flag space claims' CVs must come from — the decoder
// for wire-format CV values.
func (s *EvalService) Space() *Space { return s.sess.Toolchain.Space }

// Modules returns the outlined partition's module count J: the CV count
// a non-collect claim must carry.
func (s *EvalService) Modules() int { return len(s.sess.Part.Modules) }

// Tune runs the FuncyTuner pipeline (collection + CFR) on prog with in.
func (t *Tuner) Tune(prog *Program, in Input) (*Report, error) {
	return t.TuneContext(context.Background(), prog, in)
}

// TuneContext is Tune under a context. Cancelling ctx stops the run at
// the next evaluation boundary: in-flight evaluations complete and are
// checkpointed, the checkpoint (when Options.Checkpoint is set) is
// flushed, and the returned error satisfies errors.Is(err, ctx.Err()).
// Cancellation is observationally equivalent to KillAfterEvals at the
// same evaluation index — resuming the checkpoint yields a Report
// bit-identical to an uninterrupted run.
func (t *Tuner) TuneContext(ctx context.Context, prog *Program, in Input) (*Report, error) {
	return t.run(ctx, prog, in, nil, false)
}

// StopRule configures early stopping for TuneAdaptive.
type StopRule = core.StopRule

// DefaultStopRule returns the convergence-study defaults (floor 50
// evaluations, patience 150).
func DefaultStopRule() StopRule { return core.DefaultStopRule() }

// TuneAdaptive runs the pipeline with an early-stopped search: the
// configured technique (CFR by default) measures exactly what its full
// search would, in the same order, but halts once `rule` fires — the
// §4.3 observation that CFR converges in tens-to-hundreds of evaluations,
// turned into a budget policy. The collection phase still uses the full
// sample budget (its cost is what the per-loop guidance buys). Warm
// starts apply only to Tune.
func (t *Tuner) TuneAdaptive(prog *Program, in Input, rule StopRule) (*Report, error) {
	return t.TuneAdaptiveContext(context.Background(), prog, in, rule)
}

// TuneAdaptiveContext is TuneAdaptive under a context, with the same
// cancellation semantics as TuneContext.
func (t *Tuner) TuneAdaptiveContext(ctx context.Context, prog *Program, in Input, rule StopRule) (*Report, error) {
	return t.run(ctx, prog, in, &rule, false)
}

// Compare runs the full §4.1 protocol — Random, FR, G (both variants) and
// CFR — so the algorithms can be compared on prog.
func (t *Tuner) Compare(prog *Program, in Input) (*Report, error) {
	return t.CompareContext(context.Background(), prog, in)
}

// CompareContext is Compare under a context, with the same cancellation
// semantics as TuneContext.
func (t *Tuner) CompareContext(ctx context.Context, prog *Program, in Input) (*Report, error) {
	return t.run(ctx, prog, in, nil, true)
}

// run is the one body behind every entry point: a plain Tune, the
// early-stopped search when rule is non-nil, or the §4.1 protocol when
// compare is set. A repository entry for the same run is served instead
// of running it, and a fresh Report is stored.
func (t *Tuner) run(ctx context.Context, prog *Program, in Input, rule *StopRule, compare bool) (*Report, error) {
	if err := checkMode(t.opts.Technique, t.opts.WarmStart, rule != nil, compare); err != nil {
		return nil, err
	}
	warm, digest := t.warmSeeds(prog)
	if rep, ok := t.serveFromRepo(prog, in, rule, compare, digest); ok {
		return rep, nil
	}
	sess, out, err := t.session(prog, in, warm)
	if err != nil {
		return nil, err
	}
	all, err := t.algorithms(ctx, sess, rule, compare)
	if err != nil {
		return nil, err
	}
	rep := t.report(sess, out, all)
	t.storeInRepo(prog, in, rule, compare, rep, digest)
	return rep, nil
}

// algorithms runs the protocol's evaluations on sess under the progress
// reporter: Compare's full set, or the collection and then the
// configured technique, stopped early under rule when it is non-nil.
func (t *Tuner) algorithms(ctx context.Context, sess *core.Session, rule *StopRule, compare bool) (map[string]*Result, error) {
	k := int64(t.opts.Samples)
	if compare {
		// Random K + collection K + FR K + greedy 1 + CFR K.
		defer t.startProgress(sess, 4*k+1)()
		return sess.RunAll(ctx)
	}
	expected := 2 * k // collection K + search K
	if rule != nil {
		norm, err := rule.Normalize(t.opts.Samples)
		if err != nil {
			return nil, err
		}
		expected = k + int64(norm.MaxEvaluations)
	}
	defer t.startProgress(sess, expected)()
	col, err := sess.Collect(ctx)
	if err != nil {
		return nil, err
	}
	var res *Result
	if rule == nil {
		res, err = sess.Search(ctx, col)
	} else {
		res, err = sess.SearchAdaptive(ctx, col, *rule)
	}
	if err != nil {
		return nil, err
	}
	return map[string]*Result{strings.TrimSuffix(res.Algorithm, ".adaptive"): res}, nil
}

// bestResult picks the search result out of an algorithm map: the
// technique that spent the post-collection budget, whichever ran.
func bestResult(all map[string]*Result) *Result {
	for _, name := range []string{"CFR", "BO", "GA"} {
		if r := all[name]; r != nil {
			return r
		}
	}
	return nil
}

func (t *Tuner) report(sess *core.Session, out outline.Result, all map[string]*Result) *Report {
	degraded := 0
	best := bestResult(all)
	if best != nil {
		degraded = len(best.DegradedModules)
	}
	return &Report{
		Best:           best,
		All:            all,
		Profile:        out.Profile,
		HotLoops:       out.Hot,
		Modules:        len(out.Partition.Modules),
		Compiles:       sess.Cost.Compiles(),
		Runs:           sess.Cost.Runs(),
		SimulatedHours: sess.Cost.SimulatedHours(),
		Faults: FaultTally{
			CompileFailures: sess.Cost.CompileFailures(),
			RunCrashes:      sess.Cost.RunCrashes(),
			Timeouts:        sess.Cost.Timeouts(),
			Flakes:          sess.Cost.Flakes(),
			Retries:         sess.Cost.Retries(),
			WastedCompiles:  sess.Cost.WastedCompiles(),
			LostHours:       sess.Cost.FaultHours(),
			Quarantined:     len(sess.Quarantined()),
			DegradedModules: degraded,
		},
		Cache:   sess.CacheStats(),
		Metrics: sess.MetricsSnapshot(),
		sess:    sess,
	}
}

// Fingerprint hashes the deterministic content of the report: every
// algorithm's result (chosen CVs, measured/true/baseline times, traces,
// degraded modules), the outlining profile, and the simulated cost and
// fault tallies. It deliberately excludes Cache and Metrics — cache and
// instrument counters depend on scheduling and configuration, not on
// the tuning outcome. For one
// seed, Fingerprint is invariant across worker counts, cache on/off, and
// checkpoint kill/resume; the robustness tests and the CI benchmark
// smoke job enforce exactly that.
func (r *Report) Fingerprint() uint64 {
	// Streamed through xrand.Hasher, which is Combine by construction:
	// the digest is bit-identical to hashing a materialized value slice,
	// without allocating one (a paper-scale report folds tens of
	// thousands of values).
	var h xrand.Hasher
	add := func(vs ...uint64) {
		for _, v := range vs {
			h.Add(v)
		}
	}
	addF := func(fs ...float64) {
		for _, f := range fs {
			h.Add(math.Float64bits(f))
		}
	}
	names := make([]string, 0, len(r.All))
	for name := range r.All {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res := r.All[name]
		add(xrand.HashString(name), xrand.HashString(res.Algorithm), uint64(res.Evaluations))
		for _, cv := range res.ModuleCVs {
			add(cv.Key())
		}
		addF(res.BestMeasured, res.TrueTime, res.Baseline, res.Speedup)
		for _, v := range res.Trace {
			addF(v)
		}
		for _, mi := range res.DegradedModules {
			add(uint64(mi))
		}
	}
	addF(r.Profile.Total, r.Profile.TotalStd, r.Profile.NonLoop)
	for _, v := range r.Profile.PerLoop {
		addF(v)
	}
	for _, li := range r.HotLoops {
		add(uint64(li))
	}
	add(uint64(r.Modules), uint64(r.Compiles), uint64(r.Runs))
	addF(r.SimulatedHours)
	ft := r.Faults
	add(uint64(ft.CompileFailures), uint64(ft.RunCrashes), uint64(ft.Timeouts),
		uint64(ft.Flakes), uint64(ft.Retries), uint64(ft.WastedCompiles),
		uint64(ft.Quarantined), uint64(ft.DegradedModules))
	addF(ft.LostHours)
	return h.Sum()
}

// ProfileBaseline profiles prog's O3 baseline on m with in, using runs
// instrumented executions (Caliper overhead included). Measurement noise
// is applied with a deterministic seed, so repeated runs show the real
// run-to-run standard deviation while the profile itself reproduces
// exactly.
func ProfileBaseline(prog *Program, m *Machine, in Input, runs int) (Profile, error) {
	tc := compiler.NewToolchain(flagspec.ICC())
	exe, err := tc.CompileUniform(prog, ir.WholeProgram(prog), flagspec.ICC().Baseline(), m)
	if err != nil {
		return Profile{}, err
	}
	rng := xrand.NewFromString("funcytuner/profile/" + prog.Name + "/" + m.Name + "/" + in.Name)
	return caliper.Collect(exe, m, in, runs, rng), nil
}

// Validate checks a user-defined program model (see ir.Program's field
// documentation for the invariants).
func Validate(prog *Program) error {
	if prog == nil {
		return fmt.Errorf("funcytuner: nil program")
	}
	return prog.Validate()
}
