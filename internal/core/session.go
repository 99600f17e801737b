// Package core implements the FuncyTuner framework itself: the per-loop
// runtime-collection pipeline of Fig. 4 and the four search algorithms of
// §2.2 — per-program random search (Random), per-function random search
// (FR), greedy combination (G, with its hypothetical G.Independent upper
// bound of §3.4), and Caliper-guided random search (CFR, Algorithm 1).
//
// A Session binds a program (already outlined into J compilation modules),
// a toolchain, a machine and an input, and provides deterministic,
// optionally parallel evaluation of compilation choices. All measurement
// noise flows from named xrand streams keyed by the session seed and the
// sample index, so results are bit-reproducible regardless of the worker
// count.
//
// The session is also the resilience boundary for long campaigns: injected
// compile/run faults (internal/faults), retry-with-backoff for transient
// failures, quarantine of poison CVs, graceful degradation to baseline
// CVs, and checkpoint/resume all live on the evaluation path here. With
// fault injection disabled (the zero Config) none of it is reachable and
// the clean path is bit-identical to a session without the machinery.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"funcytuner/internal/arch"
	"funcytuner/internal/caliper"
	"funcytuner/internal/compiler"
	"funcytuner/internal/exec"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
	"funcytuner/internal/metrics"
	"funcytuner/internal/trace"
	"funcytuner/internal/xrand"
)

// ErrKilled reports that the session hit its simulated node failure
// (Config.KillAfterEvals) mid-run. A checkpointed session can be resumed
// from the last flushed sample.
var ErrKilled = errors.New("core: session killed (simulated node failure)")

// WorkerGate bounds evaluation concurrency across sessions. Every
// evaluation acquires one slot before it starts and releases it when it
// finishes, so a single gate shared by many concurrent sessions (the
// funcytunerd job service) caps the machine-wide evaluation parallelism
// regardless of each session's own Workers setting. Acquire must respect
// ctx and return its error once the context is cancelled; a gate only
// sequences scheduling and therefore never changes deterministic outputs.
type WorkerGate interface {
	Acquire(ctx context.Context) error
	Release()
}

// Defaults for the resilience policy, applied when fault injection is
// enabled and the corresponding Config field is zero.
const (
	// DefaultMaxRetries caps retry attempts for transient flakes.
	DefaultMaxRetries = 2
	// DefaultBackoffSeconds is the initial retry backoff (simulated).
	DefaultBackoffSeconds = 5.0
	// DefaultBackoffCapSeconds caps the exponential backoff (simulated).
	DefaultBackoffCapSeconds = 60.0
	// DefaultTimeoutBudget is the deadline charged to injected
	// timeout-class evaluations when Config.TimeoutBudget is unset.
	DefaultTimeoutBudget = 300.0
)

// Config parameterizes a tuning session.
type Config struct {
	// Samples is K, the number of pre-sampled CVs and of evaluated code
	// variants per algorithm (the paper uses 1000).
	Samples int
	// TopX is CFR's per-loop pruning width (Algorithm 1; 1 < X << K).
	TopX int
	// Seed names the experiment; all randomness derives from it.
	Seed string
	// Workers bounds evaluation parallelism; 0 = GOMAXPROCS. A remote
	// session ignores it: its evaluator bounds it instead.
	Workers int
	// Noisy enables measurement noise (on by default in experiments;
	// tests may disable it for exactness).
	Noisy bool

	// Technique selects the search strategy Session.Search runs on the
	// pruned per-module pools: "" or "cfr" (Algorithm 1, the default),
	// "bo" (analytical-surrogate Bayesian optimization) or "ga"
	// (FOGA-style genetic algorithm). Each technique draws from its own
	// domain-separated RNG stream, so the selection cannot perturb
	// sampling, noise or fault streams.
	Technique string
	// WarmSeeds are warm-start assemblies for the bo/ga techniques
	// (typically the winning per-module CVs of nearby results-repository
	// entries). They are adapted to the session partition — truncated or
	// baseline-padded to the module count — and seed the technique's
	// initial design/population. Ignored by CFR.
	WarmSeeds [][]flagspec.CV
	// Stop, when non-nil, stops Search and CFR early under the rule
	// (§4.3's convergence trend); nil searches the whole budget.
	Stop *StopRule

	// Faults configures deterministic fault injection on the evaluation
	// path. The zero value disables injection entirely: the clean path
	// is bit-identical to a session without the resilience machinery.
	Faults faults.Rates
	// MaxRetries caps retry attempts for transient (flake) failures;
	// 0 means DefaultMaxRetries.
	MaxRetries int
	// BackoffSeconds is the initial retry backoff in simulated seconds,
	// doubled per retry; 0 means DefaultBackoffSeconds.
	BackoffSeconds float64
	// BackoffCapSeconds caps the exponential backoff; 0 means
	// DefaultBackoffCapSeconds.
	BackoffCapSeconds float64
	// TimeoutBudget is the per-evaluation deadline in simulated seconds.
	// When > 0, any run exceeding it is killed at the deadline and
	// reported +Inf; 0 disables deadline enforcement for real runs
	// (injected timeout-class faults then charge DefaultTimeoutBudget).
	TimeoutBudget float64
	// KillAfterEvals, when > 0, simulates a node failure: the session
	// aborts with ErrKilled once that many evaluations have completed.
	// It is the crash-testing hook for checkpoint/resume.
	KillAfterEvals int

	// Gate, when non-nil, bounds evaluation concurrency across sessions:
	// every local evaluation holds one slot while it runs. Nil leaves the
	// session bounded only by its own Workers setting.
	Gate WorkerGate

	// Remote, when non-nil, turns the session into a fleet coordinator:
	// each range of evaluations is handed to the evaluator in one call
	// instead of compiling and running locally, and every outcome is
	// merged as if the evaluation had run in-process (see remote.go).
	// Because each evaluation is a pure function of its claim, the merged
	// results are bit-identical to a local run's. The evaluator, not
	// Workers, bounds how many evaluations are in flight, and a remote
	// range holds no Gate slot.
	Remote RemoteEvaluator

	// Unpooled disables every allocation-reuse fast path on the session's
	// evaluation spine — the per-evaluation scratch pool, the hoisted
	// noise streams, the per-executable run memo, the memoized baseline
	// executable, and trace batch recycling — so each evaluation allocates
	// exactly as the original, unpooled implementation did. All those fast
	// paths are bit-identical by construction; this knob exists so the
	// determinism tests can *prove* it, comparing a pooled session's
	// Report fingerprint and canonical trace byte-for-byte against an
	// unpooled one's. Production sessions leave it false.
	Unpooled bool
}

// DefaultConfig returns the paper's settings: 1000 samples, top-50
// pruning, noisy measurements.
func DefaultConfig(seed string) Config {
	return Config{Samples: 1000, TopX: 50, Seed: seed, Noisy: true}
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return DefaultMaxRetries
}

func (c Config) backoff(attempt int) float64 {
	base := c.BackoffSeconds
	if base <= 0 {
		base = DefaultBackoffSeconds
	}
	cap := c.BackoffCapSeconds
	if cap <= 0 {
		cap = DefaultBackoffCapSeconds
	}
	b := base
	for i := 0; i < attempt && b < cap; i++ {
		b *= 2
	}
	if b > cap {
		b = cap
	}
	return b
}

func (c Config) timeoutBudget() float64 {
	if c.TimeoutBudget > 0 {
		return c.TimeoutBudget
	}
	return DefaultTimeoutBudget
}

// Validate rejects configurations that would silently misbehave.
// NewSession applies it.
func (c Config) Validate() error {
	if c.Samples < 1 {
		return fmt.Errorf("core: Samples must be >= 1, got %d", c.Samples)
	}
	if c.TopX < 1 || c.TopX > c.Samples {
		return fmt.Errorf("core: TopX must be in [1, Samples], got %d", c.TopX)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", c.Workers)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("core: MaxRetries must be >= 0, got %d", c.MaxRetries)
	}
	if c.BackoffSeconds < 0 || c.BackoffCapSeconds < 0 {
		return fmt.Errorf("core: backoff seconds must be >= 0")
	}
	if c.TimeoutBudget < 0 || math.IsNaN(c.TimeoutBudget) || math.IsInf(c.TimeoutBudget, 0) {
		return fmt.Errorf("core: TimeoutBudget must be a finite value >= 0, got %v", c.TimeoutBudget)
	}
	if c.KillAfterEvals < 0 {
		return fmt.Errorf("core: KillAfterEvals must be >= 0, got %d", c.KillAfterEvals)
	}
	if !ValidTechnique(c.Technique) {
		return fmt.Errorf("core: unknown technique %q (want one of cfr, bo, ga)", c.Technique)
	}
	if c.Stop != nil {
		if _, err := c.Stop.Normalize(c.Samples); err != nil {
			return err
		}
	}
	for si, seed := range c.WarmSeeds {
		if len(seed) == 0 {
			return fmt.Errorf("core: warm seed %d is empty", si)
		}
		for mi, cv := range seed {
			if cv.IsZero() {
				return fmt.Errorf("core: warm seed %d module %d is a zero CV", si, mi)
			}
		}
	}
	return c.Faults.Validate()
}

// CostAccount tallies simulated tuning cost (§4.3 discusses the 1.5-day to
// 1-week tuning overheads; we track the simulated equivalents) plus the
// resilience overheads: retries, wasted compiles, and simulated hours lost
// to faults.
type CostAccount struct {
	compiles  atomic.Int64
	runs      atomic.Int64
	simMicros atomic.Int64 // simulated wall-clock, microseconds

	retries        atomic.Int64
	wastedCompiles atomic.Int64
	faultMicros    atomic.Int64 // simulated wall-clock lost to faults
	compileFails   atomic.Int64
	runCrashes     atomic.Int64
	timeouts       atomic.Int64
	flakes         atomic.Int64
}

// Compiles returns the number of module compilations the tuning protocol
// performed *logically*. This is the paper's simulated cost metric and is
// invariant to the compile cache: a cache hit still counts, because the
// real toolchain would have had to compile (or fetch) that module. The
// physically elided work is tracked separately — see Session.CacheStats.
func (c *CostAccount) Compiles() int64 { return c.compiles.Load() }

// Runs returns the number of program executions performed.
func (c *CostAccount) Runs() int64 { return c.runs.Load() }

// SimulatedHours returns the simulated execution time spent, in hours.
func (c *CostAccount) SimulatedHours() float64 {
	return float64(c.simMicros.Load()) / 1e6 / 3600
}

// Retries returns the number of transient-fault retries performed.
func (c *CostAccount) Retries() int64 { return c.retries.Load() }

// WastedCompiles returns the number of module compilations that died with
// an injected internal compiler error.
func (c *CostAccount) WastedCompiles() int64 { return c.wastedCompiles.Load() }

// FaultHours returns the simulated wall-clock lost to faults (wasted
// runs, timeout budgets, retry backoff), in hours. It is a subset of
// SimulatedHours.
func (c *CostAccount) FaultHours() float64 {
	return float64(c.faultMicros.Load()) / 1e6 / 3600
}

// CompileFailures returns the number of evaluations lost to injected ICEs.
func (c *CostAccount) CompileFailures() int64 { return c.compileFails.Load() }

// RunCrashes returns the number of evaluations lost to injected crashes.
func (c *CostAccount) RunCrashes() int64 { return c.runCrashes.Load() }

// Timeouts returns the number of evaluations killed at the deadline.
func (c *CostAccount) Timeouts() int64 { return c.timeouts.Load() }

// Flakes returns the number of transient failures observed (each retry
// that flaked counts once).
func (c *CostAccount) Flakes() int64 { return c.flakes.Load() }

// add applies a completed evaluation's cost delta to the account.
func (c *CostAccount) add(d CostSnapshot) {
	c.compiles.Add(d.Compiles)
	c.runs.Add(d.Runs)
	c.simMicros.Add(d.SimMicros)
	c.retries.Add(d.Retries)
	c.wastedCompiles.Add(d.WastedCompiles)
	c.faultMicros.Add(d.FaultMicros)
	c.compileFails.Add(d.CompileFails)
	c.runCrashes.Add(d.RunCrashes)
	c.timeouts.Add(d.Timeouts)
	c.flakes.Add(d.Flakes)
}

// CostSnapshot is the JSON-portable form of a CostAccount, carried inside
// checkpoints so a resumed campaign reports the full cost of the work it
// inherited. It is also one evaluation's cost delta: the evaluation path
// accumulates into its outcome's CostSnapshot and applies it once, so the
// CostAccount, the metrics and the checkpoint record all take exactly the
// cost of the evaluations that completed.
type CostSnapshot struct {
	Compiles       int64 `json:"compiles"`
	Runs           int64 `json:"runs"`
	SimMicros      int64 `json:"sim_micros"`
	Retries        int64 `json:"retries"`
	WastedCompiles int64 `json:"wasted_compiles"`
	FaultMicros    int64 `json:"fault_micros"`
	CompileFails   int64 `json:"compile_fails"`
	RunCrashes     int64 `json:"run_crashes"`
	Timeouts       int64 `json:"timeouts"`
	Flakes         int64 `json:"flakes"`
}

// addRun charges one program execution of the given simulated duration.
func (s *CostSnapshot) addRun(seconds float64) {
	s.Runs++
	s.SimMicros += int64(seconds * 1e6)
}

// addFault charges simulated wall-clock lost to a fault (already counted
// in SimMicros where applicable).
func (s *CostSnapshot) addFault(seconds float64) {
	s.FaultMicros += int64(seconds * 1e6)
}

// add sums the cost delta d into s.
func (s *CostSnapshot) add(d CostSnapshot) {
	s.Compiles += d.Compiles
	s.Runs += d.Runs
	s.SimMicros += d.SimMicros
	s.Retries += d.Retries
	s.WastedCompiles += d.WastedCompiles
	s.FaultMicros += d.FaultMicros
	s.CompileFails += d.CompileFails
	s.RunCrashes += d.RunCrashes
	s.Timeouts += d.Timeouts
	s.Flakes += d.Flakes
}

func (s CostSnapshot) validate() error {
	for _, v := range []int64{s.Compiles, s.Runs, s.SimMicros, s.Retries,
		s.WastedCompiles, s.FaultMicros, s.CompileFails, s.RunCrashes,
		s.Timeouts, s.Flakes} {
		if v < 0 {
			return fmt.Errorf("core: negative cost counter in checkpoint")
		}
	}
	return nil
}

// Session is one (program, partition, machine, input) tuning context.
type Session struct {
	Toolchain *compiler.Toolchain
	Prog      *ir.Program
	Part      ir.Partition
	Machine   *arch.Machine
	Input     ir.Input
	Config    Config

	// id is the run identity NewSession derived from the above.
	id RunIdentity

	// Cost accumulates across all algorithm invocations on this session.
	Cost CostAccount

	rng *xrand.Rand

	// Resilience state. faults is nil when injection is disabled;
	// quarantine holds fingerprints of poison CVs (permanent failures)
	// that must never re-enter a pruned pool.
	faults      *faults.Model
	baselineKey uint64
	qmu         sync.Mutex
	quarantine  map[uint64]bool

	// Simulated node-failure state (Config.KillAfterEvals).
	evals  atomic.Int64
	killed atomic.Bool

	// Observability (see observe.go). tr is nil and met disabled unless
	// AttachTrace/AttachMetrics were called; completed feeds progress
	// reporting, and replayed counts the part of it the checkpoint log
	// answered.
	tr                  *trace.Recorder
	met                 sessionMetrics
	reg                 *metrics.Registry
	completed, replayed atomic.Int64

	// Optional checkpoint log, which only measure reads and writes.
	ckpt *Checkpointer

	// In-flight claim captures (EvaluateClaim): detached trace batches
	// keyed by (phase, sample), consulted by batchFor so a worker-side
	// evaluation's span is captured instead of recorded locally.
	capMu    sync.Mutex
	captures map[capKey]*capture

	// runProf precomputes the run-invariant cost-model terms for
	// (Prog, Machine, Input) — every session run goes through it. Sound
	// because a session's program is immutable for its lifetime.
	runProf *exec.RunProfile
	// prep snapshots the cache-key prefixes for (Prog, Part, Machine), so
	// every evaluation's compile hashes only the varying CV keys.
	prep *compiler.Prepared

	// scratch pools per-evaluation working buffers (uniform CV expansion,
	// the measurement-noise generator, the caliper per-loop buffer) across
	// the worker pool. Buffers are fully (re)initialized before each use
	// and never escape the evaluation, so which physical buffer an
	// evaluation gets cannot affect its result. Config.Unpooled bypasses
	// the pool entirely.
	scratch sync.Pool

	// noiseStreams caches one xrand.Stream per evaluation phase, hoisting
	// the "noise/"+phase key hash out of every evaluation. Stream(key) is
	// a pure read of the session rng's (immutable) state, so a cached
	// stream's Rand(k) is bit-identical to rng.Split("noise/"+phase, k).
	noiseMu      sync.Mutex
	noiseStreams map[string]xrand.Stream

	// Baseline-compile memo: the O3 whole-program executable is a session
	// constant (compilation is pure), but finish() needs it once per
	// algorithm; memoizing it keeps repeated BaselineTime calls from
	// re-walking the compile path.
	baseOnce sync.Once
	baseExe  *compiler.Executable
	baseErr  error
}

// evalScratch is one evaluation's worth of reusable working buffers.
type evalScratch struct {
	uniform []flagspec.CV // len J: uniform-assignment expansion
	perLoop []float64     // len nLoops: caliper profile backing
	noise   xrand.Rand    // reseeded per evaluation from the phase stream
}

func (s *Session) getScratch() *evalScratch {
	if v := s.scratch.Get(); v != nil {
		return v.(*evalScratch)
	}
	return &evalScratch{
		uniform: make([]flagspec.CV, len(s.Part.Modules)),
		perLoop: make([]float64, len(s.Prog.Loops)),
	}
}

func (s *Session) putScratch(sc *evalScratch) {
	if sc != nil {
		s.scratch.Put(sc)
	}
}

// NewSession builds a session. The partition normally comes from
// outline.AutoOutline; use ir.WholeProgram for per-program algorithms.
func NewSession(tc *compiler.Toolchain, prog *ir.Program, part ir.Partition, m *arch.Machine, in ir.Input, cfg Config) (*Session, error) {
	if err := part.Validate(); err != nil {
		return nil, err
	}
	if part.Program != prog {
		return nil, fmt.Errorf("core: partition belongs to a different program")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	baselineKey := tc.Space.Baseline().Key()
	prep, err := tc.Prepare(prog, part, m)
	if err != nil {
		return nil, err
	}
	runProf := exec.NewRunProfile(prog, m, in)
	if cfg.Unpooled || tc.Cache() == nil {
		// The per-executable run memo only pays when executables are
		// shared — which requires the compile cache. Without one, every
		// compile yields a fresh Executable, so a memo would never hit and
		// its derivation would be pure per-evaluation overhead.
		runProf.DisableMemo()
	}
	return &Session{
		Toolchain:    tc,
		Prog:         prog,
		Part:         part,
		Machine:      m,
		Input:        in,
		Config:       cfg,
		id:           NewRunIdentity(prog, m, in, tc.Space, cfg),
		rng:          xrand.NewFromString("core/" + cfg.Seed + "/" + prog.Name + "/" + m.Name),
		faults:       faults.New(cfg.Seed, m.ID, baselineKey, cfg.Faults),
		baselineKey:  baselineKey,
		quarantine:   make(map[uint64]bool),
		captures:     make(map[capKey]*capture),
		runProf:      runProf,
		prep:         prep,
		noiseStreams: make(map[string]xrand.Stream),
	}, nil
}

// CacheStats snapshots the real-work counters of the toolchain's
// compile/link cache: hits, misses, singleflight coalesces, evictions and
// the bytes-equivalent of elided codegen. All zero when no cache is
// attached. Unlike the CostAccount's simulated counters, these depend on
// scheduling and cache configuration, so they are observability only and
// never enter deterministic outputs.
func (s *Session) CacheStats() compiler.CacheStats {
	return s.Toolchain.Cache().Stats()
}

// PreSample draws the K CVs shared by all algorithms (step 1 of every
// pipeline in §2.2).
func (s *Session) PreSample() []flagspec.CV {
	return s.Toolchain.Space.Sample(s.rng.Split("presample", 0), s.Config.Samples)
}

// noiseFor returns the measurement-noise stream for evaluation (phase,
// k), or nil when the session is configured exact, written into the
// evaluation's scratch generator: Stream(key).Into(dst, k) reseeds dst
// with exactly the state Split("noise/"+phase, k) would construct,
// without the key hash or the generator allocation. A nil scratch
// (Config.Unpooled) falls back to the allocating Split.
func (s *Session) noiseFor(sc *evalScratch, phase string, k int) *xrand.Rand {
	if !s.Config.Noisy {
		return nil
	}
	if sc == nil {
		return s.rng.Split("noise/"+phase, k)
	}
	s.noiseStream(phase).Into(&sc.noise, k)
	return &sc.noise
}

// noiseStream returns the cached per-phase noise stream, deriving it on
// first use. Sound because Stream reads only the session rng's seed
// state, which is fixed at construction.
func (s *Session) noiseStream(phase string) xrand.Stream {
	s.noiseMu.Lock()
	st, ok := s.noiseStreams[phase]
	if !ok {
		st = s.rng.Stream("noise/" + phase)
		s.noiseStreams[phase] = st
	}
	s.noiseMu.Unlock()
	return st
}

// baselineExe returns the O3 whole-program executable, memoized for the
// session's lifetime (compilation is pure, so every call would rebuild
// the identical image). Unpooled sessions recompile per call, preserving
// the original allocation profile for the determinism comparisons.
func (s *Session) baselineExe() (*compiler.Executable, error) {
	if s.Config.Unpooled {
		return s.Toolchain.CompileUniform(s.Prog, ir.WholeProgram(s.Prog), s.Toolchain.Space.Baseline(), s.Machine)
	}
	s.baseOnce.Do(func() {
		s.baseExe, s.baseErr = s.Toolchain.CompileUniform(s.Prog, ir.WholeProgram(s.Prog), s.Toolchain.Space.Baseline(), s.Machine)
	})
	return s.baseExe, s.baseErr
}

// BaselineTime returns the noise-free O3 end-to-end time of the original
// (whole-program) compilation — the paper's TO3 denominator (§3.3).
func (s *Session) BaselineTime() (float64, error) {
	exe, err := s.baselineExe()
	if err != nil {
		return 0, err
	}
	return s.runProf.Run(exe, exec.Options{}).Total, nil
}

// TrueTime re-measures a per-module CV assignment without noise, for
// stable reporting of a chosen configuration. Crashing configurations
// report +Inf.
func (s *Session) TrueTime(cvs []flagspec.CV) (float64, error) {
	return s.TrueTimeOn(cvs, s.Input)
}

// TrueTimeOn is TrueTime evaluated on a different input (the §4.3
// generalization experiments tune on one input and test on another).
func (s *Session) TrueTimeOn(cvs []flagspec.CV, in ir.Input) (float64, error) {
	_, res, err := s.TrueRun(cvs, in)
	return res.Total, err
}

// TrueRun compiles a per-module CV assignment and runs it once without
// noise on in: the measurement behind TrueTime, TrueTimeOn and the
// facade's Report.Evaluate. A crashing assembly (§3.2) does not run: its
// result is Total +Inf with no per-loop times.
func (s *Session) TrueRun(cvs []flagspec.CV, in ir.Input) (*compiler.Executable, exec.Result, error) {
	exe, err := s.prep.Compile(cvs)
	switch {
	case err != nil:
		return nil, exec.Result{}, err
	case exe.Crashes():
		return exe, exec.Result{Total: math.Inf(1)}, nil
	case in == s.Input:
		return exe, s.runProf.Run(exe, exec.Options{}), nil
	}
	return exe, exec.Run(exe, s.Machine, in, exec.Options{}), nil
}

// BaselineTimeOn returns the noise-free O3 time on a specific input.
func (s *Session) BaselineTimeOn(in ir.Input) (float64, error) {
	exe, err := s.baselineExe()
	if err != nil {
		return 0, err
	}
	return exec.Run(exe, s.Machine, in, exec.Options{}).Total, nil
}

// workerPanic captures the first panic raised by a parFor worker so it
// can be re-raised with its sample index and original stack once the
// pool drains — instead of an anonymous process crash from a goroutine.
type workerPanic struct {
	mu    sync.Mutex
	set   bool
	index int
	value any
	stack []byte
}

// run invokes fn(i), converting a panic into a recorded failure. It
// reports whether the sample completed normally.
func (w *workerPanic) run(i int, fn func(int)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			w.mu.Lock()
			if !w.set {
				w.set, w.index, w.value, w.stack = true, i, r, debug.Stack()
			}
			w.mu.Unlock()
			ok = false
		}
	}()
	fn(i)
	return true
}

// rethrow re-raises the recorded panic, annotated with the failing
// sample index and the worker's stack at the point of failure.
func (w *workerPanic) rethrow() {
	if w.set {
		panic(fmt.Sprintf("core: evaluation worker panicked at sample %d: %v\n%s",
			w.index, w.value, w.stack))
	}
}

// claim gates one index's evaluation: it refuses once ctx is cancelled
// (workers stop claiming new indices, in-flight ones drain) and, with a
// WorkerGate configured, holds a global slot for the duration of fn. The
// gate and the cancellation check only affect scheduling, which every
// deterministic output is already invariant to.
func (s *Session) claim(ctx context.Context, wp *workerPanic, i int, fn func(i int)) (ok bool) {
	if ctx.Err() != nil {
		return false
	}
	if g := s.Config.Gate; g != nil {
		if err := g.Acquire(ctx); err != nil {
			return false
		}
		defer g.Release()
	}
	return wp.run(i, fn)
}

// width is the session's evaluation width, as the workers gauge reports
// it: Config.Workers on a local session, the evaluator's window on a
// remote one.
func (s *Session) width() int {
	if s.Config.Remote == nil {
		return s.Config.workers()
	}
	return s.Config.Remote.Window()
}

// parFor runs fn(i) for i in [0,n) on the session's worker pool,
// Config.Workers wide. fn must only write to index-disjoint state. A
// panicking fn no longer kills the process anonymously: the panicking
// worker stops claiming work, the remaining workers drain, and the first
// panic is re-raised with its sample index and original stack. A
// cancelled ctx stops the pool from scheduling new indices; evaluations
// already underway complete (and are checkpointed), so cancellation
// always lands on an evaluation boundary.
func (s *Session) parFor(ctx context.Context, n int, fn func(i int)) {
	var wp workerPanic
	workers := s.Config.workers()
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if !s.claim(ctx, &wp, i, fn) {
				break
			}
		}
		wp.rethrow()
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	if workers > n {
		workers = n
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !s.claim(ctx, &wp, i, fn) {
					return
				}
			}
		}()
	}
	wg.Wait()
	wp.rethrow()
}

// measure evaluates one range of requests of one phase (a collection, a
// Suggest batch, a single evaluation) and passes each outcome to got
// with its request's index. It is the checkpoint's one reader and
// writer: a request the resumed log holds is answered from the log, its
// recorded cost and quarantine merged into the session and the answer
// counted in CompletedEvals (not in the metrics, the trace or the kill
// count), and every other outcome is recorded as it lands. A local
// session evaluates on parFor's workers, so got may run concurrently
// for distinct indices; a remote session hands the rest of the range to
// its evaluator (remoteRange). It returns the first error, by request
// index on a local session and by arrival on a remote one, and
// otherwise the session's cancellation or kill, so a request the pool
// never started is never mistaken for a measured one. A range that ends
// in an error leaves its records flushed.
func (s *Session) measure(ctx context.Context, reqs []EvalRequest, got func(i int, out EvalOutcome)) error {
	phase := ""
	if s.ckpt != nil && len(reqs) > 0 {
		phase = s.recordPhase(reqs[0].Phase)
	}
	// todo are the requests left to evaluate; at maps each to its index
	// in reqs once the log has answered some.
	todo, at := reqs, []int(nil)
	if phase != "" && len(s.ckpt.logged) > 0 {
		todo = nil
		for i, r := range reqs {
			smp := s.ckpt.logged[capKey{phase, r.Sample}]
			if smp == nil {
				todo, at = append(todo, r), append(at, i)
				continue
			}
			s.Cost.add(smp.Cost)
			for _, key := range smp.Quarantine {
				s.quarantineCV(key)
			}
			s.completed.Add(1)
			s.replayed.Add(1)
			got(i, EvalOutcome{PerModule: smp.Modules, Total: smp.Time, Cost: smp.Cost, Quarantined: smp.Quarantine})
		}
	}
	land := func(j int, out EvalOutcome) {
		if phase != "" {
			s.ckpt.record(phase, todo[j].Sample, out)
		}
		if at != nil {
			j = at[j]
		}
		got(j, out)
	}
	var err error
	if s.Config.Remote != nil {
		err = s.remoteRange(ctx, todo, land)
	} else {
		errs := make([]error, len(todo))
		s.parFor(ctx, len(todo), func(j int) {
			out, err := s.evaluate(ctx, todo[j])
			if err != nil {
				errs[j] = err
				return
			}
			land(j, out)
		})
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	if err == nil {
		err = s.checkCancelled(ctx)
	}
	if err != nil {
		return cmp.Or(s.ckpt.Flush(), err)
	}
	return nil
}

// caliperProfile is the instrumented run of a collect evaluation. With a
// scratch attached, the profile's per-loop buffer and noise generator are
// the evaluation's pooled ones.
func (s *Session) caliperProfile(exe *compiler.Executable, sc *evalScratch, phase string, k int) caliper.Profile {
	if sc == nil {
		return caliper.CollectWith(s.runProf, exe, 1, s.noiseFor(nil, phase, k))
	}
	return caliper.CollectInto(s.runProf, exe, 1, s.noiseFor(sc, phase, k), sc.perLoop)
}
