// Package server is the funcytunerd job service: a job manager that runs
// tuning campaigns as cancellable background jobs over the cancellable
// core (TuneContext and friends), plus the HTTP API in server.go.
//
// Scaling model: every job gets its own goroutine and its own per-job
// checkpoint directory, but all jobs share one core.WorkerGate, so the
// machine-wide number of in-flight evaluations is bounded no matter how
// many jobs are accepted. Cancellation — whether from the cancel
// endpoint or from graceful shutdown — lands on an evaluation boundary
// and drains the job to a valid, resumable checkpoint: resuming it
// yields a Report bit-identical to an uninterrupted run.
package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"funcytuner"
	"funcytuner/internal/fleet"
	"funcytuner/internal/metrics"
)

// Job states.
const (
	StateRunning    = "running"
	StateCancelling = "cancelling"
	StateDone       = "done"
	StateCancelled  = "cancelled"
	StateFailed     = "failed"
)

// Server-level metric names (the /metrics endpoint snapshots these).
const (
	MetricJobsSubmitted = "jobs_submitted"
	MetricJobsDone      = "jobs_done"
	MetricJobsCancelled = "jobs_cancelled"
	MetricJobsFailed    = "jobs_failed"
	MetricJobsRunning   = "jobs_running"
	MetricWorkerSlots   = "worker_slots"
	// MetricJobsDeduped counts submissions that attached to an identical
	// in-flight job; MetricJobsServedRepo counts jobs answered from the
	// results repository without running.
	MetricJobsDeduped    = "jobs_deduped"
	MetricJobsServedRepo = "jobs_served_repo"
)

// JobSpec is a tuning-job request. Zero fields take the funcytuner
// facade defaults (Samples 1000, TopX 50, ICC space, noisy runs).
type JobSpec struct {
	// Benchmark names a built-in program (LULESH, CL, AMG, ...).
	Benchmark string `json:"benchmark"`
	// Machine is the platform model (opteron, sandybridge, broadwell).
	Machine string `json:"machine"`
	// Samples is the evaluation budget K; TopX the CFR pruning width.
	Samples int `json:"samples,omitempty"`
	TopX    int `json:"topx,omitempty"`
	// Seed names the run; equal seeds reproduce bit-identically.
	Seed string `json:"seed,omitempty"`
	// Workers bounds the job's own parallelism (0 = GOMAXPROCS); the
	// manager's shared gate still caps evaluations across all jobs.
	Workers int `json:"workers,omitempty"`
	// FaultRate scales the default injected fault mix (0 = clean).
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Distributed dispatches the job's evaluations to the fleet instead
	// of running them in-process. Requires the manager to be configured
	// with a fleet coordinator.
	Distributed bool `json:"distributed,omitempty"`
	// Adaptive stops the search early (DefaultStopRule); Compare runs
	// the full §4.1 protocol.
	Adaptive bool `json:"adaptive,omitempty"`
	Compare  bool `json:"compare,omitempty"`
	// Technique selects the search algorithm ("cfr" default, "bo",
	// "ga"), early-stopped under Adaptive; Compare accepts only CFR.
	Technique string `json:"technique,omitempty"`
	// WarmStart seeds the technique from the manager's results
	// repository. Requires a repository, Technique "bo" or "ga", and a
	// plain tune job.
	WarmStart bool `json:"warm_start,omitempty"`
	// CheckpointEvery is the flush cadence in completed evaluations.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Resume names a previous job whose checkpoint this job continues
	// (the spec must otherwise match that job's, or the run fails its
	// checkpoint-identity validation).
	Resume string `json:"resume,omitempty"`
}

// validate rejects specs the tuner would reject hours later, plus
// negative values that facade defaults would otherwise mask.
func (sp *JobSpec) validate() error {
	if sp.Benchmark == "" {
		sp.Benchmark = funcytuner.CloverLeaf
	}
	if sp.Machine == "" {
		sp.Machine = "broadwell"
	}
	if _, err := funcytuner.Benchmark(sp.Benchmark); err != nil {
		return err
	}
	if _, err := funcytuner.MachineByName(sp.Machine); err != nil {
		return err
	}
	if sp.Samples < 0 {
		return fmt.Errorf("server: samples must be >= 0, got %d", sp.Samples)
	}
	if sp.TopX < 0 {
		return fmt.Errorf("server: topx must be >= 0, got %d", sp.TopX)
	}
	if sp.Workers < 0 {
		return fmt.Errorf("server: workers must be >= 0, got %d", sp.Workers)
	}
	if sp.CheckpointEvery < 0 {
		return fmt.Errorf("server: checkpoint_every must be >= 0, got %d", sp.CheckpointEvery)
	}
	if sp.FaultRate < 0 {
		return fmt.Errorf("server: fault_rate must be >= 0, got %v", sp.FaultRate)
	}
	if sp.Adaptive && sp.Compare {
		return fmt.Errorf("server: adaptive and compare are mutually exclusive")
	}
	if !funcytuner.ValidTechnique(sp.Technique) {
		return fmt.Errorf("server: unknown technique %q (want cfr, bo, or ga)", sp.Technique)
	}
	nonCFR := sp.Technique != "" && sp.Technique != "cfr"
	if nonCFR && sp.Compare {
		return fmt.Errorf("server: technique %q is incompatible with compare (the §4.1 protocol is defined in terms of CFR)", sp.Technique)
	}
	if sp.WarmStart && !nonCFR {
		return fmt.Errorf("server: warm_start requires technique \"bo\" or \"ga\"")
	}
	if sp.WarmStart && sp.Adaptive {
		return fmt.Errorf("server: warm_start applies only to plain tune jobs, not adaptive")
	}
	return nil
}

// Job is one tuning campaign owned by the manager.
type Job struct {
	ID   string
	Spec JobSpec

	ckptPath string
	cancel   context.CancelFunc
	progress *lineLog
	trace    *funcytuner.TraceRecorder
	done     chan struct{}
	// dedupKey is the submission's identity for singleflight (leader
	// jobs only; "" when the spec is not dedupable or the job attached
	// to another); deduped marks a follower that mirrors a leader.
	dedupKey string
	deduped  bool

	mu        sync.Mutex
	state     string
	err       string
	report    *funcytuner.Report
	served    bool
	submitted time.Time
	ended     time.Time
}

// Status is the JSON view of a job's current state.
type Status struct {
	ID    string  `json:"id"`
	State string  `json:"state"`
	Spec  JobSpec `json:"spec"`
	Error string  `json:"error,omitempty"`
	// Checkpoint is the job's checkpoint file; Resumable reports whether
	// it exists on disk (a cancelled or killed job can be continued by
	// submitting a new job with "resume" set to this job's ID).
	Checkpoint string `json:"checkpoint,omitempty"`
	Resumable  bool   `json:"resumable"`
	// Deduped marks a job that attached to an identical in-flight run
	// instead of computing: it mirrors that run's outcome. ServedFromRepo
	// marks a completed job whose result came from the results repository
	// in one lookup rather than a tuning run.
	Deduped        bool      `json:"deduped,omitempty"`
	ServedFromRepo bool      `json:"served_from_repo,omitempty"`
	Submitted      time.Time `json:"submitted"`
	Ended          time.Time `json:"ended,omitzero"`
}

// Result is the JSON view of a completed job's Report.
type Result struct {
	ID          string             `json:"id"`
	Algorithm   string             `json:"algorithm"`
	Speedup     float64            `json:"speedup"`
	Baseline    float64            `json:"baseline_seconds"`
	Best        float64            `json:"best_seconds"`
	Evaluations int                `json:"evaluations"`
	Speedups    map[string]float64 `json:"speedups"`
	ModuleFlags []string           `json:"module_flags"`
	Modules     int                `json:"modules"`
	Compiles    int64              `json:"compiles"`
	Runs        int64              `json:"runs"`
	SimHours    float64            `json:"simulated_hours"`
	Fingerprint string             `json:"fingerprint"`
	Metrics     metrics.Snapshot   `json:"metrics"`
}

// Config parameterizes a Manager.
type Config struct {
	// Dir is the root under which each job gets its checkpoint
	// directory (<Dir>/<jobID>/checkpoint.json).
	Dir string
	// Gate bounds in-flight evaluations across all jobs. Nil leaves
	// jobs bounded only by their own Workers settings.
	Gate funcytuner.WorkerGate
	// Fleet, when non-nil, lets jobs with Distributed set dispatch their
	// evaluations to remote workers through this coordinator. The server
	// mounts its claim/heartbeat/report routes under /fleet/.
	Fleet *fleet.Coordinator
	// Repo, when non-nil, is the shared results repository: every
	// completed job's Report is stored there, content-addressed by the
	// submission's outcome-determining configuration, and survives
	// restarts.
	Repo *funcytuner.ResultRepo
	// SkipExist serves identical resubmissions from Repo (the job
	// completes in one lookup, Status.ServedFromRepo set) instead of
	// re-running them. Ignored without Repo.
	SkipExist bool
	// Cache, when non-nil, is a process-wide compile cache shared by
	// every job (cache keys include full program/machine/flavor identity,
	// so sharing is safe and bit-identical). Nil gives each job a private
	// cache.
	Cache *funcytuner.CompileCache
	// DefaultTechnique is applied to submitted specs that leave
	// Technique empty ("cfr", "bo", "ga"; "" keeps the facade default).
	DefaultTechnique string
	// DefaultWarmStart warm-starts every job whose effective technique
	// supports it ("bo"/"ga") and that does not set WarmStart itself.
	// Requires Repo.
	DefaultWarmStart bool
}

// Manager owns the job table and the shared worker gate.
type Manager struct {
	cfg Config
	reg *metrics.Registry

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	inflight map[string]*Job // dedup key → leader job, singleflight
	seq      int
	draining bool
	running  int
	wg       sync.WaitGroup
}

// NewManager builds a job manager rooted at cfg.Dir.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:      cfg,
		reg:      metrics.NewRegistry(),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	if g, ok := cfg.Gate.(*Gate); ok && g != nil {
		m.reg.Gauge(MetricWorkerSlots).Set(float64(g.Slots()))
	}
	return m, nil
}

// Metrics returns the manager's registry (jobs_* counters, gauges).
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// dedupKey is the submission's singleflight identity: the spec fields
// that determine the tuning outcome. Scheduling-only fields (workers,
// checkpoint cadence, distribution) are deliberately absent — two specs
// differing only there produce bit-identical Reports. A spec with no
// explicit seed is not dedupable (its seed defaults to the job ID, so
// every submission is a distinct run), and neither is a resume nor a
// warm start (a warm run's outcome depends on the repository's contents
// at scan time, not on the spec alone).
func dedupKey(spec JobSpec) (string, bool) {
	if spec.Seed == "" || spec.Resume != "" || spec.WarmStart {
		return "", false
	}
	mode := "tune"
	switch {
	case spec.Adaptive:
		mode = "adaptive"
	case spec.Compare:
		mode = "compare"
	}
	tech := spec.Technique
	if tech == "cfr" { // explicit default, same outcome as ""
		tech = ""
	}
	return fmt.Sprintf("%s|%s|%s|%d|%d|%s|%g|%s",
		mode, spec.Benchmark, spec.Machine, spec.Samples, spec.TopX, spec.Seed, spec.FaultRate, tech), true
}

// Submit validates spec, registers a job and starts it immediately; the
// shared gate, not admission control, bounds actual compute. Identical
// concurrent submissions singleflight: the first becomes the leader and
// runs, later ones attach to it in one map lookup and mirror its
// outcome (Status.Deduped set).
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	// Defaults apply only to plain tune jobs: compare is defined in terms
	// of CFR, and an adaptive job runs the technique it names.
	plain := !spec.Adaptive && !spec.Compare
	if spec.Technique == "" && plain {
		spec.Technique = m.cfg.DefaultTechnique
	}
	if m.cfg.DefaultWarmStart && !spec.WarmStart && plain &&
		(spec.Technique == "bo" || spec.Technique == "ga") {
		spec.WarmStart = true
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.Distributed && m.cfg.Fleet == nil {
		return nil, fmt.Errorf("server: distributed job needs a fleet coordinator (run with -mode=coordinator)")
	}
	if spec.WarmStart && m.cfg.Repo == nil {
		return nil, fmt.Errorf("server: warm_start needs a results repository (run with -repo)")
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, fmt.Errorf("server: shutting down, not accepting jobs")
	}
	var resumeFrom string
	if spec.Resume != "" {
		prior, ok := m.jobs[spec.Resume]
		if !ok {
			m.mu.Unlock()
			return nil, fmt.Errorf("server: unknown job %q to resume", spec.Resume)
		}
		resumeFrom = prior.ckptPath
	}
	key, dedupable := dedupKey(spec)
	var leader *Job
	if dedupable {
		leader = m.inflight[key]
	}
	m.seq++
	id := fmt.Sprintf("job-%04d", m.seq)
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:        id,
		Spec:      spec,
		ckptPath:  filepath.Join(m.cfg.Dir, id, "checkpoint.json"),
		cancel:    cancel,
		progress:  newLineLog(),
		trace:     funcytuner.NewTraceRecorder(),
		done:      make(chan struct{}),
		state:     StateRunning,
		submitted: time.Now(),
	}
	switch {
	case leader != nil:
		// Follower: mirror the in-flight identical run; share its trace
		// (the outcome is the same run's).
		j.deduped = true
		j.trace = leader.trace
	case dedupable:
		j.dedupKey = key
		m.inflight[key] = j
	}
	if !j.deduped {
		j.trace.WallClock(func() int64 { return time.Now().UnixNano() })
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.running++
	m.reg.Gauge(MetricJobsRunning).Set(float64(m.running))
	m.wg.Add(1)
	m.mu.Unlock()

	m.reg.Counter(MetricJobsSubmitted).Inc()
	if leader != nil {
		m.reg.Counter(MetricJobsDeduped).Inc()
		go m.attach(ctx, j, leader)
	} else {
		go m.run(ctx, j, resumeFrom)
	}
	return j, nil
}

// ReattachFleetJobs resubmits the distributed jobs a journal-recovered
// fleet coordinator was carrying when the previous daemon died. Each
// comes back as a fresh job (new ID, same outcome-determining spec,
// Distributed set) that re-runs the search from the top — cheaply,
// because the coordinator serves every evaluation it accepted before
// the crash straight from its journal, and re-adopts the in-flight
// tasks workers are still heartbeating. Call once, after NewManager and
// before serving traffic. No coordinator or no journal = no-op.
func (m *Manager) ReattachFleetJobs() ([]*Job, error) {
	if m.cfg.Fleet == nil {
		return nil, nil
	}
	var jobs []*Job
	for _, rj := range m.cfg.Fleet.RecoveredJobs() {
		spec := JobSpec{
			Benchmark:   rj.Spec.Benchmark,
			Machine:     rj.Spec.Machine,
			Samples:     rj.Spec.Samples,
			TopX:        rj.Spec.TopX,
			Seed:        rj.Spec.Seed,
			FaultRate:   rj.Spec.FaultRate,
			Technique:   rj.Spec.Technique,
			Distributed: true,
		}
		j, err := m.Submit(spec)
		if err != nil {
			return jobs, fmt.Errorf("server: re-attaching recovered fleet job %s: %w", rj.Job, err)
		}
		fmt.Fprintf(j.progress, "funcytuner: re-attached from fleet journal (was %s)\n", rj.Job)
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// attach runs a deduped follower: it waits for its leader and mirrors
// the leader's terminal state, or cancels independently (cancelling a
// follower never cancels the leader).
func (m *Manager) attach(ctx context.Context, j, leader *Job) {
	defer m.wg.Done()
	defer close(j.done)
	defer j.progress.Close()
	fmt.Fprintf(j.progress, "funcytuner: deduplicated against in-flight job %s\n", leader.ID)
	select {
	case <-leader.done:
		leader.mu.Lock()
		rep, errStr, state := leader.report, leader.err, leader.state
		leader.mu.Unlock()
		switch state {
		case StateDone:
			m.finish(j, rep, nil)
		case StateCancelled:
			m.finish(j, nil, context.Canceled)
		default:
			if errStr == "" {
				errStr = "leader job failed"
			}
			m.finish(j, nil, errors.New(errStr))
		}
	case <-ctx.Done():
		m.finish(j, nil, ctx.Err())
	}
}

// run executes one job to completion, cancellation or failure.
func (m *Manager) run(ctx context.Context, j *Job, resumeFrom string) {
	defer m.wg.Done()
	defer close(j.done)
	defer j.progress.Close()

	prog, err := funcytuner.Benchmark(j.Spec.Benchmark)
	if err != nil {
		m.finish(j, nil, err)
		return
	}
	machine, err := funcytuner.MachineByName(j.Spec.Machine)
	if err != nil {
		m.finish(j, nil, err)
		return
	}
	in := funcytuner.TuningInput(j.Spec.Benchmark, machine)
	seed := j.Spec.Seed
	if seed == "" {
		seed = j.ID
	}
	gate := m.cfg.Gate
	var evaluator funcytuner.Evaluator
	if j.Spec.Distributed {
		evaluator, err = m.cfg.Fleet.Evaluator(j.ID, fleet.Spec{
			Benchmark: j.Spec.Benchmark,
			Machine:   j.Spec.Machine,
			Samples:   j.Spec.Samples,
			TopX:      j.Spec.TopX,
			Seed:      seed,
			FaultRate: j.Spec.FaultRate,
			Technique: j.Spec.Technique,
		})
		if err != nil {
			m.finish(j, nil, err)
			return
		}
		// Evaluations run on the workers' CPUs; holding local gate slots
		// while blocked on the network would only throttle the fleet.
		gate = nil
	}
	tuner := funcytuner.NewTuner(funcytuner.Options{
		Machine:         machine,
		Samples:         j.Spec.Samples,
		TopX:            j.Spec.TopX,
		Technique:       j.Spec.Technique,
		WarmStart:       j.Spec.WarmStart,
		Seed:            seed,
		Workers:         j.Spec.Workers,
		Faults:          funcytuner.DefaultFaultRates().Scale(j.Spec.FaultRate),
		Checkpoint:      j.ckptPath,
		Resume:          resumeFrom,
		CheckpointEvery: j.Spec.CheckpointEvery,
		Gate:            gate,
		Evaluator:       evaluator,
		SharedCache:     m.cfg.Cache,
		Repo:            m.cfg.Repo,
		SkipExist:       m.cfg.SkipExist && m.cfg.Repo != nil,
		Trace:           j.trace,
		Progress:        j.progress,
		ProgressEvery:   time.Second,
	})
	var rep *funcytuner.Report
	switch {
	case j.Spec.Compare:
		rep, err = tuner.CompareContext(ctx, prog, in)
	case j.Spec.Adaptive:
		rep, err = tuner.TuneAdaptiveContext(ctx, prog, in, funcytuner.DefaultStopRule())
	default:
		rep, err = tuner.TuneContext(ctx, prog, in)
	}
	m.finish(j, rep, err)
}

// finish records a job's terminal state and updates the server metrics.
func (m *Manager) finish(j *Job, rep *funcytuner.Report, err error) {
	j.mu.Lock()
	j.ended = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.report = rep
		if rep != nil && rep.Served && !j.deduped {
			j.served = true
			m.reg.Counter(MetricJobsServedRepo).Inc()
		}
		m.reg.Counter(MetricJobsDone).Inc()
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err.Error()
		m.reg.Counter(MetricJobsCancelled).Inc()
	default:
		j.state = StateFailed
		j.err = err.Error()
		m.reg.Counter(MetricJobsFailed).Inc()
	}
	j.mu.Unlock()
	m.mu.Lock()
	m.running--
	if j.dedupKey != "" && m.inflight[j.dedupKey] == j {
		delete(m.inflight, j.dedupKey)
	}
	m.reg.Gauge(MetricJobsRunning).Set(float64(m.running))
	m.mu.Unlock()
}

// Draining reports whether the manager has stopped accepting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Counts returns the job-table size and the number of running jobs.
func (m *Manager) Counts() (jobs, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs), m.running
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.Get(id); ok {
			out = append(out, j.Status())
		}
	}
	return out
}

// Cancel requests cancellation of a running job. Idempotent; cancelling
// a finished job is a no-op. The job drains to its checkpoint and lands
// in StateCancelled.
func (m *Manager) Cancel(id string) (Status, error) {
	j, ok := m.Get(id)
	if !ok {
		return Status{}, fmt.Errorf("server: unknown job %q", id)
	}
	j.mu.Lock()
	if j.state == StateRunning {
		j.state = StateCancelling
	}
	j.mu.Unlock()
	j.cancel()
	return j.Status(), nil
}

// Drain stops accepting jobs, cancels every running job, and waits for
// all of them to reach a terminal state (each cancelled job flushes its
// checkpoint on the way out). It returns early with ctx's error if the
// jobs have not drained in time.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, id := range ids {
		m.Cancel(id) // idempotent; finished jobs no-op
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// Status snapshots the job's state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, statErr := os.Stat(j.ckptPath)
	return Status{
		ID:             j.ID,
		State:          j.state,
		Spec:           j.Spec,
		Error:          j.err,
		Checkpoint:     j.ckptPath,
		Resumable:      statErr == nil,
		Deduped:        j.deduped,
		ServedFromRepo: j.served,
		Submitted:      j.submitted,
		Ended:          j.ended,
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result renders the completed job's report; an error for any other
// state.
func (j *Job) Result() (Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.report == nil {
		return Result{}, fmt.Errorf("server: job %s is %s, not done", j.ID, j.state)
	}
	rep := j.report
	res := Result{
		ID:          j.ID,
		Algorithm:   rep.Best.Algorithm,
		Speedup:     rep.Best.Speedup,
		Baseline:    rep.Best.Baseline,
		Best:        rep.Best.TrueTime,
		Evaluations: rep.Best.Evaluations,
		Speedups:    make(map[string]float64, len(rep.All)),
		Modules:     rep.Modules,
		Compiles:    rep.Compiles,
		Runs:        rep.Runs,
		SimHours:    rep.SimulatedHours,
		Fingerprint: fmt.Sprintf("%016x", rep.Fingerprint()),
		Metrics:     rep.Metrics,
	}
	for name, r := range rep.All {
		res.Speedups[name] = r.Speedup
	}
	for _, cv := range rep.Best.ModuleCVs {
		res.ModuleFlags = append(res.ModuleFlags, cv.String())
	}
	return res, nil
}
