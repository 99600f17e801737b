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
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
	// manager's shared gate still caps evaluations across all jobs. A
	// distributed job accepts it but is bounded by the fleet's window
	// instead (fleet.Coordinator.Window).
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
	// Resume names a previous job whose checkpoint this job continues:
	// one this manager ran, or one an earlier daemon left under the same
	// Dir (<Dir>/<id>/checkpoint.json). An empty seed takes that job's
	// seed (its ID when it had none; the checkpoint's for an earlier
	// daemon's job); the rest of the spec must match that job's, or the
	// run fails naming the first checkpoint-identity field that differs.
	Resume string `json:"resume,omitempty"`
}

// validate applies the benchmark and machine defaults, checks the
// scheduling fields a Spec does not carry, and returns the spec's
// repository key: funcytuner.Spec.Key rejects the rest of what the tuner
// would reject once the job ran.
func (sp *JobSpec) validate() (uint64, error) {
	if sp.Benchmark == "" {
		sp.Benchmark = funcytuner.CloverLeaf
	}
	if sp.Machine == "" {
		sp.Machine = "broadwell"
	}
	if sp.Workers < 0 {
		return 0, fmt.Errorf("server: workers must be >= 0, got %d", sp.Workers)
	}
	if sp.CheckpointEvery < 0 {
		return 0, fmt.Errorf("server: checkpoint_every must be >= 0, got %d", sp.CheckpointEvery)
	}
	return sp.spec().Key()
}

// spec is the job's outcome-determining description.
func (sp JobSpec) spec() funcytuner.Spec {
	return funcytuner.Spec{
		Benchmark: sp.Benchmark, Machine: sp.Machine, Samples: sp.Samples, TopX: sp.TopX,
		Seed: sp.Seed, FaultRate: sp.FaultRate, Technique: sp.Technique,
		Adaptive: sp.Adaptive, Compare: sp.Compare, WarmStart: sp.WarmStart,
	}
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
	// dedupKey is the submission's repository key, its identity for
	// singleflight (set on leader jobs only); deduped marks a follower
	// that mirrors a leader.
	dedupKey uint64
	deduped  bool

	mu    sync.Mutex
	state string
	err   string
	// result is the done job's rendered Report, without the ID. The job
	// keeps nothing else of the run but its trace, so a finished job
	// does not pin the session behind the Report.
	result    *Result
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
	inflight map[uint64]*Job // dedup key → leader job, singleflight
	seq      int
	draining bool
	running  int
	wg       sync.WaitGroup
}

// NewManager builds a job manager rooted at cfg.Dir. It numbers new
// jobs after the highest job directory already there, so a restarted
// daemon never reuses an earlier one's job ID or overwrites its
// checkpoint.
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
		inflight: make(map[uint64]*Job),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if n, ok := jobNumber(e.Name()); ok && e.IsDir() {
			m.seq = max(m.seq, n)
		}
	}
	if g, ok := cfg.Gate.(*Gate); ok && g != nil {
		m.reg.Gauge(MetricWorkerSlots).Set(float64(g.Slots()))
	}
	return m, nil
}

// Metrics returns the manager's registry (jobs_* counters, gauges).
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Submit applies the manager's job defaults to spec, validates it,
// registers a job and starts it immediately; the shared gate, not
// admission control, bounds actual compute. Identical concurrent
// submissions singleflight: the first becomes the leader and runs, later
// ones attach to it in one map lookup and mirror its outcome
// (Status.Deduped set).
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	// Defaults apply only to plain tune jobs: compare is defined in terms
	// of CFR, and an adaptive job runs the technique it names.
	plain := !spec.Adaptive && !spec.Compare
	if spec.Technique == "" && plain {
		spec.Technique = m.cfg.DefaultTechnique
	}
	if m.cfg.DefaultWarmStart && !spec.WarmStart {
		// Only where a warm start is legal: its technique supports one.
		warm := spec
		warm.WarmStart = true
		if warm.spec().Validate() == nil {
			spec = warm
		}
	}
	return m.submit(spec)
}

// submit validates spec and starts it as is; Submit applies the
// manager's defaults first.
func (m *Manager) submit(spec JobSpec) (*Job, error) {
	key, err := spec.validate()
	if err != nil {
		return nil, err
	}
	if spec.Distributed && m.cfg.Fleet == nil {
		return nil, fmt.Errorf("server: distributed job needs a fleet coordinator (run with -mode=coordinator)")
	}
	if spec.WarmStart && m.cfg.Repo == nil {
		return nil, fmt.Errorf("server: warm_start needs a results repository (run with -repo)")
	}
	// Dedup is the repository key's singleflight. A spec with no explicit
	// seed is not dedupable (its seed defaults to the job ID, so every
	// submission is a distinct run), and neither is a resume nor a warm
	// start (a warm run's outcome depends on the repository's contents at
	// scan time, not on the spec alone).
	dedupable := spec.Seed != "" && spec.Resume == "" && !spec.WarmStart
	var resumeFrom string
	if spec.Resume != "" {
		path, seed, err := m.resumeSource(spec.Resume)
		if err != nil {
			return nil, err
		}
		resumeFrom = path
		// A resume is the prior job's run: it keeps that run's seed
		// unless it names one itself.
		if spec.Seed == "" {
			spec.Seed = seed
		}
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, fmt.Errorf("server: shutting down, not accepting jobs")
	}
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

// resumeSource is the checkpoint of the job a resume names, and the seed
// that job ran under. A job this manager never ran, such as one an
// earlier daemon drained, is read from its directory under Dir, so the
// ID must be one the manager could have given.
func (m *Manager) resumeSource(id string) (path, seed string, err error) {
	if _, ok := jobNumber(id); !ok {
		return "", "", fmt.Errorf("server: resume %q is not a job ID", id)
	}
	if prior, ok := m.Get(id); ok {
		return prior.ckptPath, prior.seed(), nil
	}
	path = filepath.Join(m.cfg.Dir, id, "checkpoint.json")
	ck, err := funcytuner.LoadCheckpoint(path)
	if errors.Is(err, fs.ErrNotExist) {
		return "", "", fmt.Errorf("server: unknown job %q to resume", id)
	}
	if err != nil {
		return "", "", fmt.Errorf("server: job %q to resume: %w", id, err)
	}
	return path, ck.Seed, nil
}

// jobNumber parses a job ID: "job-" followed by digits.
func jobNumber(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "job-")
	if !ok || digits == "" || strings.Trim(digits, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}

// ReattachFleetJobs resubmits the distributed jobs a journal-recovered
// fleet coordinator was carrying when the previous daemon died. Each
// comes back as a new job (new ID, the journaled spec, Distributed set)
// that resumes the recovered job's own checkpoint,
// <Dir>/<journaled id>/checkpoint.json, through the same submit a
// client's resume takes: the checkpoint answers every evaluation it
// holds, and the job's ranges adopt the in-flight tasks workers are
// still heartbeating. A job whose checkpoint is missing or does not load
// starts fresh, and its first progress line says why, so one bad
// checkpoint cannot stop the daemon from starting. Call once, after
// NewManager and before serving traffic. No coordinator or no journal =
// no-op.
func (m *Manager) ReattachFleetJobs() ([]*Job, error) {
	if m.cfg.Fleet == nil {
		return nil, nil
	}
	var jobs []*Job
	for _, rj := range m.cfg.Fleet.RecoveredJobs() {
		// The journaled spec as it is: the manager's defaults are for new
		// submissions, and this one was submitted before the restart.
		s := rj.Spec
		spec := JobSpec{
			Benchmark: s.Benchmark, Machine: s.Machine, Samples: s.Samples, TopX: s.TopX,
			Seed: s.Seed, FaultRate: s.FaultRate, Technique: s.Technique,
			Adaptive: s.Adaptive, Compare: s.Compare, WarmStart: s.WarmStart,
			Distributed: true, Resume: rj.Job,
		}
		how := "resuming its checkpoint"
		if _, _, err := m.resumeSource(rj.Job); err != nil {
			spec.Resume, how = "", fmt.Sprintf("starting fresh: %v", err)
		}
		j, err := m.submit(spec)
		if err != nil {
			return jobs, fmt.Errorf("server: re-attaching recovered fleet job %s: %w", rj.Job, err)
		}
		fmt.Fprintf(j.progress, "funcytuner: re-attached from fleet journal (was %s), %s\n", rj.Job, how)
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
		res, errStr, state := leader.result, leader.err, leader.state
		leader.mu.Unlock()
		switch state {
		case StateDone:
			m.finish(j, res, false, nil)
		case StateCancelled:
			m.finish(j, nil, false, context.Canceled)
		default:
			if errStr == "" {
				errStr = "leader job failed"
			}
			m.finish(j, nil, false, errors.New(errStr))
		}
	case <-ctx.Done():
		m.finish(j, nil, false, ctx.Err())
	}
}

// run executes one job to completion, cancellation or failure.
func (m *Manager) run(ctx context.Context, j *Job, resumeFrom string) {
	defer m.wg.Done()
	defer close(j.done)
	defer j.progress.Close()

	spec := j.Spec.spec()
	spec.Seed = j.seed()
	gate := m.cfg.Gate
	var evaluator funcytuner.Evaluator
	if j.Spec.Distributed {
		var err error
		if evaluator, err = m.cfg.Fleet.Evaluator(j.ID, spec); err != nil {
			m.finish(j, nil, false, err)
			return
		}
		// Evaluations run on the workers' CPUs; holding local gate slots
		// while blocked on the network would only throttle the fleet.
		gate = nil
	}
	tuner, prog, in, err := spec.Tuner(funcytuner.Options{
		Workers:         j.Spec.Workers,
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
	if err != nil {
		m.finish(j, nil, false, err)
		return
	}
	rep, err := tuner.Run(ctx, prog, in, spec)
	if err != nil {
		m.finish(j, nil, false, err)
		return
	}
	m.finish(j, newResult(rep), rep.Served, nil)
}

// seed is the seed the job runs under: its spec's, or else its ID.
func (j *Job) seed() string {
	if j.Spec.Seed != "" {
		return j.Spec.Seed
	}
	return j.ID
}

// finish records a job's terminal state and updates the server metrics.
// A done job keeps res, its rendered result; served marks one answered
// from the results repository.
func (m *Manager) finish(j *Job, res *Result, served bool, err error) {
	j.mu.Lock()
	j.ended = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		if served {
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
	if m.inflight[j.dedupKey] == j {
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

// Result returns the completed job's rendered report; an error for any
// other state. Its map and slices are shared with the job (and with any
// deduplicated follower): read them, do not modify them.
func (j *Job) Result() (Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.result == nil {
		return Result{}, fmt.Errorf("server: job %s is %s, not done", j.ID, j.state)
	}
	res := *j.result
	res.ID = j.ID
	return res, nil
}

// newResult renders rep as a job result without the job's ID.
func newResult(rep *funcytuner.Report) *Result {
	res := &Result{
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
	return res
}
