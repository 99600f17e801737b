package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"funcytuner/internal/core"
	"funcytuner/internal/faults"
	"funcytuner/internal/fsx"
	"funcytuner/internal/metrics"
	"funcytuner/internal/xrand"
)

// Coordinator defaults.
const (
	// DefaultLeaseTTL is the lease deadline granted with each claim.
	DefaultLeaseTTL = 10 * time.Second
	// DefaultMaxLeaseLosses is the consecutive-lease-loss threshold past
	// which a worker is quarantined (the PR-1 quarantine idea lifted from
	// CVs to workers: repeated permanent failure means stop feeding it).
	DefaultMaxLeaseLosses = 3
	// DefaultRequeueBackoff is the initial delay before an expired
	// lease's task becomes claimable again, doubled per loss and capped
	// at DefaultRequeueBackoffCap — the retry/backoff shape of the
	// evaluation-level resilience path, applied to claims.
	DefaultRequeueBackoff    = 200 * time.Millisecond
	DefaultRequeueBackoffCap = 2 * time.Second
)

// Fleet metric names, registered in the coordinator's registry.
const (
	MetricTasksEnqueued      = "fleet_tasks_enqueued"
	MetricClaims             = "fleet_claims"
	MetricReportsOK          = "fleet_reports_ok"
	MetricReportsStale       = "fleet_reports_stale"
	MetricLeasesExpired      = "fleet_leases_expired"
	MetricRequeues           = "fleet_requeues"
	MetricWorkersQuarantined = "fleet_workers_quarantined"
	// MetricLostLeaseMillis accumulates wall-clock spent inside leases
	// that expired — the fleet-level fault cost. It lives here, not in
	// the session CostAccount: lease losses depend on scheduling and
	// chaos timing, so charging them into the deterministic ledger would
	// break the fingerprint's worker-kill invariance (the same reasoning
	// that keeps CacheStats out of Report.Fingerprint).
	MetricLostLeaseMillis = "fleet_lost_lease_millis"
	MetricActiveLeases    = "fleet_active_leases"
	MetricQueueDepth      = "fleet_queue_depth"
	MetricKnownWorkers    = "fleet_workers"
	// MetricTasksRecovered counts in-flight tasks re-adopted from the
	// journal at startup; MetricJournalServed counts Evaluate calls
	// answered from pre-crash journaled outcomes without re-execution;
	// MetricJournalRecords gauges the journal's current record count;
	// MetricJournalSyncs counts the journal's writes, each one fsync,
	// however many records and transitions one write carries.
	MetricTasksRecovered = "fleet_tasks_recovered"
	MetricJournalServed  = "fleet_journal_served"
	MetricJournalRecords = "fleet_journal_records"
	MetricJournalSyncs   = "fleet_journal_syncs"
)

// Sentinel errors surfaced through the HTTP layer.
var (
	// ErrClosed means the coordinator is shut down (claims answer 503).
	ErrClosed = errors.New("fleet: coordinator closed")
	// ErrQuarantined means the claiming worker lost too many leases in a
	// row and is barred (claims answer 403).
	ErrQuarantined = errors.New("fleet: worker quarantined")
	// ErrUnavailable means the coordinator process died mid-flight
	// (claims answer 502). Unlike ErrClosed — a clean shutdown workers
	// obey by exiting — a dead coordinator looks like a partition:
	// workers back off and retry, riding out the restart.
	ErrUnavailable = errors.New("fleet: coordinator unavailable")
)

// Kill points for the restart chaos matrix: each names the moment right
// after a transition's journal record is durable but before the
// transition is acknowledged — the worst instant to die, because the
// journal holds a promise no caller has heard.
const (
	killMidEnqueue        = "mid-enqueue"
	killLeaseGranted      = "lease-granted"
	killHeartbeatRenewed  = "heartbeat-renewed"
	killReportAccepted    = "report-accepted"
	killRequeuePending    = "requeue-pending"
	killWorkerQuarantined = "worker-quarantined"
)

// CoordinatorConfig parameterizes the lease protocol. Zero fields take
// the defaults above.
type CoordinatorConfig struct {
	// LeaseTTL is the deadline granted with each claim.
	LeaseTTL time.Duration
	// Heartbeat is the cadence workers are told to beat at; it must be
	// below LeaseTTL (defaults to LeaseTTL/4).
	Heartbeat time.Duration
	// MaxLeaseLosses quarantines a worker after that many consecutive
	// lease losses.
	MaxLeaseLosses int
	// RequeueBackoff/RequeueBackoffCap shape the exponential delay before
	// an expired task is re-claimable.
	RequeueBackoff    time.Duration
	RequeueBackoffCap time.Duration
	// Registry receives the fleet counters and gauges; nil disables them.
	Registry *metrics.Registry
	// JournalPath, when non-empty, makes the coordinator durable: every
	// queue/lease transition is appended to this write-ahead journal
	// before it becomes visible (journal.go), and NewCoordinator replays
	// the journal so a restarted coordinator re-adopts in-flight work —
	// live leases stay live, expired ones are re-issued with bumped
	// epochs, accepted outcomes are served back without re-execution.
	// Empty disables journaling (the exact pre-durability behaviour).
	JournalPath string
	// Faults injects coordinator-side crash modes at journal appends
	// (die-before-sync, die-after-journal-before-reply, torn tail) for
	// the restart chaos tests. Requires JournalPath.
	Faults faults.CoordRates
	// FaultSeed keys the injected crash draws (default "coordinator").
	FaultSeed string
}

func (c CoordinatorConfig) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (c CoordinatorConfig) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	return c.leaseTTL() / 4
}

func (c CoordinatorConfig) maxLeaseLosses() int {
	if c.MaxLeaseLosses > 0 {
		return c.MaxLeaseLosses
	}
	return DefaultMaxLeaseLosses
}

func (c CoordinatorConfig) faultSeed() string {
	if c.FaultSeed != "" {
		return c.FaultSeed
	}
	return "coordinator"
}

func (c CoordinatorConfig) backoff(losses int) time.Duration {
	base := c.RequeueBackoff
	if base <= 0 {
		base = DefaultRequeueBackoff
	}
	cap := c.RequeueBackoffCap
	if cap <= 0 {
		cap = DefaultRequeueBackoffCap
	}
	b := base
	for i := 1; i < losses && b < cap; i++ {
		b *= 2
	}
	if b > cap {
		b = cap
	}
	return b
}

// validate rejects protocol configurations that cannot work.
func (c CoordinatorConfig) validate() error {
	if c.LeaseTTL < 0 || c.Heartbeat < 0 || c.RequeueBackoff < 0 || c.RequeueBackoffCap < 0 {
		return fmt.Errorf("fleet: negative duration in coordinator config")
	}
	if c.MaxLeaseLosses < 0 {
		return fmt.Errorf("fleet: MaxLeaseLosses must be >= 0")
	}
	if c.heartbeat() >= c.leaseTTL() {
		return fmt.Errorf("fleet: heartbeat %v must be below lease TTL %v", c.heartbeat(), c.leaseTTL())
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Faults.Enabled() && c.JournalPath == "" {
		return fmt.Errorf("fleet: coordinator fault injection requires JournalPath")
	}
	return nil
}

// taskResult is what Evaluate unblocks on.
type taskResult struct {
	out core.EvalOutcome
	err error
}

// task is the coordinator-side state of one claim.
type task struct {
	id     string
	job    string
	spec   Spec
	phase  string
	sample int
	cvs    [][]int
	// key is the job-agnostic adoption identity (journal.go); 0 when
	// journaling is off.
	key uint64
	// orphan marks a recovered task no Evaluate call is waiting on yet;
	// its accepted report lands in the outcome buffer instead.
	orphan bool
	// epoch is the lease generation, incremented on every grant.
	epoch int
	// losses counts expired leases of this task (drives the requeue
	// backoff). notBefore delays re-claiming after a loss.
	losses    int
	notBefore time.Time
	// leasedAt, while leased, is the grant time (drives the lost-lease
	// cost accounting when the lease expires).
	leasedAt time.Time
	done     chan taskResult // buffered 1; exactly one accepted report
}

// lease is one live claim grant.
type lease struct {
	t        *task
	worker   string
	deadline time.Time
}

// workerState tracks one worker's lease-loss record.
type workerState struct {
	losses      int // consecutive; reset by an accepted report
	quarantined bool
}

// JournalState is the health view of the coordinator's journal.
type JournalState struct {
	Path           string `json:"path"`
	Records        int    `json:"records"`
	RecoveredTasks int    `json:"recovered_tasks"`
	Served         int64  `json:"served"`
}

// Coordinator owns the task queue, the lease table and the worker
// quarantine for one funcytunerd process. It is transport-agnostic:
// Handler (http.go) exposes it over HTTP, and the tests drive it
// directly. With a JournalPath it is also durable: every transition is
// journaled before it is visible, and a restarted coordinator re-adopts
// the dead one's work (journal.go).
type Coordinator struct {
	cfg CoordinatorConfig

	mu sync.Mutex
	// state is what the journal decides (journal.go); c.mu guards it.
	state
	waitCh chan struct{} // closed and replaced whenever work may appear
	closed bool
	// killed simulates SIGKILL for the restart tests: the process is
	// gone, nothing is compacted, every caller sees ErrUnavailable.
	killed  bool
	taskSeq int64 // numbers task IDs

	// log is the write-ahead journal (journal.go), nil without a
	// JournalPath; jseq is its last record's journal sequence number and
	// lseq the log's own number for it, and synced the log's writes
	// already counted in mSyncs. jbuf is the scratch each record's body
	// is written in before the log seals a copy of it.
	log          *fsx.Log
	jseq, synced int64
	lseq         uint64
	jbuf         []byte
	cfaults      *faults.CoordModel
	// killHook, when set (restart chaos tests), is consulted at each
	// named kill point; returning true kills the coordinator right
	// there — after the journal record, before the reply.
	killHook func(point string) bool
	nRecov   int
	served   int64

	reaperStop chan struct{}
	reaperWG   sync.WaitGroup

	mTasks, mClaims, mOK, mStale      *metrics.Counter
	mExpired, mRequeues, mQuarantined *metrics.Counter
	mLostMillis, mRecovered, mServed  *metrics.Counter
	mSyncs                            *metrics.Counter
	gLeases, gQueue, gWorkers         *metrics.Gauge
	gJournal                          *metrics.Gauge
}

// NewCoordinator builds a coordinator and starts its lease reaper. With
// cfg.JournalPath set it first replays the journal: completed outcomes
// go to the serve buffer, live leases whose deadline has not passed
// stay live (their workers heartbeat and report across the restart),
// and expired leases are re-issued with bumped epochs so any stale
// pre-crash report stays fenced.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:        cfg,
		state:      newState(cfg.JournalPath != ""),
		waitCh:     make(chan struct{}),
		reaperStop: make(chan struct{}),
	}
	if reg := cfg.Registry; reg != nil {
		c.mTasks = reg.Counter(MetricTasksEnqueued)
		c.mClaims = reg.Counter(MetricClaims)
		c.mOK = reg.Counter(MetricReportsOK)
		c.mStale = reg.Counter(MetricReportsStale)
		c.mExpired = reg.Counter(MetricLeasesExpired)
		c.mRequeues = reg.Counter(MetricRequeues)
		c.mQuarantined = reg.Counter(MetricWorkersQuarantined)
		c.mLostMillis = reg.Counter(MetricLostLeaseMillis)
		c.mRecovered = reg.Counter(MetricTasksRecovered)
		c.mServed = reg.Counter(MetricJournalServed)
		c.mSyncs = reg.Counter(MetricJournalSyncs)
		c.gLeases = reg.Gauge(MetricActiveLeases)
		c.gQueue = reg.Gauge(MetricQueueDepth)
		c.gWorkers = reg.Gauge(MetricKnownWorkers)
		c.gJournal = reg.Gauge(MetricJournalRecords)
	}
	if cfg.JournalPath != "" {
		log, _, err := fsx.OpenLog(cfg.JournalPath, c.replay)
		if err != nil {
			return nil, fmt.Errorf("fleet: opening journal %s: %w", cfg.JournalPath, err)
		}
		c.log = log
		c.cfaults = faults.NewCoordModel(cfg.faultSeed(), cfg.Faults)
		if err := c.adopt(); err != nil {
			log.Release()
			return nil, err
		}
	}
	c.reaperWG.Add(1)
	go c.reap()
	return c, nil
}

// adopt takes over the state the journal replayed to: it re-adopts the
// dead coordinator's tasks as orphans and journals and applies the
// epoch bumps of the leases that expired while it was down. Runs before
// the reaper starts, so no lock is contended yet (taken anyway for the
// race detector's benefit).
func (c *Coordinator) adopt() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.taskSeq, c.jseq = c.seq, c.seq
	c.nRecov = len(c.tasks)
	c.mRecovered.Add(int64(c.nRecov))
	bumps := c.recoverAt(time.Now())
	// With no bumps this writes nothing and only sets the gauges.
	if err := c.writeJournal(bumps); err != nil {
		return err
	}
	c.applyAll(bumps)
	c.updateGauges()
	return nil
}

// commit is a transition's place in the journal: the log its records
// went to, the log's sequence number of the last one, and the crash mode
// drawn for it. The zero commit, without a journal, is durable at once.
type commit struct {
	log   *fsx.Log
	seq   uint64
	class faults.CoordClass
}

// journalAppend appends one transition's records to the journal, one
// write for the lot, applies them to the state, and returns the commit
// its caller awaits once it has released c.mu. It draws the
// transition's injected crash mode; a non-nil error means the
// coordinator died here, before anything applied, and the caller must
// unwind. Without a journal it only applies. Callers hold c.mu.
func (c *Coordinator) journalAppend(bodies ...journalBody) (commit, error) {
	if c.log == nil {
		c.applyAll(bodies)
		return commit{}, nil
	}
	cm := commit{log: c.log, class: c.cfaults.Classify(xrand.Combine(uint64(c.jseq)+1, xrand.HashString(bodies[0].Op)))}
	switch cm.class {
	case faults.CoordDieBeforeSync:
		// Died with the record still in the page cache: the transition
		// never happened as far as the journal is concerned.
		c.killLocked()
		return commit{}, ErrUnavailable
	case faults.CoordTornTail:
		// Died mid-write: every record lands but the last, which is cut
		// off mid-record with no newline. Recovery must ignore exactly
		// the torn record. Everything appended before is made durable
		// first, and the torn write is made under c.mu, so it carries
		// this transition alone.
		if c.log.Sync(c.lseq) != nil {
			c.killLocked()
			return commit{}, ErrUnavailable
		}
		write := c.log.Write
		c.log.Write = func(off int64, data []byte) error {
			last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
			write(off, data[:last+(len(data)-last)/2])
			return errors.New("fleet: journal write torn by an injected fault")
		}
		c.writeJournal(bodies)
		c.killLocked()
		return commit{}, ErrUnavailable
	}
	if err := c.appendJournal(bodies); err != nil {
		c.killLocked()
		return commit{}, ErrUnavailable
	}
	c.applyAll(bodies)
	cm.seq = c.lseq
	return cm, nil
}

// applyAll applies records the coordinator built. Each transition
// validates its records against the state first, so a refusal is a bug
// that would part memory from the journal: it panics. Callers hold c.mu.
func (c *Coordinator) applyAll(bodies []journalBody) {
	for i := range bodies {
		if !c.apply(&bodies[i]) {
			panic(fmt.Sprintf("fleet: the state refused a %s record for task %q worker %q", bodies[i].Op, bodies[i].Task, bodies[i].Worker))
		}
	}
}

// appendJournal stamps the bodies' sequence numbers and appends them to
// the journal log. Callers hold c.mu.
func (c *Coordinator) appendJournal(bodies []journalBody) error {
	for i := range bodies {
		c.jseq++
		bodies[i].Seq = c.jseq
		body, err := appendJournalBody(c.jbuf[:0], &bodies[i])
		c.jbuf = body
		if err != nil {
			return fmt.Errorf("fleet: encoding journal body: %w", err)
		}
		c.lseq = c.log.Append(body)
	}
	return nil
}

// writeJournal appends the bodies and syncs them without releasing c.mu:
// adoption's epoch bumps, Close's compaction and an injected torn tail.
// Callers hold c.mu.
func (c *Coordinator) writeJournal(bodies []journalBody) error {
	if err := c.appendJournal(bodies); err != nil {
		return err
	}
	err := c.log.Sync(c.lseq)
	c.countSyncs()
	if err != nil {
		return fmt.Errorf("fleet: journal sync: %w", err)
	}
	return nil
}

// tip is the commit of everything appended so far, which an answer that
// reveals state without appending awaits. Callers hold c.mu.
func (c *Coordinator) tip() commit { return commit{log: c.log, seq: c.lseq} }

// await waits, without c.mu, for a commit's records to become durable,
// then retakes c.mu only to learn whether the coordinator may answer.
// It may not once the coordinator is killed, and it dies here on a
// failed write, on an injected die-after-journal and at any of the kill
// points. One closed meanwhile answers as if the transition came first:
// Close wrote its records and compacted it in. The journal is one
// ordered log, so the wait also covers every record appended before.
func (c *Coordinator) await(cm commit, points ...string) error {
	if cm.log == nil {
		return nil
	}
	err := cm.log.Sync(cm.seq)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.countSyncs()
	switch {
	case c.killed:
		return ErrUnavailable
	case c.closed && err == nil:
		return nil
	case err != nil, cm.class == faults.CoordDieAfterJournal:
		// A journal that cannot take writes can no longer witness
		// transitions; dying is safer than silently diverging from disk.
		c.killLocked()
		return ErrUnavailable
	}
	for _, p := range points {
		if c.killAt(p) {
			return ErrUnavailable
		}
	}
	return nil
}

// countSyncs brings the journal's gauge and sync counter up to the
// current log's writes. Callers hold c.mu.
func (c *Coordinator) countSyncs() {
	records, writes := c.log.Stats()
	c.gJournal.Set(float64(records))
	c.mSyncs.Add(writes - c.synced)
	c.synced = writes
}

// killAt fires the chaos-matrix kill hook; true means the coordinator
// just died at this point and the caller must return ErrUnavailable
// without answering. Callers hold c.mu.
func (c *Coordinator) killAt(point string) bool {
	if c.killHook == nil || !c.killHook(point) {
		return false
	}
	c.killLocked()
	return true
}

// killLocked is the in-process SIGKILL: pending Evaluates fail with
// ErrUnavailable, every later call answers the same, the journal is
// left exactly as the last append left it (no compaction), and the
// reaper stops. Callers hold c.mu.
func (c *Coordinator) killLocked() {
	if c.killed || c.closed {
		return
	}
	c.killed = true
	c.stopLocked(ErrUnavailable)
}

// stopLocked ends a killed or closed coordinator: pending Evaluates fail
// with err, pollers wake, the reaper stops, and the journal's handle is
// released without writing. Callers hold c.mu.
func (c *Coordinator) stopLocked(err error) {
	for _, t := range c.tasks {
		select {
		case t.done <- taskResult{err: err}:
		default:
		}
	}
	c.broadcastLocked()
	close(c.reaperStop)
	if c.log != nil {
		c.log.Release()
	}
}

// Kill simulates a SIGKILL for the restart tests: the coordinator dies
// mid-flight, journal uncompacted. A new coordinator pointed at the
// same JournalPath re-adopts everything this one held.
func (c *Coordinator) Kill() {
	c.mu.Lock()
	c.killLocked()
	c.mu.Unlock()
	c.reaperWG.Wait()
}

// Close shuts the coordinator down cleanly: pending Evaluate calls
// fail, claims answer ErrClosed, the reaper stops, and the journal is
// compacted — truncated to empty when nothing is outstanding (the clean
// drain), or rewritten as a minimal snapshot (live tasks with their
// accumulated epoch/backoff state, worker records, completed outcomes)
// when work remains. Idempotent; a no-op after Kill.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed || c.killed {
		c.mu.Unlock()
		c.reaperWG.Wait()
		return
	}
	c.closed = true
	if c.log != nil {
		// Compact through a fresh log over the same path, numbered from
		// 1. Best effort: a compaction that fails leaves the old journal,
		// which still replays. The old log first writes what transitions
		// still awaiting it appended, then is released for good, so none
		// of them writes to the file once the compaction replaced it.
		compacted := c.compactionLocked()
		c.log.Close()
		c.countSyncs()
		c.log.Release()
		c.log, c.jseq, c.lseq, c.synced = fsx.NewLog(c.cfg.JournalPath), 0, 0, 0
		c.writeJournal(compacted)
	}
	c.stopLocked(ErrClosed)
	c.queue = nil
	c.leases = map[string]*lease{}
	c.tasks = map[string]*task{}
	c.updateGauges()
	c.mu.Unlock()
	c.reaperWG.Wait()
}

// compactionLocked snapshots the minimal state a restart needs. With
// nothing outstanding it returns nil — the journal truncates to empty
// and a restarted daemon has nothing to re-attach (a drained job
// resumes from its checkpoint instead). Callers hold c.mu.
func (c *Coordinator) compactionLocked() []journalBody {
	if len(c.tasks) == 0 {
		return nil
	}
	var bodies []journalBody
	emit := func(t *task, leased bool) {
		spec := t.spec
		epoch := t.epoch
		if leased {
			// The lease dies with this process; burn its epoch so the
			// holder's late report bounces after the restart.
			epoch++
		}
		bodies = append(bodies, journalBody{
			Op: opTask, Task: t.id, Job: t.job, Spec: &spec,
			Phase: t.phase, Sample: t.sample, CVs: t.cvs,
			Epoch: epoch, Losses: t.losses, NotBefore: t.notBefore.UnixNano(),
		})
	}
	for _, t := range c.queue {
		emit(t, false)
	}
	for _, id := range sortedKeys(c.leases) {
		emit(c.leases[id].t, true)
	}
	for _, w := range sortedKeys(c.workers) {
		ws := c.workers[w]
		if ws.losses == 0 && !ws.quarantined {
			continue
		}
		bodies = append(bodies, journalBody{Op: opWorker, Worker: w, Losses: ws.losses, Quarantined: ws.quarantined})
	}
	for _, k := range sortedKeys(c.buffer) {
		ro := c.buffer[k]
		bodies = append(bodies, journalBody{Op: opOutcome, Key: strconv.FormatUint(k, 16), Outcome: ro.out, Error: ro.evalErr})
	}
	return bodies
}

// Registry returns the registry receiving the fleet counters and
// gauges, nil when metrics are disabled.
func (c *Coordinator) Registry() *metrics.Registry { return c.cfg.Registry }

// ActiveLeases returns the number of live leases (healthz feed).
func (c *Coordinator) ActiveLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

// QueueDepth returns the number of claimable or backoff-pending tasks.
func (c *Coordinator) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Workers returns (known, quarantined) worker counts.
func (c *Coordinator) Workers() (known, quarantined int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		known++
		if w.quarantined {
			quarantined++
		}
	}
	return known, quarantined
}

// RecoveredTasks returns how many in-flight tasks this coordinator
// re-adopted from its journal at startup.
func (c *Coordinator) RecoveredTasks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nRecov
}

// RecoveredJobs lists the jobs the replayed journal mentioned, in
// first-seen order. The server resubmits these after a daemon restart;
// re-running them from scratch is cheap because every already-accepted
// evaluation is served straight from the journal's outcome buffer.
func (c *Coordinator) RecoveredJobs() []RecoveredJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RecoveredJob, len(c.jobs))
	copy(out, c.jobs)
	return out
}

// JournalState reports the journal's health view; nil when journaling
// is disabled.
func (c *Coordinator) JournalState() *JournalState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	records, _ := c.log.Stats()
	return &JournalState{
		Path:           c.cfg.JournalPath,
		Records:        int(records),
		RecoveredTasks: c.nRecov,
		Served:         c.served,
	}
}

// broadcastLocked wakes every long-polling claim. Callers hold c.mu.
func (c *Coordinator) broadcastLocked() {
	close(c.waitCh)
	c.waitCh = make(chan struct{})
}

// updateGauges refreshes the queue/lease/worker gauges. Callers hold c.mu.
func (c *Coordinator) updateGauges() {
	c.gQueue.Set(float64(len(c.queue)))
	c.gLeases.Set(float64(len(c.leases)))
	c.gWorkers.Set(float64(len(c.workers)))
}

// Evaluator returns the per-job core.RemoteEvaluator that feeds this
// coordinator: each Evaluate call enqueues one claim and blocks until a
// worker's accepted report (or ctx cancellation) resolves it, and its
// Window is the coordinator's. Plugged into funcytuner.Options.Evaluator,
// it turns an ordinary tuning run into the fleet's search loop.
func (c *Coordinator) Evaluator(job string, spec Spec) (core.RemoteEvaluator, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	return &jobEvaluator{c: c, job: job, spec: spec}, nil
}

// Window is how many of one job's evaluations the fleet holds at once,
// queued or leased, whatever the job's Workers: maxClaimBatch, one
// maximal claim. A fleet of up to maxClaimBatch/2 claim slots thus finds
// a batch waiting for every batch it evaluates. The window does not grow
// with the fleet: no measured fleet has had more slots (DESIGN §12).
func (c *Coordinator) Window() int { return maxClaimBatch }

type jobEvaluator struct {
	c    *Coordinator
	job  string
	spec Spec
}

// Window implements core.RemoteEvaluator: the coordinator's window.
func (e *jobEvaluator) Window() int { return e.c.Window() }

// Evaluate implements core.RemoteEvaluator: one claim, one accepted
// report. Lease losses along the way are invisible here — the task is
// simply re-dispatched until some worker's report lands.
func (e *jobEvaluator) Evaluate(ctx context.Context, req core.EvalRequest) (core.EvalOutcome, error) {
	t, err := e.c.enqueue(e.job, e.spec, req)
	if err != nil {
		return core.EvalOutcome{}, err
	}
	select {
	case res := <-t.done:
		if res.err != nil {
			return core.EvalOutcome{}, res.err
		}
		return res.out, nil
	case <-ctx.Done():
		e.c.abandon(t)
		return core.EvalOutcome{}, ctx.Err()
	}
}

// enqueue registers one claim and wakes the pollers. With a journal it
// first consults the recovery state: an outcome already accepted before
// the crash is served back byte-identically without re-execution, and a
// recovered in-flight task with the same adoption identity is adopted
// instead of duplicated.
func (c *Coordinator) enqueue(job string, spec Spec, req core.EvalRequest) (*task, error) {
	cvs := encodeCVs(req.CVs)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.killed {
		c.mu.Unlock()
		return nil, ErrUnavailable
	}
	if c.journaled {
		key := adoptionKey(spec, req.Phase, req.Sample, cvs)
		if ro, ok := c.buffer[key]; ok {
			// The outcome may come from a report still being written.
			c.served++
			c.mServed.Inc()
			cm := c.tip()
			c.mu.Unlock()
			if err := c.await(cm); err != nil {
				return nil, err
			}
			t := &task{done: make(chan taskResult, 1)}
			t.done <- ro.result(req.Phase, req.Sample)
			return t, nil
		}
		if ts := c.orphans[key]; len(ts) > 0 {
			t := ts[0]
			if len(ts) == 1 {
				delete(c.orphans, key)
			} else {
				c.orphans[key] = ts[1:]
			}
			t.orphan = false
			c.mu.Unlock()
			return t, nil
		}
	}
	// A task recovered from a compacted journal may hold the next ID:
	// compaction numbers the journal afresh, not the tasks.
	var id string
	for id == "" || c.tasks[id] != nil {
		c.taskSeq++
		id = fmt.Sprintf("%s/%s/%d#%d", job, req.Phase, req.Sample, c.taskSeq)
	}
	cm, err := c.journalAppend(journalBody{
		Op: opEnqueue, Task: id, Job: job, Spec: &spec,
		Phase: req.Phase, Sample: req.Sample, CVs: cvs,
	})
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	t := c.tasks[id]
	c.mTasks.Inc()
	c.updateGauges()
	c.broadcastLocked()
	c.mu.Unlock()
	// A claim may grant the task before this returns; the claim's own
	// wait covers this record too.
	if err := c.await(cm, killMidEnqueue); err != nil {
		return nil, err
	}
	return t, nil
}

// result converts a journaled outcome into the taskResult an Evaluate
// call unblocks on — the same decode path an accepted report takes.
func (ro replayOutcome) result(phase string, sample int) taskResult {
	var res taskResult
	switch {
	case ro.evalErr != "":
		res.err = fmt.Errorf("fleet: recovered report for %s/%d failed: %s", phase, sample, ro.evalErr)
	case ro.out == nil:
		res.err = fmt.Errorf("fleet: recovered report for %s/%d has no outcome", phase, sample)
	default:
		res.out, res.err = ro.out.decode()
	}
	return res
}

// abandon withdraws a task whose Evaluate context was cancelled: it
// leaves the queue and the lease table, and any late report for it is
// rejected as stale.
func (c *Coordinator) abandon(t *task) {
	c.mu.Lock()
	if c.killed || c.closed {
		c.mu.Unlock()
		return
	}
	var cm commit
	if _, live := c.tasks[t.id]; live {
		// Journal the withdrawal so a restart does not resurrect a task
		// nobody is waiting for. A failed append means we just died;
		// the cancelled Evaluate no longer cares either way.
		var err error
		if cm, err = c.journalAppend(journalBody{Op: opAbandon, Task: t.id}); err != nil {
			c.mu.Unlock()
			return
		}
	}
	c.updateGauges()
	c.mu.Unlock()
	c.await(cm)
}

// ClaimBatch leases up to max claimable tasks to worker in FIFO order,
// long-polling up to maxWait for at least one to appear; a single claim
// is a batch of one. It grants whatever is claimable the moment anything
// is — it never holds a partial batch hoping to fill it, so a batch-1
// claim and a batch-N claim have identical latency. Returns (nil, nil)
// when nothing became claimable in time (the HTTP layer's 204).
//
// Each granted task gets its own lease and epoch, exactly as if it had
// been claimed alone: heartbeats, expiry, requeue backoff and report
// fencing are all per-task. Batching changes the transport economics
// only, never the lease protocol. The whole batch's grant records cost
// one journal sync, taken before the worker hears about any lease.
func (c *Coordinator) ClaimBatch(ctx context.Context, worker string, maxWait time.Duration, max int) ([]*Task, error) {
	if worker == "" {
		return nil, fmt.Errorf("fleet: claim with empty worker ID")
	}
	if max < 1 {
		return nil, fmt.Errorf("fleet: claim batch size %d < 1", max)
	}
	deadline := time.Now().Add(maxWait)
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if c.killed {
			c.mu.Unlock()
			return nil, ErrUnavailable
		}
		ws := c.workers[worker]
		if ws == nil {
			// First contact — mid-run rejoin is this cheap: claiming is
			// registration. A zero record is what no record means, so
			// registering journals nothing.
			ws = &workerState{}
			c.workers[worker] = ws
		}
		if ws.quarantined {
			// The quarantine may come from a sweep still being written.
			cm := c.tip()
			c.mu.Unlock()
			if err := c.await(cm); err != nil {
				return nil, err
			}
			return nil, ErrQuarantined
		}
		now := time.Now()
		var picked []*task
		nextReady := time.Time{}
		for _, t := range c.queue {
			if len(picked) < max && !t.notBefore.After(now) {
				picked = append(picked, t)
				continue
			}
			if t.notBefore.After(now) && (nextReady.IsZero() || t.notBefore.Before(nextReady)) {
				nextReady = t.notBefore
			}
		}
		if len(picked) > 0 {
			leaseEnd := now.Add(c.cfg.leaseTTL())
			bodies := make([]journalBody, len(picked))
			for i, t := range picked {
				bodies[i] = journalBody{Op: opClaim, Task: t.id, Worker: worker, Epoch: t.epoch + 1, Deadline: leaseEnd.UnixNano()}
			}
			cm, err := c.journalAppend(bodies...)
			if err != nil {
				c.mu.Unlock()
				return nil, err
			}
			grants := make([]*Task, len(picked))
			for i, t := range picked {
				t.leasedAt = now
				c.mClaims.Inc()
				grants[i] = &Task{
					ID:              t.id,
					Job:             t.job,
					Spec:            t.spec,
					Phase:           t.phase,
					Sample:          t.sample,
					CVs:             t.cvs,
					Epoch:           t.epoch,
					LeaseMillis:     c.cfg.leaseTTL().Milliseconds(),
					HeartbeatMillis: c.cfg.heartbeat().Milliseconds(),
				}
			}
			c.updateGauges()
			c.mu.Unlock()
			if err := c.await(cm, killLeaseGranted); err != nil {
				return nil, err
			}
			return grants, nil
		}
		wait := c.waitCh
		c.mu.Unlock()

		sleep := time.Until(deadline)
		if !nextReady.IsZero() {
			if d := time.Until(nextReady); d < sleep {
				sleep = d
			}
		}
		if sleep <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
			if time.Now().After(deadline) {
				return nil, nil
			}
		case <-wait:
			timer.Stop()
		}
	}
}

// Heartbeat extends a live lease. It reports false when the lease is
// gone or the epoch is stale — the worker's cue to abandon the
// evaluation (self-fencing) — and ErrUnavailable when the coordinator
// is dead. The extension is journaled before it is granted, so a
// recovered lease's deadline is never older than the worker believes.
func (c *Coordinator) Heartbeat(worker, taskID string, epoch int) (bool, error) {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return false, ErrUnavailable
	}
	l := c.leases[taskID]
	if l == nil || l.worker != worker || l.t.epoch != epoch {
		c.mu.Unlock()
		return false, nil
	}
	deadline := time.Now().Add(c.cfg.leaseTTL())
	cm, err := c.journalAppend(journalBody{Op: opHB, Task: taskID, Worker: worker, Epoch: epoch, Deadline: deadline.UnixNano()})
	c.mu.Unlock()
	if err != nil {
		return false, err
	}
	if err := c.await(cm, killHeartbeatRenewed); err != nil {
		return false, err
	}
	return true, nil
}

// ReportBatch resolves claims; a single report is a batch of one. Each
// entry is judged on its own, and the verdicts come back in request
// order: exactly one report per task is accepted — the one carrying the
// live lease's worker and epoch, and not already accepted earlier in the
// same batch. Everything else (expired lease, burned epoch, duplicate
// send, abandoned task) gets false, is cost-accounted nowhere and does
// not poison its batchmates, which is what keeps the merged run
// byte-identical to a clean one.
//
// The whole batch is judged under one lock hold, and every accepted
// report — full wire outcome, trace events included — is journaled in
// one append (one sync) before any task resolves or any verdict is
// returned, so a crash one instant later still has the evaluations. A
// kill or journal failure fails the won tasks' Evaluate calls with
// ErrUnavailable and answers no verdict.
func (c *Coordinator) ReportBatch(worker string, reports []TaskReport) ([]bool, error) {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return nil, ErrUnavailable
	}
	accepted := make([]bool, len(reports))
	var bodies []journalBody
	var won []*task
	for i, r := range reports {
		l := c.leases[r.Task]
		if l == nil || l.worker != worker || l.t.epoch != r.Epoch || slices.Contains(won, l.t) {
			continue
		}
		accepted[i] = true
		won = append(won, l.t)
		bodies = append(bodies, journalBody{Op: opReport, Task: r.Task, Worker: worker, Epoch: r.Epoch, Outcome: r.Outcome, Error: r.Error})
	}
	var cm commit
	if len(won) > 0 {
		var err error
		if cm, err = c.journalAppend(bodies...); err != nil {
			c.mu.Unlock()
			return nil, err
		}
	}
	c.mOK.Add(int64(len(won)))
	c.mStale.Add(int64(len(reports) - len(won)))
	c.updateGauges()
	c.mu.Unlock()

	if err := c.await(cm, killReportAccepted); err != nil {
		// The won tasks have left c.tasks, so the kill did not reach
		// their Evaluate calls: the batch fails them itself.
		for _, t := range won {
			select {
			case t.done <- taskResult{err: err}:
			default:
			}
		}
		return nil, err
	}
	for i, t := range won {
		b := bodies[i]
		var res taskResult
		switch {
		case b.Error != "":
			res.err = fmt.Errorf("fleet: worker %s failed task %s: %s", worker, t.id, b.Error)
		case b.Outcome == nil:
			res.err = fmt.Errorf("fleet: worker %s reported task %s with no outcome", worker, t.id)
		default:
			res.out, res.err = b.Outcome.decode()
		}
		select {
		case t.done <- res:
		default:
		}
	}
	return accepted, nil
}

// reap expires overdue leases. An expired lease is a worker fault: the
// task goes back in the queue behind an exponential backoff (retrying a
// claim is the claim-level analogue of the evaluation retry path), the
// worker's consecutive-loss count rises, and a worker that keeps losing
// leases is quarantined so the fleet stops feeding it.
func (c *Coordinator) reap() {
	defer c.reaperWG.Done()
	tick := c.cfg.leaseTTL() / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-c.reaperStop:
			return
		case <-ticker.C:
			c.expireLeases()
		}
	}
}

// expireLeases requeues every overdue lease's task. The sweep's requeue
// and quarantine records are journaled as one batch (one sync).
func (c *Coordinator) expireLeases() {
	c.mu.Lock()
	if c.closed || c.killed {
		c.mu.Unlock()
		return
	}
	now := time.Now()
	var expired []*lease
	for _, l := range c.leases {
		if !now.Before(l.deadline) {
			expired = append(expired, l)
		}
	}
	if len(expired) == 0 {
		c.mu.Unlock()
		return
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].t.id < expired[j].t.id })

	bodies := make([]journalBody, 0, len(expired))
	for _, l := range expired {
		t := l.t
		bodies = append(bodies, journalBody{Op: opRequeue, Task: t.id, Worker: l.worker, Losses: t.losses + 1, NotBefore: now.Add(c.cfg.backoff(t.losses + 1)).UnixNano()})
	}
	// Count the losses on copies of the worker records as apply will, so
	// that a worker whose losses reach the bound is quarantined by a
	// record in the same batch, carrying its count at that loss.
	quarantines := 0
	records := make(map[string]workerState)
	for _, l := range expired {
		ws, seen := records[l.worker]
		if cur := c.workers[l.worker]; !seen && cur != nil {
			ws = *cur
		}
		if !ws.quarantined {
			ws.losses++
			if ws.losses >= c.cfg.maxLeaseLosses() {
				ws.quarantined = true
				bodies = append(bodies, journalBody{Op: opWorker, Worker: l.worker, Losses: ws.losses, Quarantined: true})
				quarantines++
			}
		}
		records[l.worker] = ws
	}
	cm, err := c.journalAppend(bodies...)
	if err != nil {
		c.mu.Unlock()
		return
	}
	for _, l := range expired {
		c.mLostMillis.Add(now.Sub(l.t.leasedAt).Milliseconds())
	}
	c.mExpired.Add(int64(len(expired)))
	c.mRequeues.Add(int64(len(expired)))
	c.mQuarantined.Add(int64(quarantines))
	c.updateGauges()
	c.broadcastLocked()
	c.mu.Unlock()
	points := []string{killRequeuePending}
	if quarantines > 0 {
		points = append(points, killWorkerQuarantined)
	}
	c.await(cm, points...)
}
