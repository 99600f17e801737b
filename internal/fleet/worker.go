package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"time"

	"funcytuner"
	"funcytuner/internal/faults"
	"funcytuner/internal/xrand"
)

// WorkerConfig parameterizes one evaluation worker process.
type WorkerConfig struct {
	// ID is the worker's stable identity (lease attribution, quarantine,
	// fault-stream seeding). Required.
	ID string
	// Coordinator is the coordinator's base URL. Required.
	Coordinator string
	// Concurrency bounds simultaneous claims (default 1).
	Concurrency int
	// ClaimBatch is the number of tasks each claim round-trip may lease
	// (default 1: a single claim is a batch of one). Larger batches
	// amortize claim and report HTTP overhead across N evaluations; every
	// lease in a batch still lives and dies individually (own epoch, own
	// heartbeat verdict, own report acceptance).
	ClaimBatch int
	// Poll is the claim long-poll bound (default 2s).
	Poll time.Duration
	// ReconnectAttempts bounds consecutive failed claim round-trips
	// (connection refused, coordinator killed mid-restart) before the
	// worker gives up (default DefaultReconnectAttempts). The retry
	// delay starts at Poll/8 (min 10ms) and doubles up to Poll, so a
	// worker rides out a coordinator restart instead of erroring, yet a
	// permanently-gone coordinator does not pin the process forever.
	ReconnectAttempts int
	// CacheSize bounds the worker's process-wide compile/link cache, in
	// entries (0 selects the facade default size). The cache is shared
	// by every job service the worker builds; keys carry full
	// program/machine/flavor identity, so sharing is behaviour-
	// invisible.
	CacheSize int
	// CacheSpill, when non-empty, attaches an on-disk spill tier rooted
	// at this directory to the worker's compile cache: evicted entries
	// are written behind, misses read through, and the still-resident
	// entries are flushed there when Run returns — a restarted worker
	// starts warm instead of recompiling. Results are bit-identical
	// spill-on vs spill-off.
	CacheSpill string
	// Faults injects worker-level chaos (die-mid-eval, stall,
	// report-then-die, stale re-report). Zero value = a healthy worker.
	Faults faults.WorkerRates
	// HTTPClient overrides the transport (tests); nil uses a default.
	HTTPClient *http.Client
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) validate() error {
	if c.ID == "" {
		return fmt.Errorf("fleet: worker ID is required")
	}
	if c.Coordinator == "" {
		return fmt.Errorf("fleet: coordinator URL is required")
	}
	if c.Concurrency < 0 {
		return fmt.Errorf("fleet: concurrency must be >= 0, got %d", c.Concurrency)
	}
	if c.ClaimBatch < 0 {
		return fmt.Errorf("fleet: claim batch must be >= 0, got %d", c.ClaimBatch)
	}
	if c.Poll < 0 {
		return fmt.Errorf("fleet: poll interval must be >= 0, got %v", c.Poll)
	}
	if c.ReconnectAttempts < 0 {
		return fmt.Errorf("fleet: reconnect attempts must be >= 0, got %d", c.ReconnectAttempts)
	}
	if c.CacheSize < 0 {
		return fmt.Errorf("fleet: cache size must be >= 0, got %d", c.CacheSize)
	}
	return c.Faults.Validate()
}

func (c WorkerConfig) concurrency() int {
	if c.Concurrency > 0 {
		return c.Concurrency
	}
	return 1
}

func (c WorkerConfig) claimBatch() int {
	if c.ClaimBatch > 0 {
		return c.ClaimBatch
	}
	return 1
}

func (c WorkerConfig) poll() time.Duration {
	if c.Poll > 0 {
		return c.Poll
	}
	return 2 * time.Second
}

// DefaultReconnectAttempts is the consecutive-claim-failure budget
// before a worker gives up on its coordinator. With the delay capped at
// the poll bound, the default budget tolerates outages of roughly a
// minute's worth of polls — generous for a journal-recovery restart,
// finite for a coordinator that is simply gone.
const DefaultReconnectAttempts = 60

func (c WorkerConfig) reconnectAttempts() int {
	if c.ReconnectAttempts > 0 {
		return c.ReconnectAttempts
	}
	return DefaultReconnectAttempts
}

// reconnectDelay shapes the claim retry backoff: poll/8 (min 10ms)
// doubling per consecutive failure, capped at the poll bound.
func reconnectDelay(poll time.Duration, failures int) time.Duration {
	d := poll / 8
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	for i := 1; i < failures && d < poll; i++ {
		d *= 2
	}
	if d > poll {
		d = poll
	}
	return d
}

// serviceKey names the run a claim belongs to. A job ID alone is not a
// run: a restarted daemon numbers its jobs from the start again. Nor is
// a spec: two jobs may share one (warm starts and resumes are not
// deduplicated), and one session would hold each job's claims until the
// other's claim for the same sample ended.
type serviceKey struct {
	job  string
	spec Spec
}

// Worker claims, evaluates and reports until its context is cancelled,
// the coordinator closes, or the coordinator quarantines it. All tuning
// state lives in its per-job EvalServices, which are pure functions of
// the Spec — restarting a worker loses nothing.
type Worker struct {
	cfg WorkerConfig
	cl  *client
	// cache is the process-wide compile/link cache shared by every job
	// service this worker builds. Cache keys carry program, machine and
	// flag-space identity, so cross-job sharing is behaviour-invisible;
	// what it buys is warmth — a worker that has evaluated a job's
	// assemblies once keeps that work across lease churn, rejoins and
	// new jobs over the same benchmark.
	cache *funcytuner.CompileCache

	// clampOnce gates the one-time log line when the coordinator clamps
	// this worker's claim batches below its configured -claim-batch.
	clampOnce sync.Once

	mu       sync.Mutex
	services map[serviceKey]*funcytuner.EvalService
}

// NewWorker builds a worker for cfg.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cache := funcytuner.NewCompileCache(cfg.CacheSize)
	if cfg.CacheSpill != "" {
		if err := cache.AttachSpill(cfg.CacheSpill); err != nil {
			return nil, err
		}
	}
	return &Worker{
		cfg:      cfg,
		cl:       newClient(cfg.Coordinator, cfg.HTTPClient),
		cache:    cache,
		services: make(map[serviceKey]*funcytuner.EvalService),
	}, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run executes the claim loop until ctx is cancelled or the coordinator
// closes (both return nil) or quarantines this worker (returns
// ErrQuarantined).
func (w *Worker) Run(ctx context.Context) error {
	n := w.cfg.concurrency()
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- w.loop(ctx)
		}()
	}
	wg.Wait()
	close(errs)
	if w.cfg.CacheSpill != "" {
		// Flush the still-resident cache entries to the spill directory so
		// a restarted worker starts warm instead of recompiling.
		w.cache.SpillAll()
	}
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loop evaluates one batch after another. A batch's report brings the
// next batch; only when it brings none does the loop long-poll
// claimbatch.
func (w *Worker) loop(ctx context.Context) error {
	batch := w.cfg.claimBatch()
	failures := 0
	var next []*Task
	for {
		if ctx.Err() != nil {
			return nil
		}
		var granted int
		var err error
		ts := next
		if len(ts) == 0 {
			ts, granted, err = w.cl.claimBatch(ctx, w.cfg.ID, w.cfg.poll(), batch)
		}
		if granted > 0 && granted < batch {
			asked := batch
			w.clampOnce.Do(func() {
				w.logf("fleet worker %s: coordinator grants at most %d leases per claim (asked %d); adapting — set -claim-batch to %d or less",
					w.cfg.ID, granted, asked, granted)
			})
			batch = granted
		}
		switch {
		case errors.Is(err, ErrClosed):
			return nil
		case errors.Is(err, ErrQuarantined):
			w.logf("fleet worker %s: quarantined by coordinator, stopping", w.cfg.ID)
			return ErrQuarantined
		case errors.Is(err, context.Canceled) || ctx.Err() != nil:
			return nil
		case err != nil:
			// Transport trouble (coordinator restarting, partition,
			// ErrUnavailable from a killed coordinator): back off and
			// keep trying — rejoining is just claiming. One log line per
			// outage, not per attempt, and a capped retry budget so a
			// permanently-gone coordinator fails loudly instead of
			// pinning the worker forever.
			failures++
			if failures == 1 {
				w.logf("fleet worker %s: coordinator unavailable, retrying: %v", w.cfg.ID, err)
			}
			if failures > w.cfg.reconnectAttempts() {
				return fmt.Errorf("fleet: worker %s: coordinator unreachable after %d attempts: %w",
					w.cfg.ID, failures-1, err)
			}
			sleepCtx(ctx, reconnectDelay(w.cfg.poll(), failures))
			continue
		case len(ts) == 0:
			failures = 0
			continue // long-poll expired, nothing claimable
		}
		if failures > 0 {
			w.logf("fleet worker %s: coordinator back after %d failed claims", w.cfg.ID, failures)
			failures = 0
		}
		if next, err = w.executeBatch(ctx, ts, batch); err != nil {
			w.logf("fleet worker %s: batch of %d: %v", w.cfg.ID, len(ts), err)
		}
	}
}

// classify draws the injected worker fault mode for one lease, from the
// model of the task's run and this worker, built for the draw: it costs
// two string hashes and keeps nothing. The draw folds the lease epoch
// into the key, so a re-dispatched claim draws fresh — a worker that
// died on a task is not doomed to die on it again.
func (w *Worker) classify(t *Task) faults.WorkerClass {
	if !w.cfg.Faults.Enabled() {
		return faults.WorkerOK
	}
	m := faults.NewWorkerModel(t.Spec.Seed, w.cfg.ID, w.cfg.Faults)
	return m.Classify(xrand.Combine(xrand.HashString(t.ID), uint64(t.Epoch)))
}

// service returns the claim executor for the task's run, building it on
// first contact, so a worker that joins mid-run needs no handshake
// beyond claiming. A build error fails the claim, and with it the run.
func (w *Worker) service(t *Task) (*funcytuner.EvalService, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	key := serviceKey{t.Job, t.Spec}
	if svc, ok := w.services[key]; ok {
		return svc, nil
	}
	svc, err := buildService(t.Spec, w.cache)
	if err == nil {
		w.services[key] = svc
	}
	return svc, err
}

// buildService rebuilds the coordinator's session from the Spec — same
// deterministic inputs, so every claim outcome is bit-identical to a
// local evaluation on the coordinator. cache, when non-nil, is shared
// with every other service in the process (see Worker.cache).
func buildService(spec Spec, cache *funcytuner.CompileCache) (*funcytuner.EvalService, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	// Claims carry their CVs, so the executor never consults a
	// repository: a warm-started run evaluates like a cold one.
	spec.WarmStart = false
	tuner, prog, in, err := spec.Tuner(funcytuner.Options{SharedCache: cache})
	if err != nil {
		return nil, err
	}
	return tuner.EvalService(prog, in)
}

// executeBatch runs one batch of leases end to end: it evaluates them in
// order under one heartbeat loop, then delivers every surviving outcome
// in one batched report, which asks for up to max tasks more and returns
// the ones granted. Lease hygiene is per task: a task whose heartbeat
// bounces is fenced (its evaluation is skipped or abandoned and it is
// left out of the report) without disturbing its batchmates, and a claim
// whose lease we know we lost is never reported.
//
// Injected fault modes are drawn per lease (classify) and act inside the
// batch. die-mid-eval on any lease takes the whole batch dark. A stalled
// lease gets no heartbeats and is evaluated only after sleeping past its
// deadline at its slot, while its batchmates keep beating; its late
// entry stays in the report and bounces. stale-report entries are sent
// again after the report, and report-then-die asks for no task with its
// report and sits out a lease TTL before the next claim.
func (w *Worker) executeBatch(ctx context.Context, ts []*Task, max int) ([]*Task, error) {
	start := time.Now()
	leaseTTL := time.Duration(ts[0].LeaseMillis) * time.Millisecond
	hb := time.Duration(ts[0].HeartbeatMillis) * time.Millisecond

	modes := make([]faults.WorkerClass, len(ts))
	for i, t := range ts {
		modes[i] = w.classify(t)
		if modes[i] != faults.WorkerOK {
			w.logf("fleet worker %s: injecting %v on task %s epoch %d", w.cfg.ID, modes[i], t.ID, t.Epoch)
		}
	}
	if slices.Contains(modes, faults.WorkerDieMidEval) {
		// Go dark mid-batch: no heartbeat, no report. Sitting out the
		// leases models the death; claiming again models the rejoin.
		sleepCtx(ctx, leaseTTL+hb)
		return nil, nil
	}

	evalCtxs := make([]context.Context, len(ts))
	cancels := make([]context.CancelFunc, len(ts))
	var beating []*Task
	var fences []context.CancelFunc
	for i, t := range ts {
		evalCtxs[i], cancels[i] = context.WithCancel(ctx)
		defer cancels[i]()
		if modes[i] != faults.WorkerStall {
			beating = append(beating, t)
			fences = append(fences, cancels[i])
		}
	}

	// The leases expire leaseTTL after the last grant or heartbeat the
	// coordinator answered, which the worker heard after it was made.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	lastOK := start
	if len(beating) > 0 {
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			lastOK = w.batchHeartbeatLoop(ctx, beating, fences, hbStop, start, leaseTTL, hb)
		}()
	}

	outs := make([]*Outcome, len(ts))
	errStrs := make([]string, len(ts))
	for i, t := range ts {
		if modes[i] == faults.WorkerStall {
			// Injected hang: blow past this lease's deadline without a
			// heartbeat, then wake up and evaluate anyway — the late
			// report must bounce off the burned epoch.
			sleepCtx(ctx, leaseTTL+hb)
		}
		if ctx.Err() != nil || evalCtxs[i].Err() != nil {
			continue // shutting down or fenced before this slot's turn
		}
		svc, err := w.service(t)
		if err != nil {
			errStrs[i] = err.Error()
			continue
		}
		cvs, err := decodeCVs(svc.Space(), t.CVs)
		if err != nil {
			errStrs[i] = err.Error()
			continue
		}
		out, evalErr := svc.Evaluate(evalCtxs[i], funcytuner.EvalRequest{Phase: t.Phase, Sample: t.Sample, CVs: cvs})
		if evalErr != nil {
			errStrs[i] = evalErr.Error()
			continue
		}
		outs[i] = encodeOutcome(out)
	}
	close(hbStop)
	hbWG.Wait()

	if ctx.Err() != nil {
		return nil, nil // shutting down; the leases expire on their own
	}
	// Report only claims whose lease we still believe in. A fenced task
	// is dropped (self-fencing): the coordinator already re-dispatched
	// it, and its slot in the batch must not turn into a stale report.
	reports := make([]TaskReport, 0, len(ts))
	reported := make([]int, 0, len(ts))
	for i, t := range ts {
		if evalCtxs[i].Err() != nil {
			w.logf("fleet worker %s: fenced off task %s epoch %d", w.cfg.ID, t.ID, t.Epoch)
			continue
		}
		reports = append(reports, TaskReport{Task: t.ID, Epoch: t.Epoch, Outcome: outs[i], Error: errStrs[i]})
		reported = append(reported, i)
	}
	if len(reports) == 0 {
		return nil, nil
	}
	die := false
	for _, i := range reported {
		die = die || modes[i] == faults.WorkerReportThenDie
	}
	if die {
		max = 0 // a worker about to go dark takes no new leases
	}
	accepted, next, rerr := w.report(ctx, reports, max, lastOK.Add(leaseTTL))
	if rerr != nil {
		return nil, rerr // leases expire on their own; the claims are re-dispatched
	}
	var replay []TaskReport
	for k, i := range reported {
		if !accepted[k] {
			w.logf("fleet worker %s: report for task %s epoch %d rejected as stale", w.cfg.ID, ts[i].ID, ts[i].Epoch)
		}
		if modes[i] == faults.WorkerStaleReport {
			replay = append(replay, reports[k])
		}
	}
	if len(replay) > 0 {
		// Replay those entries, modeling a rejoining worker flushing its
		// send buffer: the duplicates must be rejected and change nothing.
		w.cl.reportBatch(ctx, w.cfg.ID, replay, 0)
	}
	if die {
		// The report landed; now the worker goes dark before its next
		// claim, so peers must carry the run until it rejoins.
		sleepCtx(ctx, leaseTTL)
	}
	return next, nil
}

// report sends a batch's reports, asking for up to max more tasks. A
// send that gets no answer (a transport failure, or a coordinator that
// died, 502) is sent again, with the claim loop's backoff, until an
// answer arrives, ctx ends, or the batch's leases have expired at
// expiry. Until then an accepted report still counts, and no lease of
// the batch expires as this worker's loss. A resend cannot count twice:
// the coordinator accepts one report per lease epoch.
//
// A coordinator older than max refuses a request that carries it (400)
// before judging any report, so a request with max that is refused is
// sent again at once without it, in the bytes that coordinator reads;
// the worker then claims its next batch by long poll.
func (w *Worker) report(ctx context.Context, reports []TaskReport, max int, expiry time.Time) ([]bool, []*Task, error) {
	for failures := 1; ; failures++ {
		accepted, next, err := w.cl.reportBatch(ctx, w.cfg.ID, reports, max)
		if max > 0 && errors.Is(err, errRefused) {
			max = 0
			accepted, next, err = w.cl.reportBatch(ctx, w.cfg.ID, reports, max)
		}
		var transport *url.Error
		if ctx.Err() != nil || !errors.Is(err, ErrUnavailable) && !errors.As(err, &transport) {
			return accepted, next, err
		}
		d := reconnectDelay(w.cfg.poll(), failures)
		if time.Now().Add(d).After(expiry) {
			return nil, nil, err
		}
		if failures == 1 {
			w.logf("fleet worker %s: report batch of %d failed, sending it again: %v", w.cfg.ID, len(reports), err)
		}
		sleepCtx(ctx, d)
	}
}

// batchHeartbeatLoop keeps a batch's leases alive while the evaluations
// run. Verdicts are per task: a bounced heartbeat fences only that
// task. Transport silence for a full lease TTL fences the whole batch —
// a partitioned worker must assume every lease expired. It returns when
// the coordinator last answered a heartbeat, or granted the batch at
// start if it answered none.
func (w *Worker) batchHeartbeatLoop(ctx context.Context, ts []*Task, cancels []context.CancelFunc, stop <-chan struct{}, start time.Time, leaseTTL, hb time.Duration) time.Time {
	if hb <= 0 {
		hb = leaseTTL / 4
	}
	if hb <= 0 {
		hb = time.Second
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	live := make([]bool, len(ts))
	for i := range live {
		live[i] = true
	}
	lastOK := start
	for {
		select {
		case <-stop:
			return lastOK
		case <-ctx.Done():
			return lastOK
		case <-ticker.C:
			anyLive, anyOK, anyErr := false, false, false
			for i, t := range ts {
				if !live[i] {
					continue
				}
				ok, err := w.cl.heartbeat(ctx, w.cfg.ID, t.ID, t.Epoch)
				switch {
				case err == nil && ok:
					anyOK = true
					anyLive = true
				case err == nil && !ok:
					live[i] = false
					cancels[i]()
				default:
					anyErr = true
					anyLive = true
				}
			}
			if anyOK {
				lastOK = time.Now()
			}
			if anyErr && time.Since(lastOK) > leaseTTL {
				for i := range ts {
					if live[i] {
						live[i] = false
						cancels[i]()
					}
				}
				return lastOK
			}
			if !anyLive {
				return lastOK
			}
		}
	}
}

// sleepCtx sleeps for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}
