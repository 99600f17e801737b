package fleet

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcytuner"
	"funcytuner/internal/core"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/metrics"
	"funcytuner/internal/trace"
)

const testTimeout = 90 * time.Second

// testSpec is the small fault-injected run the distributed tests tune.
func testSpec() Spec {
	return Spec{
		Benchmark: funcytuner.CloverLeaf,
		Machine:   "broadwell",
		Samples:   24,
		TopX:      6,
		Seed:      "fleet-test",
		FaultRate: 1,
	}
}

func mustBenchmark(t *testing.T, name string) *funcytuner.Program {
	t.Helper()
	p, err := funcytuner.Benchmark(name)
	if err != nil {
		t.Fatalf("benchmark %q: %v", name, err)
	}
	return p
}

func mustMachine(t *testing.T, name string) *funcytuner.Machine {
	t.Helper()
	m, err := funcytuner.MachineByName(name)
	if err != nil {
		t.Fatalf("machine %q: %v", name, err)
	}
	return m
}

func canonicalJSONL(t *testing.T, rec *funcytuner.TraceRecorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Snapshot().Canonical().WriteJSONL(&buf); err != nil {
		t.Fatalf("canonical trace: %v", err)
	}
	return buf.Bytes()
}

// localRun executes the spec single-node and returns its fingerprint and
// canonical trace — the reference every distributed run must match.
func localRun(t *testing.T, spec Spec) (uint64, []byte) {
	t.Helper()
	rec := funcytuner.NewTraceRecorder()
	tuner := funcytuner.NewTuner(funcytuner.Options{
		Machine: mustMachine(t, spec.Machine),
		Samples: spec.Samples,
		TopX:    spec.TopX,
		Seed:    spec.Seed,
		Faults:  funcytuner.DefaultFaultRates().Scale(spec.FaultRate),
		Trace:   rec,
	})
	prog := mustBenchmark(t, spec.Benchmark)
	in := funcytuner.TuningInput(spec.Benchmark, mustMachine(t, spec.Machine))
	rep, err := tuner.Tune(prog, in)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return rep.Fingerprint(), canonicalJSONL(t, rec)
}

// distributedRun tunes the spec through a coordinator + HTTP workers and
// returns the merged run's fingerprint and canonical trace. Each entry
// in workers may carry its own fault mix; a nil stop channel means the
// worker lives for the whole run.
func distributedRun(t *testing.T, spec Spec, ccfg CoordinatorConfig, workers []WorkerConfig, transports []http.RoundTripper) (uint64, []byte) {
	t.Helper()
	coord, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i := range workers {
		wc := workers[i]
		wc.Coordinator = srv.URL
		wc.Logf = t.Logf
		if transports != nil && transports[i] != nil {
			wc.HTTPClient = &http.Client{Transport: transports[i]}
		}
		w, err := NewWorker(wc)
		if err != nil {
			t.Fatalf("worker %s: %v", wc.ID, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Logf("worker %s exited: %v", wc.ID, err)
			}
		}()
	}
	defer wg.Wait()
	defer cancel()

	ev, err := coord.Evaluator("job-1", spec)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	rec := funcytuner.NewTraceRecorder()
	tuner := funcytuner.NewTuner(funcytuner.Options{
		Machine:   mustMachine(t, spec.Machine),
		Samples:   spec.Samples,
		TopX:      spec.TopX,
		Seed:      spec.Seed,
		Faults:    funcytuner.DefaultFaultRates().Scale(spec.FaultRate),
		Workers:   4,
		Evaluator: ev,
		Trace:     rec,
	})
	prog := mustBenchmark(t, spec.Benchmark)
	in := funcytuner.TuningInput(spec.Benchmark, mustMachine(t, spec.Machine))
	rep, err := tuner.TuneContext(ctx, prog, in)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	return rep.Fingerprint(), canonicalJSONL(t, rec)
}

// TestDistributedFingerprintMatchesLocal is the tentpole invariant on
// the happy path: a coordinator + 2 workers over real HTTP produce a
// Report.Fingerprint and canonical trace byte-equal to single-node.
func TestDistributedFingerprintMatchesLocal(t *testing.T) {
	spec := testSpec()
	wantFP, wantTrace := localRun(t, spec)
	gotFP, gotTrace := distributedRun(t, spec,
		CoordinatorConfig{LeaseTTL: 2 * time.Second, Heartbeat: 200 * time.Millisecond},
		[]WorkerConfig{
			{ID: "w-1", Concurrency: 2, Poll: 200 * time.Millisecond},
			{ID: "w-2", Concurrency: 2, Poll: 200 * time.Millisecond},
		}, nil)
	if gotFP != wantFP {
		t.Errorf("distributed fingerprint %016x != local %016x", gotFP, wantFP)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("distributed canonical trace differs from local (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
}

// TestDistributedSurvivesWorkerChaos injects every worker fault mode —
// die-mid-eval, stall past the lease, report-then-die, stale re-report —
// and still demands byte-equality with the clean single-node run. This
// is simultaneously the duplicate/late-report coverage: stale reports
// are rejected, cost is accounted exactly once (the fingerprint hashes
// the cost and fault tallies), and the canonical trace is byte-identical.
func TestDistributedSurvivesWorkerChaos(t *testing.T) {
	spec := testSpec()
	wantFP, wantTrace := localRun(t, spec)
	chaos := faults.WorkerRates{DieMidEval: 0.08, Stall: 0.05, ReportThenDie: 0.04, StaleReport: 0.08}
	gotFP, gotTrace := distributedRun(t, spec,
		CoordinatorConfig{
			LeaseTTL:          150 * time.Millisecond,
			Heartbeat:         30 * time.Millisecond,
			RequeueBackoff:    2 * time.Millisecond,
			RequeueBackoffCap: 20 * time.Millisecond,
			MaxLeaseLosses:    1 << 20, // chaos workers must keep rejoining
		},
		[]WorkerConfig{
			{ID: "w-healthy", Concurrency: 2, Poll: 100 * time.Millisecond},
			{ID: "w-chaos-1", Concurrency: 2, Poll: 100 * time.Millisecond, Faults: chaos},
			{ID: "w-chaos-2", Concurrency: 2, Poll: 100 * time.Millisecond, Faults: chaos},
		}, nil)
	if gotFP != wantFP {
		t.Errorf("chaos fingerprint %016x != local %016x", gotFP, wantFP)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("chaos canonical trace differs from local (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
}

// killAfterReports cancels a context after the worker has sent n report
// batches (n reports at the default batch of one) — an abrupt mid-run
// death from the coordinator's perspective.
type killAfterReports struct {
	n      int64
	cancel context.CancelFunc
	seen   atomic.Int64
}

func (k *killAfterReports) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/fleet/reportbatch") && k.seen.Add(1) >= k.n {
		k.cancel()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestDistributedSurvivesWorkerKillAndRejoin kills one worker for good
// mid-run (its context dies after 5 reports, leaving a lease to expire)
// while a second worker joins only after the run is underway — death and
// mid-run rejoin on the same fleet, same fingerprint.
func TestDistributedSurvivesWorkerKillAndRejoin(t *testing.T) {
	spec := testSpec()
	wantFP, wantTrace := localRun(t, spec)

	coord, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL:          200 * time.Millisecond,
		Heartbeat:         40 * time.Millisecond,
		RequeueBackoff:    2 * time.Millisecond,
		RequeueBackoffCap: 20 * time.Millisecond,
		MaxLeaseLosses:    1 << 20,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	var wg sync.WaitGroup
	startWorker := func(ctx context.Context, cfg WorkerConfig) {
		cfg.Coordinator = srv.URL
		cfg.Logf = t.Logf
		w, err := NewWorker(cfg)
		if err != nil {
			t.Errorf("worker %s: %v", cfg.ID, err)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}

	// Doomed worker: its context is cancelled mid-flight after 5 reports,
	// so at least one claim it evaluates next is abandoned with a live
	// lease. A slow claimer would pass vacuously, so pin the death later
	// with an assertion on its report count.
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	killer := &killAfterReports{n: 5, cancel: killVictim}
	startWorker(victimCtx, WorkerConfig{
		ID: "w-victim", Concurrency: 2, Poll: 100 * time.Millisecond,
		HTTPClient: &http.Client{Transport: killer},
	})
	startWorker(ctx, WorkerConfig{ID: "w-steady", Concurrency: 1, Poll: 100 * time.Millisecond})
	// Late joiner: first contact is its first claim — rejoin needs no
	// handshake.
	go func() {
		select {
		case <-time.After(50 * time.Millisecond):
			startWorker(ctx, WorkerConfig{ID: "w-late", Concurrency: 2, Poll: 100 * time.Millisecond})
		case <-ctx.Done():
		}
	}()
	defer wg.Wait()
	defer cancel()

	ev, err := coord.Evaluator("job-kill", spec)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	rec := funcytuner.NewTraceRecorder()
	tuner := funcytuner.NewTuner(funcytuner.Options{
		Machine:   mustMachine(t, spec.Machine),
		Samples:   spec.Samples,
		TopX:      spec.TopX,
		Seed:      spec.Seed,
		Faults:    funcytuner.DefaultFaultRates().Scale(spec.FaultRate),
		Workers:   4,
		Evaluator: ev,
		Trace:     rec,
	})
	prog := mustBenchmark(t, spec.Benchmark)
	in := funcytuner.TuningInput(spec.Benchmark, mustMachine(t, spec.Machine))
	rep, err := tuner.TuneContext(ctx, prog, in)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if got := killer.seen.Load(); got < 5 {
		t.Errorf("victim delivered only %d reports; the kill never fired", got)
	}
	if gotFP := rep.Fingerprint(); gotFP != wantFP {
		t.Errorf("kill/rejoin fingerprint %016x != local %016x", gotFP, wantFP)
	}
	if gotTrace := canonicalJSONL(t, rec); !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("kill/rejoin canonical trace differs from local")
	}
}

// fabricatedOutcome is a minimal valid wire outcome for protocol tests.
func fabricatedOutcome(total float64) *Outcome {
	return &Outcome{Total: formatFloat(total), Cost: core.CostSnapshot{Runs: 1, SimMicros: int64(total * 1e6)}}
}

// claimOne leases at most one task: the protocol's claim of a batch of
// one. (nil, nil) means nothing became claimable within wait.
func claimOne(ctx context.Context, c *Coordinator, worker string, wait time.Duration) (*Task, error) {
	ts, err := c.ClaimBatch(ctx, worker, wait, 1)
	if err != nil || len(ts) == 0 {
		return nil, err
	}
	return ts[0], nil
}

// reportOne delivers one outcome as a report batch of one and returns
// its verdict.
func reportOne(c *Coordinator, worker, taskID string, epoch int, out *Outcome, evalErr string) (bool, error) {
	verdicts, _, err := c.ReportBatch(worker, []TaskReport{{Task: taskID, Epoch: epoch, Outcome: out, Error: evalErr}}, 0)
	if err != nil {
		return false, err
	}
	return verdicts[0], nil
}

// baselineRequest is a minimal claim for protocol tests.
func baselineRequest() core.EvalRequest {
	return core.EvalRequest{Phase: "cfr", Sample: 3, CVs: []flagspec.CV{flagspec.ICC().Baseline()}}
}

// TestStaleReportRejectedOnce walks the lease state machine by hand:
// expiry burns the epoch, the late report and heartbeat bounce, the
// re-dispatched claim's report is the only accepted one, and a duplicate
// of the accepted report bounces too.
func TestStaleReportRejectedOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL:          40 * time.Millisecond,
		Heartbeat:         10 * time.Millisecond,
		RequeueBackoff:    time.Millisecond,
		RequeueBackoffCap: 2 * time.Millisecond,
		MaxLeaseLosses:    1000,
		Registry:          reg,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	ev, err := coord.Evaluator("job-x", testSpec())
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	type evalRes struct {
		out core.EvalOutcome
		err error
	}
	resCh := make(chan evalRes, 1)
	go func() {
		out, err := evaluateOne(ctx, ev, baselineRequest())
		resCh <- evalRes{out, err}
	}()

	t1, err := claimOne(ctx, coord, "w1", 5*time.Second)
	if err != nil || t1 == nil {
		t.Fatalf("first claim: task %v err %v", t1, err)
	}
	if t1.Epoch != 1 {
		t.Fatalf("first lease epoch %d, want 1", t1.Epoch)
	}
	// Let the lease expire without heartbeats; the task requeues.
	deadline := time.Now().Add(5 * time.Second)
	for coord.ActiveLeases() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t2, err := claimOne(ctx, coord, "w2", 5*time.Second)
	if err != nil || t2 == nil {
		t.Fatalf("re-claim: task %v err %v", t2, err)
	}
	if t2.ID != t1.ID {
		t.Fatalf("re-claim got task %s, want %s", t2.ID, t1.ID)
	}
	if t2.Epoch != t1.Epoch+1 {
		t.Fatalf("re-claim epoch %d, want %d", t2.Epoch, t1.Epoch+1)
	}

	// The dead worker wakes up: late heartbeat and report both bounce.
	if ok, _ := coord.Heartbeat("w1", t1.ID, t1.Epoch); ok {
		t.Errorf("stale heartbeat accepted")
	}
	if acc, _ := reportOne(coord, "w1", t1.ID, t1.Epoch, fabricatedOutcome(1.5), ""); acc {
		t.Errorf("stale report accepted")
	}
	// The live lease's report is accepted; its duplicate is not.
	if acc, _ := reportOne(coord, "w2", t2.ID, t2.Epoch, fabricatedOutcome(2.5), ""); !acc {
		t.Fatalf("live report rejected")
	}
	if acc, _ := reportOne(coord, "w2", t2.ID, t2.Epoch, fabricatedOutcome(2.5), ""); acc {
		t.Errorf("duplicate report accepted")
	}

	res := <-resCh
	if res.err != nil {
		t.Fatalf("evaluate: %v", res.err)
	}
	if res.out.Total != 2.5 {
		t.Errorf("evaluate got total %v, want the accepted report's 2.5", res.out.Total)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricReportsOK); got != 1 {
		t.Errorf("reports_ok = %d, want 1 (cost applied exactly once)", got)
	}
	if got := snap.Counter(MetricReportsStale); got != 2 {
		t.Errorf("reports_stale = %d, want 2", got)
	}
	if got := snap.Counter(MetricLeasesExpired); got != 1 {
		t.Errorf("leases_expired = %d, want 1", got)
	}
	if got := snap.Counter(MetricRequeues); got != 1 {
		t.Errorf("requeues = %d, want 1", got)
	}
}

// TestWorkerQuarantineAfterLeaseLosses proves the per-worker quarantine:
// after MaxLeaseLosses consecutive expiries the worker's claims answer
// ErrQuarantined and its report batches grant nothing, while healthy
// workers keep claiming.
func TestWorkerQuarantineAfterLeaseLosses(t *testing.T) {
	reg := metrics.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL:          30 * time.Millisecond,
		Heartbeat:         8 * time.Millisecond,
		RequeueBackoff:    time.Millisecond,
		RequeueBackoffCap: 2 * time.Millisecond,
		MaxLeaseLosses:    2,
		Registry:          reg,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	ev, err := coord.Evaluator("job-q", testSpec())
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	evalCtx, evalCancel := context.WithCancel(ctx)
	defer evalCancel()
	go evaluateOne(evalCtx, ev, baselineRequest()) //nolint:errcheck // cancelled at cleanup

	for loss := 0; loss < 2; loss++ {
		task, err := claimOne(ctx, coord, "w-flaky", 5*time.Second)
		if err != nil || task == nil {
			t.Fatalf("loss %d claim: task %v err %v", loss, task, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for coord.ActiveLeases() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("loss %d: lease never expired", loss)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if _, err := claimOne(ctx, coord, "w-flaky", 100*time.Millisecond); err != ErrQuarantined {
		t.Errorf("quarantined worker claim error = %v, want ErrQuarantined", err)
	}
	// Nor does a report batch grant it the task that is waiting.
	waitFor(t, "the task claimable again", func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.queue) == 1 && !coord.queue[0].notBefore.After(time.Now())
	})
	if _, ts, err := coord.ReportBatch("w-flaky", nil, 4); err != nil || len(ts) != 0 {
		t.Errorf("quarantined worker's report batch granted %d tasks (%v), want none", len(ts), err)
	}
	if task, err := claimOne(ctx, coord, "w-healthy", 5*time.Second); err != nil || task == nil {
		t.Errorf("healthy worker blocked after peer quarantine: task %v err %v", task, err)
	}
	if got := reg.Snapshot().Counter(MetricWorkersQuarantined); got != 1 {
		t.Errorf("workers_quarantined = %d, want 1", got)
	}
	if _, q := coord.Workers(); q != 1 {
		t.Errorf("quarantined worker count = %d, want 1", q)
	}
}

// TestHeartbeatKeepsLeaseAlive holds one lease well past several TTLs by
// heartbeating, then reports successfully — no expiry, no requeue.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	reg := metrics.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL:  60 * time.Millisecond,
		Heartbeat: 15 * time.Millisecond,
		Registry:  reg,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	ev, err := coord.Evaluator("job-hb", testSpec())
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := evaluateOne(ctx, ev, baselineRequest())
		done <- err
	}()
	task, err := claimOne(ctx, coord, "w1", 5*time.Second)
	if err != nil || task == nil {
		t.Fatalf("claim: task %v err %v", task, err)
	}
	for end := time.Now().Add(250 * time.Millisecond); time.Now().Before(end); {
		if ok, err := coord.Heartbeat("w1", task.ID, task.Epoch); err != nil || !ok {
			t.Fatalf("heartbeat rejected while lease should be live (ok=%v err=%v)", ok, err)
		}
		time.Sleep(15 * time.Millisecond)
	}
	if acc, _ := reportOne(coord, "w1", task.ID, task.Epoch, fabricatedOutcome(1), ""); !acc {
		t.Fatalf("report rejected after sustained heartbeats")
	}
	if err := <-done; err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricLeasesExpired); got != 0 {
		t.Errorf("leases_expired = %d, want 0", got)
	}
	if got := snap.Counter(MetricRequeues); got != 0 {
		t.Errorf("requeues = %d, want 0", got)
	}
}

func TestCoordinatorClosedAndCancelled(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 50 * time.Millisecond, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ctx := context.Background()
	ev, err := coord.Evaluator("job-c", testSpec())
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	// Cancelled Evaluate withdraws its task.
	cctx, ccancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := evaluateOne(cctx, ev, baselineRequest())
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for coord.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("task never enqueued")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ccancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled evaluate error = %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for coord.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled task never withdrawn")
		}
		time.Sleep(2 * time.Millisecond)
	}

	coord.Close()
	coord.Close() // idempotent
	if _, err := claimOne(ctx, coord, "w1", 10*time.Millisecond); err != ErrClosed {
		t.Errorf("claim on closed coordinator: %v, want ErrClosed", err)
	}
	if _, err := evaluateOne(ctx, ev, baselineRequest()); err != ErrClosed {
		t.Errorf("evaluate on closed coordinator: %v, want ErrClosed", err)
	}
}

func TestCoordinatorConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  CoordinatorConfig
		ok   bool
	}{
		{"zero-defaults", CoordinatorConfig{}, true},
		{"explicit", CoordinatorConfig{LeaseTTL: time.Second, Heartbeat: 100 * time.Millisecond}, true},
		{"heartbeat-equals-ttl", CoordinatorConfig{LeaseTTL: time.Second, Heartbeat: time.Second}, false},
		{"heartbeat-above-ttl", CoordinatorConfig{LeaseTTL: time.Second, Heartbeat: 2 * time.Second}, false},
		{"negative-ttl", CoordinatorConfig{LeaseTTL: -time.Second}, false},
		{"negative-losses", CoordinatorConfig{MaxLeaseLosses: -1}, false},
	}
	for _, tc := range cases {
		c, err := NewCoordinator(tc.cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
		if c != nil {
			c.Close()
		}
	}
}

func TestWireOutcomeRoundTrip(t *testing.T) {
	in := core.EvalOutcome{
		PerModule:   []float64{1.5, math.Inf(1), 0.25},
		Total:       math.Inf(1),
		Cost:        core.CostSnapshot{Compiles: 7, Runs: 2, SimMicros: 123456, Flakes: 1},
		Quarantined: []uint64{0xdeadbeef, 42},
		Events: []trace.Event{
			{Kind: trace.KindCompile, Phase: "cfr", Sample: 3, Modules: 7},
			{Kind: trace.KindEval, Phase: "cfr", Sample: 3, Step: 2, Name: "lost", Seconds: math.Inf(1), Sim: 0.5},
		},
	}
	out, err := encodeOutcome(in).decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !math.IsInf(out.Total, 1) {
		t.Errorf("total %v, want +Inf", out.Total)
	}
	if len(out.PerModule) != 3 || out.PerModule[0] != 1.5 || !math.IsInf(out.PerModule[1], 1) || out.PerModule[2] != 0.25 {
		t.Errorf("per-module %v mangled", out.PerModule)
	}
	if out.Cost != in.Cost {
		t.Errorf("cost %+v != %+v", out.Cost, in.Cost)
	}
	if len(out.Quarantined) != 2 || out.Quarantined[0] != 0xdeadbeef || out.Quarantined[1] != 42 {
		t.Errorf("quarantine keys %v mangled", out.Quarantined)
	}
	if len(out.Events) != 2 || out.Events[1].Name != "lost" || !math.IsInf(out.Events[1].Seconds, 1) {
		t.Errorf("events mangled: %+v", out.Events)
	}

	if _, err := (&Outcome{Total: "bogus"}).decode(); err == nil {
		t.Errorf("bogus total decoded")
	}
	if _, err := (&Outcome{Total: "0x1p0", Quarantined: []string{"zz"}}).decode(); err == nil {
		t.Errorf("bogus quarantine key decoded")
	}
}

func TestWireCVRoundTrip(t *testing.T) {
	space := flagspec.ICC()
	cvs := space.Sample(nil, 0) // empty is fine; use explicit samples below
	_ = cvs
	baseline := space.Baseline()
	alt := baseline.With(0, space.AltValue(0))
	rows := encodeCVs([]flagspec.CV{baseline, alt})
	back, err := decodeCVs(space, rows)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !back[0].Equal(baseline) || !back[1].Equal(alt) {
		t.Errorf("CV round-trip mangled values")
	}
	if back[0].Key() != baseline.Key() || back[1].Key() != alt.Key() {
		t.Errorf("CV round-trip changed fingerprints")
	}
	if _, err := decodeCVs(space, [][]int{{-1}}); err == nil {
		t.Errorf("bad CV row decoded")
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec()
	if err := validateSpec(good); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	for name, mut := range map[string]func(*Spec){
		"no-benchmark": func(s *Spec) { s.Benchmark = "" },
		"no-machine":   func(s *Spec) { s.Machine = "" },
		"no-seed":      func(s *Spec) { s.Seed = "" },
		"neg-samples":  func(s *Spec) { s.Samples = -1 },
		"neg-rate":     func(s *Spec) { s.FaultRate = -1 },
	} {
		s := testSpec()
		mut(&s)
		if err := validateSpec(s); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}
