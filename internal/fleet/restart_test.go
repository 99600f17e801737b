package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcytuner"
	"funcytuner/internal/core"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
)

// swapServer keeps one stable URL serving whatever handler is currently
// installed, so workers ride out a coordinator death and restart exactly
// the way they would a real process being SIGKILLed and relaunched on
// the same address.
type swapServer struct {
	srv *httptest.Server
	cur atomic.Pointer[http.Handler]
}

func newSwapServer(t *testing.T) *swapServer {
	t.Helper()
	s := &swapServer{}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*s.cur.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *swapServer) set(h http.Handler) { s.cur.Store(&h) }

// armKill installs a kill hook on coord that fires the nth time the
// named point is hit, and reports whether it actually fired.
func armKill(coord *Coordinator, point string, n int) *atomic.Bool {
	fired := &atomic.Bool{}
	var hits atomic.Int64
	coord.killHook = func(p string) bool {
		if p != point || fired.Load() {
			return false
		}
		if hits.Add(1) == int64(n) {
			fired.Store(true)
			return true
		}
		return false
	}
	return fired
}

// tuneOnce runs one tuning attempt against ev and returns the
// fingerprint + canonical trace, or the run's error (a kill mid-run
// surfaces as ErrUnavailable through the evaluator).
func tuneOnce(ctx context.Context, t *testing.T, spec Spec, ev core.RemoteEvaluator) (uint64, []byte, error) {
	t.Helper()
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
		return 0, nil, err
	}
	return rep.Fingerprint(), canonicalJSONL(t, rec), nil
}

// TestCoordinatorChaosMatrix is the tentpole proof, point by point: the
// coordinator is killed at every journaled transition — mid-enqueue,
// lease granted, heartbeat renewed, report accepted, requeue pending,
// worker quarantined — then restarted from the same journal while the
// workers ride out the gap, and a fresh run against the recovered state
// must produce a fingerprint and canonical trace byte-identical to an
// uninterrupted single-node run. The write-ahead discipline (journal
// before state visible) is exactly what makes each row pass.
func TestCoordinatorChaosMatrix(t *testing.T) {
	spec := testSpec()
	wantFP, wantTrace := localRun(t, spec)

	// probeHold claims one task as "probe" and sits on it silently; its
	// lease expiry drives the requeue/quarantine sweep kill points.
	probeHold := func(ctx context.Context, coord *Coordinator) {
		for ctx.Err() == nil {
			task, err := claimOne(ctx, coord, "probe", 2*time.Second)
			if err != nil {
				return
			}
			if task != nil {
				return // hold the lease; the expiry sweep does the rest
			}
		}
	}
	// probeHeartbeat claims one task and immediately heartbeats it —
	// the only reliable way to drive the heartbeat-renewed journal
	// record, since healthy workers report faster than they heartbeat.
	probeHeartbeat := func(ctx context.Context, coord *Coordinator) {
		for ctx.Err() == nil {
			task, err := claimOne(ctx, coord, "probe", 2*time.Second)
			if err != nil {
				return
			}
			if task == nil {
				continue
			}
			for ctx.Err() == nil {
				if _, err := coord.Heartbeat("probe", task.ID, task.Epoch); err != nil {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			return
		}
	}

	cases := []struct {
		name  string
		point string
		hit   int // fire on the nth hit, letting earlier ones commit
		tweak func(*CoordinatorConfig)
		probe func(context.Context, *Coordinator)
	}{
		{name: "mid-enqueue", point: killMidEnqueue, hit: 10},
		{name: "lease-granted", point: killLeaseGranted, hit: 8},
		{name: "report-accepted", point: killReportAccepted, hit: 5},
		{name: "heartbeat-renewed", point: killHeartbeatRenewed, hit: 1, probe: probeHeartbeat},
		{name: "requeue-pending", point: killRequeuePending, hit: 1, probe: probeHold},
		{name: "worker-quarantined", point: killWorkerQuarantined, hit: 1, probe: probeHold,
			// One loss quarantines, so the probe's expiry journals the
			// quarantine record; generous TTL + heartbeats keep the
			// healthy workers clear of the same trapdoor.
			tweak: func(c *CoordinatorConfig) {
				c.MaxLeaseLosses = 1
				c.LeaseTTL = 500 * time.Millisecond
				c.Heartbeat = 50 * time.Millisecond
			}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := CoordinatorConfig{
				LeaseTTL:          150 * time.Millisecond,
				Heartbeat:         30 * time.Millisecond,
				RequeueBackoff:    2 * time.Millisecond,
				RequeueBackoffCap: 20 * time.Millisecond,
				MaxLeaseLosses:    1 << 20,
				JournalPath:       filepath.Join(t.TempDir(), "journal"),
			}
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			coord, err := NewCoordinator(cfg)
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			fired := armKill(coord, tc.point, tc.hit)
			ss := newSwapServer(t)
			ss.set(coord.Handler())

			ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
			defer cancel()
			var wg sync.WaitGroup
			for _, id := range []string{"w1", "w2"} {
				wc := WorkerConfig{
					ID: id, Concurrency: 2, Poll: 100 * time.Millisecond,
					Coordinator: ss.srv.URL, Logf: t.Logf,
				}
				w, err := NewWorker(wc)
				if err != nil {
					t.Fatalf("worker %s: %v", id, err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := w.Run(ctx); err != nil && ctx.Err() == nil {
						t.Logf("worker %s exited: %v", id, err)
					}
				}()
			}
			defer wg.Wait()
			defer cancel()
			if tc.probe != nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tc.probe(ctx, coord)
				}()
			}

			// Run 1: must die at the armed point.
			ev, err := coord.Evaluator("job-1", spec)
			if err != nil {
				t.Fatalf("evaluator: %v", err)
			}
			if _, _, err := tuneOnce(ctx, t, spec, ev); err == nil {
				t.Fatalf("run survived a coordinator kill at %s", tc.point)
			}
			if !fired.Load() {
				t.Fatalf("kill point %s never fired", tc.point)
			}
			coord.Kill() // idempotent; joins the reaper

			// Restart from the journal; the workers never stopped.
			coord2, err := NewCoordinator(cfg)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer coord2.Close()
			ss.set(coord2.Handler())

			ev2, err := coord2.Evaluator("job-retry", spec)
			if err != nil {
				t.Fatalf("evaluator 2: %v", err)
			}
			gotFP, gotTrace, err := tuneOnce(ctx, t, spec, ev2)
			if err != nil {
				t.Fatalf("post-restart run: %v", err)
			}
			if gotFP != wantFP {
				t.Errorf("post-restart fingerprint %016x != local %016x", gotFP, wantFP)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Errorf("post-restart canonical trace differs from local")
			}
			if tc.point == killWorkerQuarantined {
				// The quarantine crossed the restart with the journal.
				if _, err := coord2.ClaimBatch(ctx, "probe", 0, 1); !errors.Is(err, ErrQuarantined) {
					t.Errorf("probe claim after restart: err=%v, want ErrQuarantined", err)
				}
			}
		})
	}
}

// TestCoordinatorFaultChaosLoop turns the dial the other way: instead of
// one surgical kill, the coordinator's own fault model (seeded, like the
// worker faults) murders it probabilistically at journal appends —
// before the sync, after the append, mid-record — and the harness just
// keeps restarting it from the same journal until a run completes. The
// completed run must still match single-node byte-for-byte. Convergence
// is structural: every restart serves more evaluations straight from the
// journal buffer, so each attempt needs fewer live appends (fewer fault
// draws) than the last.
func TestCoordinatorFaultChaosLoop(t *testing.T) {
	spec := testSpec()
	wantFP, wantTrace := localRun(t, spec)
	cfg := CoordinatorConfig{
		LeaseTTL:          200 * time.Millisecond,
		Heartbeat:         40 * time.Millisecond,
		RequeueBackoff:    2 * time.Millisecond,
		RequeueBackoffCap: 20 * time.Millisecond,
		MaxLeaseLosses:    1 << 20,
		JournalPath:       filepath.Join(t.TempDir(), "journal"),
		Faults:            faults.DefaultCoordRates().Scale(3),
	}
	ss := newSwapServer(t)
	placeholder := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	ss.set(placeholder)

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		wc := WorkerConfig{
			ID: id, Concurrency: 2, Poll: 100 * time.Millisecond,
			Coordinator: ss.srv.URL, Logf: t.Logf,
			ReconnectAttempts: 1 << 20, // outlives any number of restarts
		}
		w, err := NewWorker(wc)
		if err != nil {
			t.Fatalf("worker %s: %v", id, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Logf("worker %s exited: %v", id, err)
			}
		}()
	}
	defer wg.Wait()
	defer cancel()

	const maxRestarts = 120
	deaths := 0
	for attempt := 0; attempt < maxRestarts; attempt++ {
		// Seed per incarnation: fault draws are keyed by journal position,
		// and a die-before-sync death does not advance the journal — one
		// shared seed would re-draw the identical death at the identical
		// position on every restart, a livelock no real crash-restart has
		// (a relaunched process never replays its predecessor's entropy).
		cfg.FaultSeed = fmt.Sprintf("chaos-loop/%d", attempt)
		coord, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatalf("restart %d: %v", attempt, err)
		}
		ss.set(coord.Handler())
		ev, err := coord.Evaluator(fmt.Sprintf("job-%d", attempt), spec)
		if err != nil {
			t.Fatalf("evaluator %d: %v", attempt, err)
		}
		gotFP, gotTrace, err := tuneOnce(ctx, t, spec, ev)
		if err != nil {
			deaths++
			ss.set(placeholder)
			coord.Kill()
			if data, rerr := os.ReadFile(cfg.JournalPath); rerr == nil {
				st, _ := replayJournal(data)
				t.Logf("death %d: journal seq=%d live=%d completed=%d", deaths, st.seq, len(st.tasks), len(st.buffer))
			}
			continue
		}
		t.Logf("converged after %d fault-injected coordinator deaths", deaths)
		if deaths == 0 {
			t.Error("fault model never killed the coordinator; the loop proved nothing")
		}
		if gotFP != wantFP {
			t.Errorf("chaos-loop fingerprint %016x != local %016x", gotFP, wantFP)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("chaos-loop canonical trace differs from local")
		}
		coord.Close()
		return
	}
	t.Fatalf("no attempt completed within %d coordinator restarts", maxRestarts)
}

// TestWorkerReconnectGiveUp: a coordinator that is permanently gone must
// not pin the worker forever — the bounded retry budget ends Run with a
// descriptive error, and the outage is logged exactly once rather than
// once per retry.
func TestWorkerReconnectGiveUp(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // connection refused from the first claim on

	var mu sync.Mutex
	var lines []string
	w, err := NewWorker(WorkerConfig{
		ID: "w1", Coordinator: url,
		Poll:              20 * time.Millisecond,
		ReconnectAttempts: 3,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	err = w.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "unreachable after 3 attempts") {
		t.Fatalf("Run = %v, want unreachable-after-3-attempts error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, l := range lines {
		if strings.Contains(l, "coordinator unavailable, retrying") {
			n++
		}
	}
	if n != 1 {
		t.Errorf("outage logged %d times, want exactly once:\n%s", n, strings.Join(lines, "\n"))
	}
}

// TestWorkerReconnectReusedJobID: a worker outlives a coordinator
// restart, and the restarted daemon numbers its jobs from the start
// again, so a new run arrives under a job ID the worker has already
// evaluated a different run for. The worker must evaluate the new run's
// claim as that run, not as the old one nor reject it.
func TestWorkerReconnectReusedJobID(t *testing.T) {
	ss := newSwapServer(t)
	ccfg := CoordinatorConfig{LeaseTTL: 2 * time.Second, Heartbeat: 100 * time.Millisecond}
	coord1, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ss.set(coord1.Handler())
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	w, err := NewWorker(WorkerConfig{
		ID: "w1", Coordinator: ss.srv.URL, Poll: 50 * time.Millisecond,
		ReconnectAttempts: 1 << 20, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx) //nolint:errcheck // cancelled at cleanup
	}()
	defer wg.Wait()
	defer cancel()

	// A collect claim carries one CV whatever the module count.
	req := core.EvalRequest{Phase: "collect", Sample: 3, CVs: []flagspec.CV{flagspec.ICC().Baseline()}}
	specA := testSpec()
	evA, err := coord1.Evaluator("job-0002", specA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evA.Evaluate(ctx, req); err != nil {
		t.Fatalf("spec A: %v", err)
	}
	coord1.Kill()

	coord2, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	ss.set(coord2.Handler())
	specB := specA
	specB.Seed = "fleet-test-restarted"
	evB, err := coord2.Evaluator("job-0002", specB)
	if err != nil {
		t.Fatal(err)
	}
	got, err := evB.Evaluate(ctx, req)
	if err != nil {
		t.Fatalf("spec B under a reused job ID: %v", err)
	}
	svc, err := funcytuner.NewTuner(funcytuner.Options{
		Machine: mustMachine(t, specB.Machine), Samples: specB.Samples, TopX: specB.TopX,
		Seed: specB.Seed, Faults: funcytuner.DefaultFaultRates().Scale(specB.FaultRate),
	}).EvalService(mustBenchmark(t, specB.Benchmark), funcytuner.TuningInput(specB.Benchmark, mustMachine(t, specB.Machine)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != want.Total {
		t.Errorf("claim evaluated as the wrong run: total %v, want spec B's %v", got.Total, want.Total)
	}
}

// TestReconnectDelay pins the backoff shape: poll/8 floored at 10ms,
// doubling per consecutive failure, capped at the poll bound.
func TestReconnectDelay(t *testing.T) {
	cases := []struct {
		poll     time.Duration
		failures int
		want     time.Duration
	}{
		{2 * time.Second, 1, 250 * time.Millisecond},
		{2 * time.Second, 2, 500 * time.Millisecond},
		{2 * time.Second, 4, 2 * time.Second},
		{2 * time.Second, 50, 2 * time.Second},
		{40 * time.Millisecond, 1, 10 * time.Millisecond},
		{40 * time.Millisecond, 2, 20 * time.Millisecond},
		{40 * time.Millisecond, 3, 40 * time.Millisecond},
		{40 * time.Millisecond, 9, 40 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := reconnectDelay(tc.poll, tc.failures); got != tc.want {
			t.Errorf("reconnectDelay(%v, %d) = %v, want %v", tc.poll, tc.failures, got, tc.want)
		}
	}
}

// TestQuarantineExpirySweep drives the already-quarantined branch of the
// expiry sweep: with MaxLeaseLosses=1, a worker losing two leases in the
// same sweep is quarantined by the first loss while the second must not
// double-count — and the verdict survives a kill + journal restart.
func TestQuarantineExpirySweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	cfg := CoordinatorConfig{
		LeaseTTL:          40 * time.Millisecond,
		Heartbeat:         10 * time.Millisecond,
		RequeueBackoff:    time.Millisecond,
		RequeueBackoffCap: 5 * time.Millisecond,
		MaxLeaseLosses:    1,
		JournalPath:       path,
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ev, err := coord.Evaluator("job-1", testSpec())
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	_ = evaluateAsync(ctx, ev, baselineRequest())
	_ = evaluateAsync(ctx, ev, secondRequest())
	for coord.QueueDepth() < 2 {
		time.Sleep(time.Millisecond)
	}
	ts, err := coord.ClaimBatch(ctx, "w1", time.Second, 2)
	if err != nil || len(ts) != 2 {
		t.Fatalf("claim batch: %d tasks, err %v", len(ts), err)
	}
	// Go silent; both leases expire in one sweep.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, q := coord.Workers(); q == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never quarantined")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := coord.ClaimBatch(ctx, "w1", 0, 1); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined claim: err=%v, want ErrQuarantined", err)
	}
	coord.Kill()

	coord2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer coord2.Close()
	if _, q := coord2.Workers(); q != 1 {
		t.Errorf("quarantine lost across restart (quarantined=%d)", q)
	}
	if _, err := coord2.ClaimBatch(ctx, "w1", 0, 1); !errors.Is(err, ErrQuarantined) {
		t.Errorf("post-restart quarantined claim: err=%v, want ErrQuarantined", err)
	}
	// The hostage tasks came back claimable — by someone else.
	ts2, err := coord2.ClaimBatch(ctx, "w2", 5*time.Second, 2)
	if err != nil || len(ts2) != 2 {
		t.Fatalf("fresh worker claim after restart: %d tasks, err %v", len(ts2), err)
	}
	for _, task := range ts2 {
		if task.Epoch < 2 {
			t.Errorf("re-granted task %s at epoch %d, want >= 2 (loss + recovery fence)", task.ID, task.Epoch)
		}
	}
}

// TestHTTPProtocolSurface walks the wire protocol's status mapping end
// to end through the real handler and the worker's client: grants, stale
// verdicts, a killed coordinator (502 → ErrUnavailable, the "retry"
// signal), a closed one (503 → ErrClosed, the "exit" signal), and the
// retired single-task verbs (404: a single claim is a batch of one).
func TestHTTPProtocolSurface(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	coord, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL: time.Minute, Heartbeat: time.Second, JournalPath: path,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	cl := newClient(srv.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	for _, verb := range []string{"/fleet/claim", "/fleet/report"} {
		code, err := cl.post(ctx, verb, []byte(`{"worker":"w1"}`), nil)
		if err != nil || code != http.StatusNotFound {
			t.Errorf("POST %s = %d, %v; want 404 (retired single-task verb)", verb, code, err)
		}
	}

	// Empty queue: claim long-poll drains to 204 → (nil, nil).
	if ts, _, err := cl.claimBatch(ctx, "w1", 0, 1); err != nil || ts != nil {
		t.Fatalf("claim on empty queue = %v, %v; want nil, nil", ts, err)
	}

	ev, err := coord.Evaluator("job-1", testSpec())
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	done := evaluateAsync(ctx, ev, baselineRequest())
	var task *Task
	for task == nil {
		ts, _, err := cl.claimBatch(ctx, "w1", time.Second, 1)
		if err != nil {
			t.Fatalf("claim: %v", err)
		}
		if len(ts) > 0 {
			task = ts[0]
		}
	}
	if ok, err := cl.heartbeat(ctx, "w1", task.ID, task.Epoch); err != nil || !ok {
		t.Errorf("live heartbeat = %v, %v; want true, nil", ok, err)
	}
	if ok, err := cl.heartbeat(ctx, "w1", task.ID, task.Epoch+1); err != nil || ok {
		t.Errorf("stale-epoch heartbeat = %v, %v; want false, nil (409)", ok, err)
	}
	report := func(epoch int) ([]bool, error) {
		return cl.reportBatch(ctx, "w1", []TaskReport{{Task: task.ID, Epoch: epoch, Outcome: fabricatedOutcome(1)}})
	}
	if verdicts, err := report(task.Epoch + 1); err != nil || len(verdicts) != 1 || verdicts[0] {
		t.Errorf("stale-epoch report = %v, %v; want [false], nil", verdicts, err)
	}
	if verdicts, err := report(task.Epoch); err != nil || len(verdicts) != 1 || !verdicts[0] {
		t.Fatalf("report = %v, %v; want [true], nil", verdicts, err)
	}
	if res := <-done; res.err != nil {
		t.Fatalf("evaluate: %v", res.err)
	}
	// A duplicate of the accepted report is stale.
	if verdicts, err := report(task.Epoch); err != nil || len(verdicts) != 1 || verdicts[0] {
		t.Errorf("duplicate report = %v, %v; want [false], nil", verdicts, err)
	}

	// Killed coordinator: every verb maps to 502 → ErrUnavailable.
	coord.Kill()
	for _, n := range []int{1, 2} {
		if _, _, err := cl.claimBatch(ctx, "w1", 0, n); !errors.Is(err, ErrUnavailable) {
			t.Errorf("claim of %d after kill: %v, want ErrUnavailable", n, err)
		}
	}
	if _, err := cl.heartbeat(ctx, "w1", task.ID, task.Epoch); !errors.Is(err, ErrUnavailable) {
		t.Errorf("heartbeat after kill: %v, want ErrUnavailable", err)
	}
	if _, err := report(task.Epoch); !errors.Is(err, ErrUnavailable) {
		t.Errorf("report after kill: %v, want ErrUnavailable", err)
	}
	if _, err := cl.reportBatch(ctx, "w1", []TaskReport{{Task: task.ID, Epoch: task.Epoch}}); !errors.Is(err, ErrUnavailable) {
		t.Errorf("outcome-less report after kill: %v, want ErrUnavailable", err)
	}

	// Closed coordinator: claims map to 503 → ErrClosed.
	coord2, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Heartbeat: time.Second})
	if err != nil {
		t.Fatalf("coordinator 2: %v", err)
	}
	srv2 := httptest.NewServer(coord2.Handler())
	defer srv2.Close()
	coord2.Close()
	cl2 := newClient(srv2.URL, nil)
	for _, n := range []int{1, 2} {
		if _, _, err := cl2.claimBatch(ctx, "w1", 0, n); !errors.Is(err, ErrClosed) {
			t.Errorf("claim of %d after close: %v, want ErrClosed", n, err)
		}
	}
}

// TestWorkerConfigValidate pins every rejection the worker config makes.
func TestWorkerConfigValidate(t *testing.T) {
	base := WorkerConfig{ID: "w1", Coordinator: "http://localhost:1"}
	cases := []struct {
		name  string
		mut   func(*WorkerConfig)
		wants string
	}{
		{"missing id", func(c *WorkerConfig) { c.ID = "" }, "worker ID is required"},
		{"missing coordinator", func(c *WorkerConfig) { c.Coordinator = "" }, "coordinator URL is required"},
		{"negative concurrency", func(c *WorkerConfig) { c.Concurrency = -1 }, "concurrency"},
		{"negative claim batch", func(c *WorkerConfig) { c.ClaimBatch = -2 }, "claim batch"},
		{"negative poll", func(c *WorkerConfig) { c.Poll = -time.Second }, "poll interval"},
		{"negative reconnect attempts", func(c *WorkerConfig) { c.ReconnectAttempts = -3 }, "reconnect attempts"},
		{"bad fault rate", func(c *WorkerConfig) { c.Faults.DieMidEval = 2 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			_, err := NewWorker(cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if tc.wants != "" && !strings.Contains(err.Error(), tc.wants) {
				t.Errorf("error %q does not mention %q", err, tc.wants)
			}
		})
	}
	if _, err := NewWorker(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
