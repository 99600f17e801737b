package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"funcytuner"
	"funcytuner/internal/core"
	"funcytuner/internal/fleet"
	"funcytuner/internal/metrics"
)

// startFleetWorkers runs n fleet workers against the server's mounted
// /fleet/ routes until stop is called or the test ends.
func startFleetWorkers(t *testing.T, baseURL string, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			ID:          "w-" + string(rune('a'+i)),
			Coordinator: baseURL,
			Concurrency: 2,
			Poll:        200 * time.Millisecond,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck // cancelled at cleanup
		}()
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			wg.Wait()
		})
	}
	t.Cleanup(stop)
	return stop
}

// TestDistributedJobMatchesLocalFingerprint submits the same seeded spec
// twice — once in-process, once dispatched to fleet workers over the
// server's own /fleet/ routes — and demands identical fingerprints.
func TestDistributedJobMatchesLocalFingerprint(t *testing.T) {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		LeaseTTL:  2 * time.Second,
		Heartbeat: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	mgr := newTestManager(t, Config{Fleet: coord})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	startFleetWorkers(t, ts.URL, 2)

	spec := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 20, TopX: 5, Seed: "fleet-vs-local", Workers: 4, FaultRate: 1}
	run := func(distributed bool) Result {
		s := spec
		s.Distributed = distributed
		resp := postJSON(t, ts.URL+"/jobs", s)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit (distributed=%v): got %d, want 202", distributed, resp.StatusCode)
		}
		st := decode[Status](t, resp)
		j, ok := mgr.Get(st.ID)
		if !ok {
			t.Fatalf("job %s not in manager", st.ID)
		}
		waitJob(t, j)
		resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result (distributed=%v): got %d; status %+v", distributed, resp.StatusCode, j.Status())
		}
		return decode[Result](t, resp)
	}
	local := run(false)
	remote := run(true)
	if local.Fingerprint != remote.Fingerprint {
		t.Errorf("distributed fingerprint %s != local %s", remote.Fingerprint, local.Fingerprint)
	}
}

// TestCancelDistributedJobWithdrawsWindow cancels a distributed job
// mid-collect while its window is full: hundreds of its tasks are queued
// or leased at once. Every one of them leaves the coordinator, the
// journal keeps no live task for a restart to resurrect, the job's
// goroutines all end, and the same spec submitted again still matches
// the single-node fingerprint.
func TestCancelDistributedJobWithdrawsWindow(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal")
	reg := metrics.NewRegistry()
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		LeaseTTL:    2 * time.Second,
		Heartbeat:   200 * time.Millisecond,
		JournalPath: journal,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	mgr := newTestManager(t, Config{Fleet: coord})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	idle := http.DefaultTransport.(*http.Transport)
	// goroutines counts what is left once idle keep-alive connections,
	// the workers' and this test's, have closed.
	goroutines := func() int {
		idle.CloseIdleConnections()
		return runtime.NumGoroutine()
	}
	settled := goroutines()

	stop := startFleetWorkers(t, ts.URL, 2)
	spec := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 600, TopX: 30, Seed: "cancel-window", Workers: 2, FaultRate: 1, Distributed: true}
	j, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	window := coord.Window()
	deadline := time.Now().Add(testTimeout)
	for reg.Snapshot().Counter(fleet.MetricReportsOK) < 16 || coord.QueueDepth() < window/2 {
		if time.Now().After(deadline) || j.Status().State != StateRunning {
			t.Fatalf("never saw the collection under way with a full window (state %s, %d queued)", j.Status().State, coord.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	inFlight := coord.QueueDepth() + coord.ActiveLeases()
	if _, err := mgr.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("job ended %s (%s), want %s", st.State, st.Error, StateCancelled)
	}
	if q, l := coord.QueueDepth(), coord.ActiveLeases(); q != 0 || l != 0 {
		t.Errorf("after the cancel the coordinator holds %d queued and %d leased tasks of about %d", q, l, inFlight)
	}

	stop()
	for n := goroutines(); n > settled; n = goroutines() {
		if time.Now().After(deadline) {
			var buf bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("%d goroutines after the cancel, %d before the job:\n%s", n, settled, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A restart over this journal adopts nothing: every withdrawal was
	// journaled before the job ended.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	reopened := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(reopened, data, 0o644); err != nil {
		t.Fatal(err)
	}
	replay, err := fleet.NewCoordinator(fleet.CoordinatorConfig{JournalPath: reopened})
	if err != nil {
		t.Fatal(err)
	}
	if n := replay.RecoveredTasks(); n != 0 {
		t.Errorf("the reopened journal replays %d live tasks, want 0", n)
	}
	replay.Close()

	startFleetWorkers(t, ts.URL, 2)
	fingerprint := func(spec JobSpec) string {
		t.Helper()
		j, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		res, err := j.Result()
		if err != nil {
			t.Fatalf("distributed=%v: %v (status %+v)", spec.Distributed, err, j.Status())
		}
		return res.Fingerprint
	}
	remote := fingerprint(spec)
	spec.Distributed = false
	if local := fingerprint(spec); remote != local {
		t.Errorf("resubmitted distributed fingerprint %s != local %s", remote, local)
	}
}

// TestDistributedJobRequiresFleet rejects distributed submissions when
// no coordinator is configured.
func TestDistributedJobRequiresFleet(t *testing.T) {
	mgr := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/jobs", JobSpec{Benchmark: "CL", Machine: "broadwell", Distributed: true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("got %d, want 400", resp.StatusCode)
	}
}

// TestHealthzReportsState covers the probe payload: job counts, the
// fleet section when a coordinator is mounted, and 503 once draining.
func TestHealthzReportsState(t *testing.T) {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	mgr := newTestManager(t, Config{Fleet: coord})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: got %d, want 200", resp.StatusCode)
	}
	h := decode[healthView](t, resp)
	if h.Status != "ok" || h.Draining || h.Jobs != 0 || h.Running != 0 {
		t.Fatalf("healthz = %+v", h)
	}
	if h.Fleet == nil {
		t.Fatal("healthz missing fleet section with a coordinator configured")
	}
	if h.Fleet.ActiveLeases != 0 || h.Fleet.Workers != 0 {
		t.Fatalf("fleet health = %+v", h.Fleet)
	}

	// A worker's first claim registers it; the probe sees the fleet grow.
	if _, err := coord.ClaimBatch(context.Background(), "probe-worker", 0, 1); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = decode[healthView](t, resp)
	if h.Fleet.Workers != 1 {
		t.Fatalf("fleet workers = %d, want 1", h.Fleet.Workers)
	}

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: got %d, want 503", resp.StatusCode)
	}
	h = decode[healthView](t, resp)
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("draining healthz = %+v", h)
	}
}

// TestReattachRecoveredFleetJob is the daemon-level restart story: a
// distributed job is mid-flight when the coordinator process dies; a new
// manager over the same Dir, built over a coordinator recovered from the
// same journal, re-attaches the job automatically as a resume of its
// checkpoint, the resumed run enqueues only what that checkpoint did not
// hold, and its fingerprint matches a local run of the same spec. The
// probe endpoint reports the recovery.
//
// The re-attached job must be the journaled run as it was submitted: an
// adaptive job comes back adaptive, and a job that left Technique empty
// stays CFR even when the restarted daemon defaults jobs to another
// technique. That row's local reference spells "cfr" out, because a
// local run on the defaulted manager would turn into GA as well. A job
// whose checkpoint is gone starts fresh, and its progress says why.
func TestReattachRecoveredFleetJob(t *testing.T) {
	base := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 20, TopX: 5, Seed: "reattach", Workers: 4, FaultRate: 1, Distributed: true, CheckpointEvery: 4}
	adaptive := base
	adaptive.Adaptive = true
	spelledCFR := base
	spelledCFR.Technique = "cfr"
	for _, tc := range []struct {
		name string
		spec JobSpec
		// local is the spec of the in-process reference run.
		local JobSpec
		// defaultTechnique configures the restarted daemon.
		defaultTechnique string
		// lose removes the killed job's checkpoint before the restart.
		lose bool
	}{
		{name: "plain", spec: base, local: base},
		{name: "adaptive", spec: adaptive, local: adaptive},
		{name: "empty-technique-under-daemon-default", spec: base, local: spelledCFR, defaultTechnique: "ga"},
		{name: "checkpoint-lost", spec: base, local: base, lose: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testReattach(t, tc.spec, tc.local, tc.defaultTechnique, tc.lose)
		})
	}
}

func testReattach(t *testing.T, spec, local JobSpec, defaultTechnique string, lose bool) {
	dir := t.TempDir()
	journal := filepath.Join(t.TempDir(), "journal")
	ccfg := fleet.CoordinatorConfig{
		LeaseTTL:    2 * time.Second,
		Heartbeat:   200 * time.Millisecond,
		JournalPath: journal,
	}

	// Daemon incarnation 1: run distributed, die mid-flight once the
	// job's checkpoint holds some of its evaluations.
	coord1, err := fleet.NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := newTestManager(t, Config{Dir: dir, Fleet: coord1})
	ts1 := httptest.NewServer(NewServer(mgr1))
	defer ts1.Close()
	startFleetWorkers(t, ts1.URL, 2)
	resp := postJSON(t, ts1.URL+"/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", resp.StatusCode)
	}
	st := decode[Status](t, resp)
	j1, ok := mgr1.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not in manager", st.ID)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		ck, err := funcytuner.LoadCheckpoint(st.Checkpoint)
		js := coord1.JournalState()
		if err == nil && len(ck.Done) > 0 && js != nil && js.Records >= 15 && (coord1.ActiveLeases() > 0 || coord1.QueueDepth() > 0) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal and checkpoint never accumulated in-flight work to crash on")
		}
		time.Sleep(2 * time.Millisecond)
	}
	coord1.Kill()
	waitJob(t, j1)
	if got := j1.Status().State; got != StateFailed {
		t.Fatalf("job state after coordinator death = %q, want %q", got, StateFailed)
	}
	ck, err := funcytuner.LoadCheckpoint(st.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	held := int64(len(ck.Done))
	if held == 0 {
		t.Fatal("the killed job's checkpoint holds no evaluation")
	}
	if lose {
		if err := os.Remove(st.Checkpoint); err != nil {
			t.Fatal(err)
		}
		held = 0
	}

	// Daemon incarnation 2: recover from the journal, re-attach, finish.
	reg := metrics.NewRegistry()
	ccfg.Registry = reg
	coord2, err := fleet.NewCoordinator(ccfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer coord2.Close()
	mgr2 := newTestManager(t, Config{Dir: dir, Fleet: coord2, DefaultTechnique: defaultTechnique})
	reattached, err := mgr2.ReattachFleetJobs()
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if len(reattached) != 1 {
		t.Fatalf("re-attached %d jobs, want 1", len(reattached))
	}
	rj := reattached[0]
	if got, want := outcomeFields(rj.Status().Spec), outcomeFields(spec); got != want {
		t.Errorf("re-attached spec %+v, want the submitted %+v", got, want)
	}
	wantResume, wantLine := j1.ID, "resuming its checkpoint"
	if lose {
		wantResume, wantLine = "", "starting fresh: server: unknown job"
	}
	if got := rj.Status().Spec.Resume; got != wantResume {
		t.Errorf("re-attached job resumes %q, want %q", got, wantResume)
	}
	if lines := rj.progress.Lines(); len(lines) == 0 || !strings.Contains(lines[0], wantLine) {
		t.Errorf("re-attached job's progress %q does not say %q", lines, wantLine)
	}
	ts2 := httptest.NewServer(NewServer(mgr2))
	defer ts2.Close()
	startFleetWorkers(t, ts2.URL, 2)
	waitJob(t, rj)
	res, err := rj.Result()
	if err != nil {
		t.Fatalf("re-attached job result: %v (status %+v)", err, rj.Status())
	}
	enqueued := reg.Snapshot().Counter(fleet.MetricTasksEnqueued)

	// The probe shows what recovery did.
	hresp, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[healthView](t, hresp)
	if h.Fleet == nil || h.Fleet.Journal == nil {
		t.Fatalf("healthz missing journal section: %+v", h.Fleet)
	}
	if h.Fleet.RecoveredTasks < 1 {
		t.Errorf("healthz recovered_tasks = %d, want >= 1", h.Fleet.RecoveredTasks)
	}
	if h.Fleet.Journal.Path != journal || h.Fleet.Journal.Records < 15 {
		t.Errorf("healthz journal = %+v", h.Fleet.Journal)
	}

	// Byte-identical to a local run of the same spec, and the restarted
	// coordinator enqueued no evaluation the checkpoint held.
	local.Distributed = false
	lresp := postJSON(t, ts2.URL+"/jobs", local)
	if lresp.StatusCode != http.StatusAccepted {
		t.Fatalf("local submit: got %d, want 202", lresp.StatusCode)
	}
	lst := decode[Status](t, lresp)
	lj, _ := mgr2.Get(lst.ID)
	waitJob(t, lj)
	lres, err := lj.Result()
	if err != nil {
		t.Fatalf("local result: %v", err)
	}
	if res.Fingerprint != lres.Fingerprint {
		t.Errorf("re-attached fingerprint %s (%s) != local %s (%s)", res.Fingerprint, res.Algorithm, lres.Fingerprint, lres.Algorithm)
	}
	evals := lres.Metrics.Counter(core.MetricEvals)
	t.Logf("the checkpoint held %d of %d evaluations; the restarted coordinator enqueued %d and recovered %d", held, evals, enqueued, h.Fleet.RecoveredTasks)
	if enqueued > evals-held {
		t.Errorf("restarted coordinator enqueued %d tasks; the uninterrupted run makes %d evaluations and the checkpoint held %d", enqueued, evals, held)
	}
}

// outcomeFields keeps the JobSpec fields that decide a run's outcome.
func outcomeFields(s JobSpec) JobSpec {
	return JobSpec{
		Benchmark: s.Benchmark, Machine: s.Machine, Samples: s.Samples, TopX: s.TopX,
		Seed: s.Seed, FaultRate: s.FaultRate, Technique: s.Technique,
		Adaptive: s.Adaptive, Compare: s.Compare, WarmStart: s.WarmStart,
	}
}
