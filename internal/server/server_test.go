package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

const testTimeout = 30 * time.Second

// waitJob blocks until the job reaches a terminal state.
func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(testTimeout):
		t.Fatalf("job %s did not finish within %v", j.ID, testTimeout)
	}
}

func newTestManager(t *testing.T, gate Config) *Manager {
	t.Helper()
	cfg := gate
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestJobLifecycle drives the whole HTTP surface: submit, status, list,
// result, progress, trace and metrics for a small job that runs to
// completion.
func TestJobLifecycle(t *testing.T) {
	mgr := newTestManager(t, Config{Gate: NewGate(4)})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	spec := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 20, TopX: 5, Seed: "lifecycle", Workers: 2}
	resp := postJSON(t, ts.URL+"/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", resp.StatusCode)
	}
	st := decode[Status](t, resp)
	if st.ID == "" || st.State != StateRunning {
		t.Fatalf("submit status = %+v", st)
	}

	j, ok := mgr.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not in manager", st.ID)
	}
	waitJob(t, j)

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	st = decode[Status](t, resp)
	if st.State != StateDone {
		t.Fatalf("state = %q (err %q), want done", st.State, st.Error)
	}
	if !st.Resumable {
		t.Fatal("finished job should have a checkpoint on disk")
	}

	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	res := decode[Result](t, resp)
	if res.Algorithm != "CFR" || res.Speedup <= 0 || len(res.Fingerprint) != 16 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Speedups) == 0 || res.Evaluations <= 0 {
		t.Fatalf("result missing speedups/evaluations: %+v", res)
	}

	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prog), "done") {
		t.Fatalf("progress stream missing final line: %q", prog)
	}

	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(bytes.Split(bytes.TrimSpace(tr), []byte("\n"))) < 10 {
		t.Fatalf("trace stream suspiciously short: %d bytes", len(tr))
	}

	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]Status](t, resp)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mv := decode[metricsView](t, resp)
	if mv.Server.Counters[MetricJobsDone] != 1 || mv.Server.Counters[MetricJobsSubmitted] != 1 {
		t.Fatalf("metrics = %+v", mv.Server.Counters)
	}
	if mv.Gate == nil || mv.Gate.Slots != 4 || mv.Gate.HighWater < 1 {
		t.Fatalf("gate view = %+v", mv.Gate)
	}
}

// TestJobSpecJSONPinned pins the wire form of a fully populated JobSpec:
// clients and the benchmark harness submit it, and Status echoes it.
func TestJobSpecJSONPinned(t *testing.T) {
	spec := JobSpec{
		Benchmark: "CL", Machine: "broadwell", Samples: 60, TopX: 50, Seed: "pin",
		Workers: 2, FaultRate: 0.5, Distributed: true, Adaptive: true, Compare: true,
		Technique: "bo", WarmStart: true, CheckpointEvery: 5, Resume: "job-0001",
	}
	got, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"benchmark":"CL","machine":"broadwell","samples":60,"topx":50,"seed":"pin","workers":2,"fault_rate":0.5,"distributed":true,"adaptive":true,"compare":true,"technique":"bo","warm_start":true,"checkpoint_every":5,"resume":"job-0001"}`
	if string(got) != want {
		t.Errorf("JobSpec JSON changed:\n got %s\nwant %s", got, want)
	}
}

// TestResultJSONPinned pins the bytes GET /jobs/{id}/result serves for
// a finished job: a small single-worker CL/broadwell job renders the
// same Result JSON, cache and metric counters included, on every run
// and whichever way the job keeps its outcome.
func TestResultJSONPinned(t *testing.T) {
	mgr := newTestManager(t, Config{})
	j, err := mgr.Submit(JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 20, TopX: 5, Seed: "pin", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	const want = "97fea4847a598fa71e417866184ae797ead4a919df84938cd24e428acb33077d"
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != want {
		t.Errorf("Result JSON changed: sha256 %s, want %s (%d bytes):\n%s", sum, want, len(got), got)
	}
}

// TestFinishedJobHeapBounded bounds what a finished job keeps alive: a
// long-running daemon must not hold each job's session (toolchain,
// private compile cache, collection) once the job is done. Paper-scale
// jobs run one at a time after a warm-up; the live heap may grow by at
// most 2 MB per finished job, which leaves room for the job's trace and
// rendered result but not for its session.
func TestFinishedJobHeapBounded(t *testing.T) {
	mgr := newTestManager(t, Config{Gate: NewGate(2)})
	run := func(seed string) {
		t.Helper()
		j, err := mgr.Submit(JobSpec{Benchmark: "CL", Machine: "broadwell", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job %s: state %q (err %q)", j.ID, st.State, st.Error)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run("heap-warmup")
	before := liveHeap()
	const jobs = 6
	for i := 0; i < jobs; i++ {
		run(fmt.Sprintf("heap-%d", i))
	}
	after := liveHeap()
	if n, _ := mgr.Counts(); n != jobs+1 {
		t.Fatalf("manager holds %d jobs, want %d", n, jobs+1)
	}
	const budget = 2 << 20
	perJob := (float64(after) - float64(before)) / jobs
	t.Logf("live heap %.1f → %.1f MB over %d jobs: %.2f MB per finished job",
		float64(before)/(1<<20), float64(after)/(1<<20), jobs, perJob/(1<<20))
	if perJob > budget {
		t.Errorf("live heap grew %.2f MB per finished job, budget %d MB", perJob/(1<<20), budget>>20)
	}
}

// TestAPIRejections covers the failure paths: malformed and invalid
// specs, unknown jobs, and results requested before completion.
func TestAPIRejections(t *testing.T) {
	mgr := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	for _, spec := range []JobSpec{
		{Benchmark: "no-such-app"},
		{Machine: "no-such-machine"},
		{Samples: -1},
		{TopX: -1},
		{Workers: -3},
		{CheckpointEvery: -1},
		{FaultRate: -0.5},
		{Adaptive: true, Compare: true},
		{Resume: "job-9999"},
		{Samples: 10},
		{Samples: 10, TopX: 20},
	} {
		resp := postJSON(t, ts.URL+"/jobs", spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: got %d, want 400", spec, resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: got %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/jobs/nope", "/jobs/nope/result", "/jobs/nope/progress", "/jobs/nope/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: got %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err = http.Post(ts.URL+"/jobs/nope/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown: got %d, want 404", resp.StatusCode)
	}
}

// stallGate passes through n acquisitions, then blocks the n+1th until
// its context is cancelled; every later acquisition passes freely. With
// Workers=1 this cancels a job at a deterministic evaluation boundary.
type stallGate struct {
	mu      sync.Mutex
	n       int
	tripped bool
	stalled chan struct{}
}

func newStallGate(n int) *stallGate {
	return &stallGate{n: n, stalled: make(chan struct{})}
}

func (g *stallGate) Acquire(ctx context.Context) error {
	g.mu.Lock()
	if g.tripped {
		g.mu.Unlock()
		return nil
	}
	if g.n > 0 {
		g.n--
		g.mu.Unlock()
		return nil
	}
	g.tripped = true
	close(g.stalled)
	g.mu.Unlock()
	<-ctx.Done()
	return ctx.Err()
}

func (g *stallGate) Release() {}

// cancelAtStall submits spec to a manager gated by gate, cancels the
// job once the gate stalls it, and returns the cancelled job's status,
// which must be resumable.
func cancelAtStall(t *testing.T, ts *httptest.Server, mgr *Manager, gate *stallGate, spec JobSpec) Status {
	t.Helper()
	st := decode[Status](t, postJSON(t, ts.URL+"/jobs", spec))
	select {
	case <-gate.stalled:
	case <-time.After(testTimeout):
		t.Fatal("job never reached the stall point")
	}
	cresp := postJSON(t, ts.URL+"/jobs/"+st.ID+"/cancel", nil)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: got %d, want 200", cresp.StatusCode)
	}
	j, _ := mgr.Get(st.ID)
	waitJob(t, j)
	st = j.Status()
	if st.State != StateCancelled {
		t.Fatalf("state after cancel = %q (err %q), want cancelled", st.State, st.Error)
	}
	if !st.Resumable {
		t.Fatal("cancelled job must leave a resumable checkpoint")
	}
	return st
}

// runJob submits spec and waits for the job to end.
func runJob(t *testing.T, ts *httptest.Server, mgr *Manager, spec JobSpec) *Job {
	t.Helper()
	st := decode[Status](t, postJSON(t, ts.URL+"/jobs", spec))
	j, ok := mgr.Get(st.ID)
	if !ok {
		t.Fatalf("submission rejected: %+v", st)
	}
	waitJob(t, j)
	return j
}

// TestCancelResumeFingerprintEquality is the service-level acceptance
// test: cancel a job mid-run, confirm it drained to a resumable
// checkpoint, resume it as a new job, and require the resumed Report's
// fingerprint to be bit-identical to an uninterrupted run of the same
// spec.
func TestCancelResumeFingerprintEquality(t *testing.T) {
	gate := newStallGate(7)
	mgr := newTestManager(t, Config{Gate: gate})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	spec := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 16, TopX: 4,
		Seed: "cancel-resume", Workers: 1, CheckpointEvery: 1}
	st := cancelAtStall(t, ts, mgr, gate, spec)

	resumeSpec := spec
	resumeSpec.Resume = st.ID
	rj := runJob(t, ts, mgr, resumeSpec)
	resumed, err := rj.Result()
	if err != nil {
		t.Fatalf("resumed job: %v (status %+v)", err, rj.Status())
	}

	cj := runJob(t, ts, mgr, spec)
	control, err := cj.Result()
	if err != nil {
		t.Fatalf("control job: %v (status %+v)", err, cj.Status())
	}

	if resumed.Fingerprint != control.Fingerprint {
		t.Fatalf("cancel+resume fingerprint %s != uninterrupted %s",
			resumed.Fingerprint, control.Fingerprint)
	}
}

// A job submitted without a seed runs under its own ID, and a resume of
// it that names no seed continues that run: it completes with the
// fingerprint of an uninterrupted run seeded with the first job's ID.
func TestResumeSeedlessJob(t *testing.T) {
	gate := newStallGate(7)
	mgr := newTestManager(t, Config{Gate: gate})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	spec := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 16, TopX: 4, Workers: 1, CheckpointEvery: 1}
	st := cancelAtStall(t, ts, mgr, gate, spec)

	resumeSpec := spec
	resumeSpec.Resume = st.ID
	rj := runJob(t, ts, mgr, resumeSpec)
	resumed, err := rj.Result()
	if err != nil {
		t.Fatalf("resumed job: %v (status %+v)", err, rj.Status())
	}
	control := spec
	control.Seed = st.ID
	cj := runJob(t, ts, mgr, control)
	want, err := cj.Result()
	if err != nil {
		t.Fatalf("control job: %v (status %+v)", err, cj.Status())
	}
	if resumed.Fingerprint != want.Fingerprint {
		t.Fatalf("seedless resume fingerprint %s != run seeded %q %s", resumed.Fingerprint, st.ID, want.Fingerprint)
	}
}

// A resume whose spec would change the run's outcome fails before it
// evaluates anything, naming the checkpoint field that differs.
func TestResumeChangedSpecFails(t *testing.T) {
	gate := newStallGate(7)
	mgr := newTestManager(t, Config{Gate: gate})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	spec := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 16, TopX: 4,
		Seed: "changed-spec", FaultRate: 3, Workers: 1, CheckpointEvery: 1}
	st := cancelAtStall(t, ts, mgr, gate, spec)

	resumeSpec := spec
	resumeSpec.FaultRate = 0
	resumeSpec.Resume = st.ID
	rst := runJob(t, ts, mgr, resumeSpec).Status()
	if rst.State != StateFailed || !strings.Contains(rst.Error, "checkpoint faults ") {
		t.Fatalf("resume with a changed fault rate ended %q (err %q), want failed naming the faults field", rst.State, rst.Error)
	}
}

// A job drained by one daemon outlives it: a second Manager over the
// same directory numbers its jobs after the drained one, resumes it by
// ID with no seed to the fingerprint of an uninterrupted run under the
// drained job's seed, and leaves the drained checkpoint as it was. A
// resume that is not a job ID, or names a job with no checkpoint, is
// refused.
func TestResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	gate := newStallGate(7)
	first := newTestManager(t, Config{Dir: dir, Gate: gate})
	spec := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 16, TopX: 4, Workers: 1, CheckpointEvery: 1}
	drained, err := first.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.stalled:
	case <-time.After(testTimeout):
		t.Fatal("job never reached the stall point")
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := first.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := drained.Status()
	if st.State != StateCancelled || !st.Resumable {
		t.Fatalf("drained job is %q, resumable %v", st.State, st.Resumable)
	}
	before, err := os.ReadFile(st.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	second := newTestManager(t, Config{Dir: dir})
	ts := httptest.NewServer(NewServer(second))
	defer ts.Close()
	resume := spec
	resume.Resume = drained.ID
	rj := runJob(t, ts, second, resume)
	if rj.ID != "job-0002" {
		t.Fatalf("the restarted manager's first job is %s, want job-0002 after the drained %s", rj.ID, drained.ID)
	}
	resumed, err := rj.Result()
	if err != nil {
		t.Fatalf("resumed job: %v (status %+v)", err, rj.Status())
	}
	control := spec
	control.Seed = drained.ID
	want, err := runJob(t, ts, second, control).Result()
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Fingerprint != want.Fingerprint {
		t.Fatalf("resumed after a restart: fingerprint %s, uninterrupted %s", resumed.Fingerprint, want.Fingerprint)
	}
	if after, err := os.ReadFile(st.Checkpoint); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the drained checkpoint changed (%d -> %d bytes, %v)", len(before), len(after), err)
	}
	for _, id := range []string{"../x", "job-", "job-1/..", "job--1", "job-0099"} {
		bad := spec
		bad.Resume = id
		resp := postJSON(t, ts.URL+"/jobs", bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("resume %q: got %d, want 400", id, resp.StatusCode)
		}
	}
}

// TestConcurrentJobsBoundedGate runs 8 jobs at once through a 3-slot
// gate and checks (a) all complete, (b) in-flight evaluations never
// exceeded the gate's capacity, and (c) the shared gate does not leak
// into results: two jobs with identical specs fingerprint identically.
func TestConcurrentJobsBoundedGate(t *testing.T) {
	gate := NewGate(3)
	mgr := newTestManager(t, Config{Gate: gate})

	const njobs = 8
	jobs := make([]*Job, njobs)
	for i := range jobs {
		seed := fmt.Sprintf("conc-%d", i)
		if i == njobs-1 {
			seed = "conc-0" // duplicate of job 0: must fingerprint equal
		}
		j, err := mgr.Submit(JobSpec{Benchmark: "CL", Machine: "broadwell",
			Samples: 12, TopX: 4, Seed: seed, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		waitJob(t, j)
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job %s: state %q (err %q)", j.ID, st.State, st.Error)
		}
	}
	if hw := gate.HighWater(); hw > gate.Slots() {
		t.Fatalf("gate high-water %d exceeds capacity %d", hw, gate.Slots())
	}
	if gate.Busy() != 0 {
		t.Fatalf("gate leaked %d slots", gate.Busy())
	}
	first, err := jobs[0].Result()
	if err != nil {
		t.Fatal(err)
	}
	dup, err := jobs[njobs-1].Result()
	if err != nil {
		t.Fatal(err)
	}
	if first.Fingerprint != dup.Fingerprint {
		t.Fatalf("gate contention changed results: %s != %s", first.Fingerprint, dup.Fingerprint)
	}
}

// TestDrainCancelsAndCheckpoints is the graceful-shutdown contract:
// Drain cancels every running job, each drains to a valid resumable
// checkpoint, and new submissions are refused afterwards.
func TestDrainCancelsAndCheckpoints(t *testing.T) {
	gate := newStallGate(5)
	mgr := newTestManager(t, Config{Gate: gate})

	j, err := mgr.Submit(JobSpec{Benchmark: "CL", Machine: "broadwell",
		Samples: 16, TopX: 4, Seed: "drain", Workers: 1, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.stalled:
	case <-time.After(testTimeout):
		t.Fatal("job never reached the stall point")
	}

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := j.Status()
	if st.State != StateCancelled {
		t.Fatalf("drained job state = %q, want cancelled", st.State)
	}
	if !st.Resumable {
		t.Fatal("drained job must leave a resumable checkpoint")
	}
	if fi, err := os.Stat(st.Checkpoint); err != nil || fi.Size() == 0 {
		t.Fatalf("checkpoint %s: err=%v", st.Checkpoint, err)
	}

	if _, err := mgr.Submit(JobSpec{}); err == nil {
		t.Fatal("submit after drain should be refused")
	}
}

// TestProgressFollowStreamsLive attaches a follower before the job
// finishes and checks it receives the final line and terminates.
func TestProgressFollowStreamsLive(t *testing.T) {
	l := newLineLog()
	got := make(chan []string, 1)
	go func() {
		var lines []string
		_ = l.Follow(context.Background(), func(s string) error {
			lines = append(lines, s)
			return nil
		})
		got <- lines
	}()
	fmt.Fprintf(l, "eval 1/10\n")
	fmt.Fprintf(l, "eval 2/10\npartial")
	l.Close()
	select {
	case lines := <-got:
		want := []string{"eval 1/10", "eval 2/10", "partial"}
		if len(lines) != len(want) {
			t.Fatalf("lines = %q, want %q", lines, want)
		}
		for i := range want {
			if lines[i] != want[i] {
				t.Fatalf("lines[%d] = %q, want %q", i, lines[i], want[i])
			}
		}
	case <-time.After(testTimeout):
		t.Fatal("follower never terminated")
	}

	// A cancelled follower stops even if the log never closes.
	l2 := newLineLog()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- l2.Follow(ctx, func(string) error { return nil })
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled Follow should return ctx error")
		}
	case <-time.After(testTimeout):
		t.Fatal("cancelled follower hung")
	}
}

// TestGateContextCancel verifies a full gate does not deadlock a
// cancelled waiter.
func TestGateContextCancel(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Acquire(ctx); err == nil {
		t.Fatal("acquire on full gate with cancelled ctx should fail")
	}
	g.Release()
	if g.Busy() != 0 {
		t.Fatalf("busy = %d after release", g.Busy())
	}
	if g.HighWater() != 1 {
		t.Fatalf("high-water = %d, want 1", g.HighWater())
	}
}
