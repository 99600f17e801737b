package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcytuner/internal/core"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/fsx"
	"funcytuner/internal/metrics"
)

// batchRequest is baselineRequest with a distinct sample index, so a
// test can enqueue several distinguishable tasks.
func batchRequest(sample int) core.EvalRequest {
	return core.EvalRequest{Phase: "cfr", Sample: sample, CVs: []flagspec.CV{flagspec.ICC().Baseline()}}
}

// enqueue puts reqs on the fleet as one range, in one enqueue
// transition, with room for every result: the protocol tests' enqueues.
// Request i's task is fl.tasks[i], and each result lands in fl.landed.
func (c *Coordinator) enqueue(job string, spec Spec, reqs ...core.EvalRequest) (*flight, error) {
	fl := newFlight(job, spec, reqs, len(reqs))
	return fl, c.enqueueRange(fl, 0, len(reqs))
}

// TestClaimBatchFIFOAndPerTaskEpochs pins the batched-claim contract:
// grants come in FIFO enqueue order, each granted task carries its own
// fresh lease and epoch, a partial batch is granted immediately rather
// than held to fill, an empty queue answers (nil, nil) after the long
// poll, and malformed arguments are rejected.
func TestClaimBatchFIFOAndPerTaskEpochs(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	spec := testSpec()
	var want []string
	for s := 1; s <= 3; s++ {
		fl, err := coord.enqueue("job-batch", spec, batchRequest(s))
		if err != nil {
			t.Fatalf("enqueue %d: %v", s, err)
		}
		want = append(want, fl.tasks[0].id)
	}

	// max below the queue depth: the two oldest tasks, in order.
	first, err := coord.ClaimBatch(ctx, "w1", 5*time.Second, 2)
	if err != nil {
		t.Fatalf("first batch: %v", err)
	}
	if len(first) != 2 || first[0].ID != want[0] || first[1].ID != want[1] {
		t.Fatalf("first batch = %v, want FIFO prefix %v", first, want[:2])
	}
	for _, task := range first {
		if task.Epoch != 1 {
			t.Errorf("task %s epoch %d, want 1 (fresh per-task lease)", task.ID, task.Epoch)
		}
		if task.LeaseMillis <= 0 {
			t.Errorf("task %s granted without a lease deadline", task.ID)
		}
	}
	if got := coord.ActiveLeases(); got != 2 {
		t.Errorf("active leases = %d, want 2", got)
	}

	// max above the queue depth: the remaining task is granted at once —
	// a partial batch is never held back hoping to fill.
	start := time.Now()
	second, err := coord.ClaimBatch(ctx, "w1", 5*time.Second, 8)
	if err != nil {
		t.Fatalf("second batch: %v", err)
	}
	if len(second) != 1 || second[0].ID != want[2] {
		t.Fatalf("second batch = %v, want exactly %s", second, want[2])
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("partial batch was held %v; grants must be immediate", waited)
	}

	// Empty queue: the long poll expires into (nil, nil), the 204 path.
	none, err := coord.ClaimBatch(ctx, "w1", 30*time.Millisecond, 8)
	if err != nil || none != nil {
		t.Errorf("empty-queue batch = (%v, %v), want (nil, nil)", none, err)
	}

	if _, err := coord.ClaimBatch(ctx, "", time.Millisecond, 1); err == nil {
		t.Error("empty worker ID accepted")
	}
	if _, err := coord.ClaimBatch(ctx, "w1", time.Millisecond, 0); err == nil {
		t.Error("batch size 0 accepted")
	}
}

// TestReportBatchIndependentVerdicts proves a batched report is judged
// entry by entry, in one lock hold and one journal append:
//   - a stale epoch, an unknown task and a duplicate all bounce
//     individually without poisoning the valid reports sharing their
//     batch, and each accepted report resolves its task exactly once;
//   - the same live entry twice in one batch is accepted once — both
//     copies pass the lease check, so without the in-batch duplicate rule
//     one append would journal two report records for one task, and
//     replay would stop at the second;
//   - a coordinator killed right after the batch's append resolves none
//     of it, and a restart over the journal serves every outcome.
func TestReportBatchIndependentVerdicts(t *testing.T) {
	t.Run("stale-unknown-duplicate", func(t *testing.T) {
		reg := metrics.NewRegistry()
		coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 5 * time.Second, Registry: reg})
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		defer coord.Close()
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()

		spec := testSpec()
		fl, err := coord.enqueue("job-rb", spec, batchRequest(1), batchRequest(2))
		if err != nil {
			t.Fatal(err)
		}
		t1, t2 := fl.tasks[0], fl.tasks[1]
		claimed, err := coord.ClaimBatch(ctx, "w1", 5*time.Second, 2)
		if err != nil || len(claimed) != 2 {
			t.Fatalf("claim batch: tasks %v err %v", claimed, err)
		}

		got, _, err := coord.ReportBatch("w1", []TaskReport{
			{Task: t1.id, Epoch: claimed[0].Epoch + 1, Outcome: fabricatedOutcome(1.5)}, // burned epoch
			{Task: t2.id, Epoch: claimed[1].Epoch, Outcome: fabricatedOutcome(2.5)},     // live lease
			{Task: "no-such-task", Epoch: 1, Outcome: fabricatedOutcome(3.5)},           // unknown
			{Task: t1.id, Epoch: claimed[0].Epoch, Outcome: fabricatedOutcome(4.5)},     // live lease
		}, 0)
		if err != nil {
			t.Fatalf("report batch: %v", err)
		}
		wantVerdicts(t, got, false, true, false, true)

		// Duplicates of the accepted entries bounce on a later batch too.
		dup, _, err := coord.ReportBatch("w1", []TaskReport{
			{Task: t2.id, Epoch: claimed[1].Epoch, Outcome: fabricatedOutcome(2.5)},
		}, 0)
		if err != nil || len(dup) != 1 || dup[0] {
			t.Errorf("duplicate batched report = (%v, %v), want ([false], nil)", dup, err)
		}

		// Each accepted report resolved its task with its own outcome,
		// once.
		resolved := map[int]taskResult{}
		for more := true; more; {
			select {
			case l := <-fl.landed:
				if _, dup := resolved[l.i]; dup {
					t.Errorf("task %d resolved twice", l.i)
				}
				resolved[l.i] = l.res
			default:
				more = false
			}
		}
		for i, task := range []*task{t1, t2} {
			wantTotal := []float64{4.5, 2.5}[i]
			if res, ok := resolved[i]; !ok {
				t.Errorf("task %s never resolved", task.id)
			} else if res.err != nil || res.out.Total != wantTotal {
				t.Errorf("task %s resolved (%v, %v), want total %v", task.id, res.out.Total, res.err, wantTotal)
			}
		}

		snap := reg.Snapshot()
		if ok := snap.Counter(MetricReportsOK); ok != 2 {
			t.Errorf("reports_ok = %d, want 2", ok)
		}
		if stale := snap.Counter(MetricReportsStale); stale != 3 {
			t.Errorf("reports_stale = %d, want 3", stale)
		}
	})
	t.Run("same-entry-twice", func(t *testing.T) {
		reg := metrics.NewRegistry()
		path := filepath.Join(t.TempDir(), "journal")
		coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 5 * time.Second, Registry: reg, JournalPath: path})
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		defer coord.Close()
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()

		fl, err := coord.enqueue("job-dup", testSpec(), batchRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		task, err := claimOne(ctx, coord, "w1", 5*time.Second)
		if err != nil || task == nil {
			t.Fatalf("claim: %v %v", task, err)
		}
		entry := TaskReport{Task: task.ID, Epoch: task.Epoch, Outcome: fabricatedOutcome(1.5)}
		got, _, err := coord.ReportBatch("w1", []TaskReport{entry, entry}, 0)
		if err != nil {
			t.Fatalf("report batch: %v", err)
		}
		wantVerdicts(t, got, true, false)

		reports := 0
		for _, op := range journalOps(t, path) {
			if op == opReport {
				reports++
			}
		}
		if reports != 1 {
			t.Errorf("journal holds %d report records, want 1", reports)
		}
		if res := (<-fl.landed).res; res.err != nil || res.out.Total != 1.5 {
			t.Errorf("task resolved (%v, %v), want total 1.5", res.out.Total, res.err)
		}
		snap := reg.Snapshot()
		if ok, stale := snap.Counter(MetricReportsOK), snap.Counter(MetricReportsStale); ok != 1 || stale != 1 {
			t.Errorf("reports_ok/stale = %d/%d, want 1/1", ok, stale)
		}
	})
	t.Run("kill-after-append", func(t *testing.T) {
		cfg := CoordinatorConfig{LeaseTTL: time.Minute, Heartbeat: time.Second, JournalPath: filepath.Join(t.TempDir(), "journal")}
		coord, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()

		spec := testSpec()
		fl, err := coord.enqueue("job-kill", spec, batchRequest(1), batchRequest(2), batchRequest(3))
		if err != nil {
			t.Fatal(err)
		}
		claimed, err := coord.ClaimBatch(ctx, "w1", time.Second, 3)
		if err != nil || len(claimed) != 3 {
			t.Fatalf("claim batch: %d tasks, err %v", len(claimed), err)
		}
		fired := armKill(coord, killReportAccepted, 1)
		reports := make([]TaskReport, len(claimed))
		for i, c := range claimed {
			reports[i] = TaskReport{Task: c.ID, Epoch: c.Epoch, Outcome: fabricatedOutcome(float64(i) + 1.5)}
		}
		if _, _, err := coord.ReportBatch("w1", reports, 0); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("report batch through the kill: err=%v, want ErrUnavailable", err)
		}
		if !fired.Load() {
			t.Fatal("kill point never fired")
		}
		for range fl.reqs {
			if l := <-fl.landed; !errors.Is(l.res.err, ErrUnavailable) {
				t.Errorf("task %s resolved (%v, %v) through the kill, want ErrUnavailable", fl.tasks[l.i].id, l.res.out.Total, l.res.err)
			}
		}
		coord.Kill()

		// The journaled reports retired the three tasks, and the
		// coordinator keeps no outcome: the re-run enqueues each again.
		reg2 := metrics.NewRegistry()
		cfg.Registry = reg2
		coord2, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		defer coord2.Close()
		if n := coord2.RecoveredTasks(); n != 0 {
			t.Errorf("recovered %d tasks, want 0: every one was reported", n)
		}
		ev, err := coord2.Evaluator("job-retry", spec)
		if err != nil {
			t.Fatalf("evaluator: %v", err)
		}
		for i := range fl.reqs {
			done := evaluateAsync(ctx, ev, batchRequest(i+1))
			task, err := claimOne(ctx, coord2, "w1", 5*time.Second)
			if err != nil || task == nil || task.Sample != i+1 {
				t.Fatalf("claim of sample %d after restart: %+v %v", i+1, task, err)
			}
			if acc, err := reportOne(coord2, "w1", task.ID, task.Epoch, fabricatedOutcome(float64(i)+1.5), ""); err != nil || !acc {
				t.Fatalf("report of sample %d after restart: accepted=%v err=%v", i+1, acc, err)
			}
			if res := <-done; res.err != nil || res.out.Total != float64(i)+1.5 {
				t.Errorf("sample %d after restart = (%v, %v), want %v", i+1, res.out.Total, res.err, float64(i)+1.5)
			}
		}
		if n := reg2.Snapshot().Counter(MetricTasksEnqueued); n != 3 {
			t.Errorf("restarted coordinator enqueued %d tasks, want the 3 reported before the kill", n)
		}
	})
}

// wantVerdicts compares a report batch's verdicts with want.
func wantVerdicts(t *testing.T, got []bool, want ...bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("verdicts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("verdict[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// journalOps lists the op of every record in the journal at path.
func journalOps(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, good := replayJournal(data); good != len(data) {
		t.Fatalf("journal replay stops at byte %d of %d", good, len(data))
	}
	var ops []string
	fsx.ReadRecords(data, func(body []byte) bool {
		var b journalBody
		if err := json.Unmarshal(body, &b); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, b.Op)
		return true
	})
	return ops
}

// TestBatchedWorkersMatchLocal runs the distributed happy path with
// batched claims and reports (ClaimBatch: 8 over real HTTP) and demands
// the same byte-equality as single-claim workers: batching is transport
// economics, not semantics.
func TestBatchedWorkersMatchLocal(t *testing.T) {
	spec := testSpec()
	wantFP, wantTrace := localRun(t, spec)
	gotFP, gotTrace := distributedRun(t, spec,
		CoordinatorConfig{LeaseTTL: 2 * time.Second, Heartbeat: 200 * time.Millisecond},
		[]WorkerConfig{
			{ID: "wb-1", Concurrency: 2, ClaimBatch: 8, Poll: 200 * time.Millisecond},
			{ID: "wb-2", Concurrency: 2, ClaimBatch: 8, Poll: 200 * time.Millisecond},
		}, nil)
	if gotFP != wantFP {
		t.Errorf("batched fingerprint %016x != local %016x", gotFP, wantFP)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("batched canonical trace differs from local (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
}

// TestBatchedWorkersSurviveChaos is the chaos suite re-run with batched
// claims: workers dying mid-batch, stalling past the lease, and sending
// stale reports must leave the merged run byte-identical to single-node.
// This exercises the batch self-fencing path — a fenced task is dropped
// from the batched report instead of landing stale.
func TestBatchedWorkersSurviveChaos(t *testing.T) {
	spec := testSpec()
	wantFP, wantTrace := localRun(t, spec)
	chaos := faults.WorkerRates{DieMidEval: 0.08, Stall: 0.05, ReportThenDie: 0.04, StaleReport: 0.08}
	gotFP, gotTrace := distributedRun(t, spec,
		CoordinatorConfig{
			LeaseTTL:          150 * time.Millisecond,
			Heartbeat:         30 * time.Millisecond,
			RequeueBackoff:    2 * time.Millisecond,
			RequeueBackoffCap: 20 * time.Millisecond,
			MaxLeaseLosses:    1 << 20,
		},
		[]WorkerConfig{
			{ID: "wb-healthy", Concurrency: 2, ClaimBatch: 4, Poll: 100 * time.Millisecond},
			{ID: "wb-chaos-1", Concurrency: 2, ClaimBatch: 4, Poll: 100 * time.Millisecond, Faults: chaos},
			{ID: "wb-chaos-2", Concurrency: 2, ClaimBatch: 4, Poll: 100 * time.Millisecond, Faults: chaos},
		}, nil)
	if gotFP != wantFP {
		t.Errorf("batched chaos fingerprint %016x != local %016x", gotFP, wantFP)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("batched chaos canonical trace differs from local (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
}

// failFirstReport is a worker transport whose first report batch fails
// before it is sent, as on a connection reset.
type failFirstReport struct{ failed atomic.Bool }

func (f *failFirstReport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/fleet/reportbatch" && f.failed.CompareAndSwap(false, true) {
		if r.Body != nil {
			r.Body.Close()
		}
		return nil, errors.New("connection reset by peer (injected)")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// refuseMax is a worker transport in front of a coordinator from before
// the report batch's max: it refuses a report batch that carries max as
// that coordinator's strict decoder did, 400 naming the unknown field,
// and passes every other request on.
type refuseMax struct{ refused, passed atomic.Int64 }

func (f *refuseMax) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != "/fleet/reportbatch" {
		return http.DefaultTransport.RoundTrip(r)
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return nil, err
	}
	var older struct {
		Worker  string       `json:"worker"`
		Reports []TaskReport `json:"reports"`
	}
	if err := decodeRequest(json.NewDecoder(bytes.NewReader(body)), &older); err != nil {
		f.refused.Add(1)
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return rec.Result(), nil
	}
	f.passed.Add(1)
	r = r.Clone(r.Context())
	r.Body = io.NopCloser(bytes.NewReader(body))
	return http.DefaultTransport.RoundTrip(r)
}

// dropFirstAnswer is a worker transport that delivers its first report
// batch and then loses the coordinator's answer, as on a connection
// reset after the handler ran. It counts the tasks the lost answer
// granted.
type dropFirstAnswer struct {
	dropped atomic.Bool
	grants  atomic.Int64
}

func (f *dropFirstAnswer) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.URL.Path != "/fleet/reportbatch" || !f.dropped.CompareAndSwap(false, true) {
		return resp, err
	}
	defer resp.Body.Close()
	var answer reportBatchResponse
	if err := readReportBatchResponse(resp.Body, &answer); err != nil {
		return nil, err
	}
	f.grants.Store(int64(len(answer.Tasks)))
	return nil, errors.New("connection reset by peer (injected after the answer)")
}

// TestWorkerResendsFailedReport runs one worker claiming batches of four
// whose report batch fails, in each way the worker sends it again, and
// checks that the run, which has no other worker, ends at the local
// run's fingerprint with the leases each way loses expired:
//
//   - before-send: the first report batch fails at the transport before
//     it is sent. The worker sends it again while its leases live, so
//     none expires and the worker is not quarantined at the default
//     MaxLeaseLosses (four losses would pass the bound of three).
//   - older-coordinator: every report batch carrying max is refused, as
//     a coordinator from before max refused it. The worker sends each
//     again at once without max and long-polls for its next batch.
//   - answer-lost: the first report batch's answer is lost after the
//     coordinator judged the reports and leased the next batch. The
//     resend gets stale verdicts and as many tasks again; the lost
//     answer's four grants, which no worker knows of, expire as this
//     worker's losses. That would quarantine it at the default bound
//     (ROADMAP item 10), so this row raises the bound above the batch.
func TestWorkerResendsFailedReport(t *testing.T) {
	spec := testSpec()
	wantFP, wantTrace := localRun(t, spec)
	failed, older, lost := &failFirstReport{}, &refuseMax{}, &dropFirstAnswer{}
	for _, tc := range []struct {
		name      string
		rt        http.RoundTripper
		maxLosses int
		fired     func() bool
		expired   int64
	}{
		{"before-send", failed, 0, failed.failed.Load, 0},
		{"older-coordinator", older, 0, func() bool {
			n := older.refused.Load()
			return n > 0 && n == older.passed.Load()
		}, 0},
		{"answer-lost", lost, 5, func() bool { return lost.grants.Load() == 4 }, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			gotFP, gotTrace := distributedRun(t, spec,
				CoordinatorConfig{LeaseTTL: time.Second, Heartbeat: 100 * time.Millisecond, MaxLeaseLosses: tc.maxLosses, Registry: reg},
				[]WorkerConfig{{ID: "w-resend", Concurrency: 1, ClaimBatch: 4, Poll: 100 * time.Millisecond}},
				[]http.RoundTripper{tc.rt})
			if !tc.fired() {
				t.Fatal("no report batch failed as the row asks; the test proved nothing")
			}
			if gotFP != wantFP {
				t.Errorf("fingerprint %016x != local %016x", gotFP, wantFP)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Errorf("canonical trace differs from local (%d vs %d bytes)", len(gotTrace), len(wantTrace))
			}
			snap := reg.Snapshot()
			if n := snap.Counter(MetricLeasesExpired); n != tc.expired {
				t.Errorf("%d leases expired, want %d", n, tc.expired)
			}
			if n := snap.Counter(MetricWorkersQuarantined); n != 0 {
				t.Errorf("%d workers quarantined, want none", n)
			}
		})
	}
}

// verbCounter is a worker transport that counts requests per protocol
// verb and stamps when each claimbatch left and each reportbatch was
// answered.
type verbCounter struct {
	mu              sync.Mutex
	counts          map[string]int
	claimSent       []time.Time
	reportsAnswered []time.Time
}

func (v *verbCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	verb := path.Base(req.URL.Path)
	v.mu.Lock()
	v.counts[verb]++
	if verb == "claimbatch" {
		v.claimSent = append(v.claimSent, time.Now())
	}
	v.mu.Unlock()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if verb == "reportbatch" {
		v.mu.Lock()
		v.reportsAnswered = append(v.reportsAnswered, time.Now())
		v.mu.Unlock()
	}
	return resp, err
}

func (v *verbCounter) count(verb string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.counts[verb]
}

// waitFor polls cond until it holds, failing the test after testTimeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWorkerFaultModesInsideBatch pins what each injected worker fault
// mode does to a whole claimed batch. One worker with the mode always on
// claims every enqueued task in its first round-trip; the coordinator's
// counters and the worker's own requests show the outcome. The chaos
// suites cannot pin this: there, whether a mode fires at all depends on
// scheduling.
func TestWorkerFaultModesInsideBatch(t *testing.T) {
	const leaseTTL = 400 * time.Millisecond
	// always is the highest rate WorkerRates.Validate admits: a mode at
	// this rate fires on all but one draw in 2^53.
	always := math.Nextafter(1, 0)
	type run struct {
		reg   *metrics.Registry
		rt    *verbCounter
		tasks []*task
		fl    *flight
	}
	counter := func(r run, name string) int64 { return r.reg.Snapshot().Counter(name) }
	resolveAll := func(t *testing.T, r run) {
		t.Helper()
		for range r.tasks {
			select {
			case <-r.fl.landed:
			case <-time.After(testTimeout):
				t.Fatal("a task never resolved")
			}
		}
	}

	dieMidEval := func(t *testing.T, r run) {
		// One sweep expires the whole batch: its leases share a deadline,
		// and the dark worker sits out longer than that before reclaiming.
		waitFor(t, "the batch's leases to expire", func() bool { return counter(r, MetricLeasesExpired) > 0 })
		if got := counter(r, MetricLeasesExpired); got != int64(len(r.tasks)) {
			t.Errorf("first expiry sweep took %d leases, want the whole batch of %d", got, len(r.tasks))
		}
		if n := r.rt.count("reportbatch") + r.rt.count("heartbeat"); n != 0 {
			t.Errorf("dark worker sent %d reports/heartbeats, want none", n)
		}
	}
	staleReport := func(t *testing.T, r run) {
		resolveAll(t, r)
		waitFor(t, "the replayed reports", func() bool { return counter(r, MetricReportsStale) >= int64(len(r.tasks)) })
		ok, stale := counter(r, MetricReportsOK), counter(r, MetricReportsStale)
		if ok != int64(len(r.tasks)) || stale != int64(len(r.tasks)) {
			t.Errorf("reports_ok/stale = %d/%d, want %d/%d", ok, stale, len(r.tasks), len(r.tasks))
		}
		if n := r.rt.count("reportbatch"); n != 2 {
			t.Errorf("worker sent %d report batches, want the report and its replay", n)
		}
	}
	cases := []struct {
		name  string
		rates faults.WorkerRates
		batch int
		check func(*testing.T, run)
	}{
		{"die-mid-eval", faults.WorkerRates{DieMidEval: always}, 4, dieMidEval},
		{"die-mid-eval/batch-of-one", faults.WorkerRates{DieMidEval: always}, 1, dieMidEval},
		{"stall", faults.WorkerRates{Stall: always}, 4, func(t *testing.T, r run) {
			// Each task sleeps past its deadline in turn, so even the first
			// is reported after its lease expired: the whole report bounces.
			waitFor(t, "the late report", func() bool { return r.rt.count("reportbatch") > 0 })
			waitFor(t, "the late report's verdicts", func() bool { return counter(r, MetricReportsStale) > 0 })
			if stale := counter(r, MetricReportsStale); stale != int64(len(r.tasks)) {
				t.Errorf("reports_stale = %d, want all %d entries", stale, len(r.tasks))
			}
			if ok := counter(r, MetricReportsOK); ok != 0 {
				t.Errorf("reports_ok = %d, want 0", ok)
			}
			if n := r.rt.count("heartbeat"); n != 0 {
				t.Errorf("stalled worker sent %d heartbeats, want none", n)
			}
		}},
		{"stale-report", faults.WorkerRates{StaleReport: always}, 4, staleReport},
		{"stale-report/batch-of-one", faults.WorkerRates{StaleReport: always}, 1, staleReport},
		{"report-then-die", faults.WorkerRates{ReportThenDie: always}, 4, func(t *testing.T, r run) {
			resolveAll(t, r)
			waitFor(t, "the claim after the report", func() bool { return r.rt.count("claimbatch") >= 2 })
			if ok := counter(r, MetricReportsOK); ok != int64(len(r.tasks)) {
				t.Errorf("reports_ok = %d, want %d", ok, len(r.tasks))
			}
			r.rt.mu.Lock()
			gap := r.rt.claimSent[1].Sub(r.rt.reportsAnswered[0])
			r.rt.mu.Unlock()
			if gap < leaseTTL {
				t.Errorf("next claim %v after the report, want at least the lease TTL %v", gap, leaseTTL)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			coord, err := NewCoordinator(CoordinatorConfig{
				// The stall sleeps leaseTTL+Heartbeat; the reaper sweeps every
				// leaseTTL/4, so a stalled lease has expired well before its
				// report lands.
				LeaseTTL:          leaseTTL,
				Heartbeat:         leaseTTL / 2,
				RequeueBackoff:    time.Millisecond,
				RequeueBackoffCap: 2 * time.Millisecond,
				MaxLeaseLosses:    1 << 20,
				Registry:          reg,
			})
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			defer coord.Close()
			srv := httptest.NewServer(coord.Handler())
			defer srv.Close()

			r := run{reg: reg, rt: &verbCounter{counts: map[string]int{}}}
			var reqs []core.EvalRequest
			for s := 1; s <= tc.batch; s++ {
				// Collect-phase claims carry one uniform CV, which a real
				// worker executes without the benchmark's module partition.
				reqs = append(reqs, core.EvalRequest{Phase: "collect", Sample: s, CVs: []flagspec.CV{flagspec.ICC().Baseline()}})
			}
			if r.fl, err = coord.enqueue("job-faults", testSpec(), reqs...); err != nil {
				t.Fatal(err)
			}
			r.tasks = r.fl.tasks
			w, err := NewWorker(WorkerConfig{
				ID: "w-fault", Coordinator: srv.URL, Concurrency: 1, ClaimBatch: tc.batch,
				Poll: 100 * time.Millisecond, Faults: tc.rates,
				HTTPClient: &http.Client{Transport: r.rt}, Logf: t.Logf,
			})
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
			defer cancel()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = w.Run(ctx) // cancelled below once the check is done
			}()
			defer wg.Wait()
			defer cancel()
			tc.check(t, r)
		})
	}
}
