package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"funcytuner"
	"funcytuner/internal/core"
)

// inFlight counts the tasks the coordinator holds, queued or leased, in
// one look, so a task moving from the queue to a lease is never counted
// twice.
func (c *Coordinator) inFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue) + len(c.leases)
}

// windowRun is one distributed tune of spec on a journaled coordinator.
// The test starts the job and the workers in the order it needs: a job
// started first puts its first range on a coordinator that completes
// nothing until the workers come.
type windowRun struct {
	t     *testing.T
	coord *Coordinator
	url   string
	ctx   context.Context
	wg    sync.WaitGroup
	done  chan struct{}
	fp    uint64
	trace []byte
	// width is the job's workers gauge: the window of its last range.
	width float64
	err   error
}

func newWindowRun(t *testing.T) *windowRun {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL:    2 * time.Second,
		Heartbeat:   200 * time.Millisecond,
		JournalPath: filepath.Join(t.TempDir(), "journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	r := &windowRun{t: t, coord: coord, url: srv.URL, ctx: ctx, done: make(chan struct{})}
	t.Cleanup(func() {
		cancel()
		r.wg.Wait()
	})
	return r
}

// startJob tunes spec through the coordinator with the job's Workers
// set to jobWorkers.
func (r *windowRun) startJob(spec Spec, jobWorkers int) {
	r.t.Helper()
	ev, err := r.coord.Evaluator("job-window", spec)
	if err != nil {
		r.t.Fatal(err)
	}
	rec := funcytuner.NewTraceRecorder()
	tuner, prog, in, err := spec.Tuner(funcytuner.Options{Workers: jobWorkers, Evaluator: ev, Trace: rec})
	if err != nil {
		r.t.Fatal(err)
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(r.done)
		var rep *funcytuner.Report
		if rep, r.err = tuner.Run(r.ctx, prog, in, spec); r.err == nil {
			r.fp, r.width = rep.Fingerprint(), rep.Metrics.Gauge(core.MetricWorkers)
			var buf bytes.Buffer
			r.err = rec.Snapshot().Canonical().WriteJSONL(&buf)
			r.trace = buf.Bytes()
		}
	}()
}

// startWorkers runs n workers of the given concurrency and claim batch
// for the rest of the test.
func (r *windowRun) startWorkers(n, concurrency, batch int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{
			ID:          fmt.Sprintf("w-%d", i+1),
			Coordinator: r.url,
			Concurrency: concurrency,
			ClaimBatch:  batch,
			Poll:        200 * time.Millisecond,
		})
		if err != nil {
			r.t.Fatal(err)
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			w.Run(r.ctx) //nolint:errcheck // cancelled at cleanup
		}()
	}
}

// waitFor polls cond until it holds or the run's deadline passes.
func (r *windowRun) waitFor(what string, cond func() bool) {
	r.t.Helper()
	for !cond() {
		if r.ctx.Err() != nil {
			r.t.Fatalf("never saw %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// finish waits for the run and demands the single-node fingerprint and
// canonical trace. peak, while it waits, records the most tasks the
// coordinator held at once.
func (r *windowRun) finish(spec Spec) (peak int) {
	r.t.Helper()
	tick := time.NewTicker(100 * time.Microsecond)
	defer tick.Stop()
	for {
		peak = max(peak, r.coord.inFlight())
		select {
		case <-r.done:
			if r.err != nil {
				r.t.Fatalf("distributed run: %v", r.err)
			}
			wantFP, wantTrace := localRun(r.t, spec)
			if r.fp != wantFP {
				r.t.Errorf("distributed fingerprint %016x != local %016x", r.fp, wantFP)
			}
			if !bytes.Equal(r.trace, wantTrace) {
				r.t.Errorf("distributed canonical trace differs from local (%d vs %d bytes)", len(r.trace), len(wantTrace))
			}
			return peak
		case <-tick.C:
		}
	}
}

// A distributed job with Workers 1 puts its whole first range on the
// fleet at once, not one evaluation at a time: both workers, with claim
// batches of 16, find a full batch waiting in the 48 queued tasks.
func TestWindowIgnoresJobWorkers(t *testing.T) {
	spec := testSpec()
	spec.Samples, spec.Seed = 48, "window-workers-1"
	r := newWindowRun(t)
	r.startJob(spec, 1)
	r.waitFor("the whole collection queued", func() bool { return r.coord.QueueDepth() == spec.Samples })
	r.startWorkers(2, 1, 16)
	r.finish(spec)
	if r.width != maxClaimBatch {
		t.Errorf("the job's workers gauge reads %v, want the window %d", r.width, maxClaimBatch)
	}
}

// A range longer than the window keeps exactly the window on the fleet,
// queued or leased, never more.
func TestWindowBoundsInFlight(t *testing.T) {
	spec := testSpec()
	spec.Samples, spec.TopX, spec.Seed = 600, 30, "window-bound"
	r := newWindowRun(t)
	r.startJob(spec, 8)
	window := r.coord.Window()
	r.waitFor("a full window queued", func() bool { return r.coord.QueueDepth() == window })
	time.Sleep(50 * time.Millisecond)
	if n := r.coord.QueueDepth(); n != window {
		t.Fatalf("queue grew from %d to %d with no worker", window, n)
	}
	r.startWorkers(2, 1, 16)
	if peak := r.finish(spec); peak > window {
		t.Errorf("coordinator held %d tasks at once, window %d", peak, window)
	}
}

// A job holding a full window of tasks on the fleet waits on all of them
// from one goroutine: the coordinator's process runs far fewer extra
// goroutines than the window, not one blocked in each evaluation.
func TestWindowHoldsNoGoroutinePerTask(t *testing.T) {
	spec := testSpec()
	spec.Samples, spec.TopX, spec.Seed = 600, 30, "window-goroutines"
	r := newWindowRun(t)
	before := runtime.NumGoroutine()
	r.startJob(spec, 8)
	window := r.coord.Window()
	r.waitFor("a full window queued", func() bool { return r.coord.QueueDepth() == window })
	if extra := runtime.NumGoroutine() - before; extra >= 64 {
		t.Errorf("%d goroutines more than before the job while it holds %d tasks, want fewer than 64", extra, window)
	}
}
