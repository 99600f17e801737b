package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
)

// TestClaimBatchClampReported pins the over-ask contract: a claimbatch
// request above the coordinator's per-round-trip cap is clamped, and the
// response says so (Granted = cap) instead of clamping silently; a
// request within the cap reports nothing.
func TestClaimBatchClampReported(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	spec := testSpec()
	for i := 0; i < 3; i++ {
		if _, err := coord.enqueue("job-clamp", spec, batchRequest(i)); err != nil {
			t.Fatal(err)
		}
	}

	cl := newClient(srv.URL, nil)
	ts, granted, err := cl.claimBatch(ctx, "w1", time.Second, maxClaimBatch+1000)
	if err != nil {
		t.Fatalf("claimbatch: %v", err)
	}
	if len(ts) == 0 {
		t.Fatal("claimbatch granted no leases with a non-empty queue")
	}
	if granted != maxClaimBatch {
		t.Fatalf("granted = %d, want clamp cap %d", granted, maxClaimBatch)
	}

	for i := 3; i < 5; i++ {
		if _, err := coord.enqueue("job-clamp", spec, batchRequest(i)); err != nil {
			t.Fatal(err)
		}
	}
	ts2, granted2, err := cl.claimBatch(ctx, "w1", time.Second, 2)
	if err != nil {
		t.Fatalf("claimbatch within cap: %v", err)
	}
	if len(ts2) == 0 {
		t.Fatal("second claimbatch granted no leases")
	}
	if granted2 != 0 {
		t.Fatalf("granted = %d for an in-cap request, want 0", granted2)
	}
}

// TestClaimBatchClampAdaptsWorker runs a real worker configured to
// over-ask: it must log the clamp exactly once and keep working — the
// enqueued task still resolves.
func TestClaimBatchClampAdaptsWorker(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var mu sync.Mutex
	var lines []string
	w, err := NewWorker(WorkerConfig{
		ID:          "w-clamp",
		Coordinator: srv.URL,
		Concurrency: 1,
		ClaimBatch:  maxClaimBatch + 100,
		Poll:        100 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
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
		_ = w.Run(ctx)
	}()

	// A collect-phase claim carries a single uniform CV, so a real worker
	// can execute it without knowing the benchmark's module partition.
	req := core.EvalRequest{Phase: "collect", Sample: 1, CVs: []flagspec.CV{flagspec.ICC().Baseline()}}
	fl, err := coord.enqueue("job-clamp-adapt", testSpec(), req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case l := <-fl.landed:
		if l.res.err != nil {
			t.Fatalf("task resolved with error: %v", l.res.err)
		}
	case <-time.After(testTimeout):
		t.Fatal("task never resolved")
	}
	cancel()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	clampLines := 0
	for _, l := range lines {
		if strings.Contains(l, "grants at most") {
			clampLines++
		}
	}
	if clampLines != 1 {
		t.Fatalf("clamp logged %d times, want exactly once; log:\n%s", clampLines, strings.Join(lines, "\n"))
	}
}
