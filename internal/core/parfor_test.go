package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
)

// A panicking evaluation worker must not crash the process anonymously:
// the panic is re-raised after the pool drains, annotated with the
// failing sample index and carrying the original panic value and stack.
func TestParForPanicCarriesSampleIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := newCLSession(t, 10, 2, true)
		s.Config.Workers = workers
		var visited [20]bool
		got := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg, _ = r.(string)
				}
			}()
			s.parFor(context.Background(), 20, func(i int) {
				visited[i] = true
				if i == 7 {
					panic("injected test failure")
				}
			})
			return ""
		}()
		if got == "" {
			t.Fatalf("workers=%d: panic was swallowed", workers)
		}
		if !strings.Contains(got, "sample 7") {
			t.Errorf("workers=%d: panic lacks the failing index: %q", workers, got)
		}
		if !strings.Contains(got, "injected test failure") {
			t.Errorf("workers=%d: panic lost the original value: %q", workers, got)
		}
		if !strings.Contains(got, "parfor_test.go") {
			t.Errorf("workers=%d: panic lost the worker stack", workers)
		}
		if !visited[7] {
			t.Errorf("workers=%d: sample 7 never ran", workers)
		}
	}
}

// Clean parFor runs are unaffected by the recovery wrapper.
func TestParForCompletesAllIndices(t *testing.T) {
	s := newCLSession(t, 10, 2, true)
	s.Config.Workers = 8
	var seen [100]int32
	s.parFor(context.Background(), 100, func(i int) { seen[i]++ })
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
}

// A cancelled context stops parFor from scheduling new indices: with one
// worker the loop stops exactly at the cancellation point, and with many
// workers no index is claimed after every worker observes the cancel.
func TestParForCancelStopsScheduling(t *testing.T) {
	for _, workers := range []int{1, 6} {
		s := newCLSession(t, 10, 2, true)
		s.Config.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		s.parFor(ctx, 1000, func(i int) {
			// Compare the value this index's increment produced: a
			// separate load can see two workers step past 5 together,
			// and then nothing ever cancels. An index past 5 waits for
			// the cancel, so a canceller descheduled between its
			// increment and cancel() cannot let the others run on.
			switch n := atomic.AddInt32(&ran, 1); {
			case n == 5:
				cancel()
			case n > 5:
				<-ctx.Done()
			}
		})
		// Workers already past the claim check may finish their index, so
		// allow one straggler per worker — but nothing close to the full
		// range must run.
		if n := atomic.LoadInt32(&ran); n < 5 || n > int32(5+workers) {
			t.Errorf("workers=%d: %d indices ran after cancel at 5", workers, n)
		}
	}

	// A context cancelled before the loop starts runs nothing at all.
	s := newCLSession(t, 10, 2, true)
	s.Config.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	s.parFor(ctx, 50, func(i int) { atomic.AddInt32(&ran, 1) })
	if ran != 0 {
		t.Errorf("pre-cancelled parFor ran %d indices", ran)
	}
}

// Cancellation must not swallow a worker panic: the re-raise still
// carries the failing index even when the context dies mid-loop.
func TestParForCancelKeepsPanicPropagation(t *testing.T) {
	s := newCLSession(t, 10, 2, true)
	s.Config.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg, _ = r.(string)
			}
		}()
		s.parFor(ctx, 100, func(i int) {
			if i == 3 {
				cancel()
				panic("cancelled and panicked")
			}
		})
		return ""
	}()
	if got == "" {
		t.Fatal("panic was swallowed under cancellation")
	}
	if !strings.Contains(got, "sample 3") || !strings.Contains(got, "cancelled and panicked") {
		t.Errorf("panic lost its context under cancellation: %q", got)
	}
}
