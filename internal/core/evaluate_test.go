package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"funcytuner/internal/faults"
	"funcytuner/internal/metrics"
	"funcytuner/internal/trace"
)

// checkLedger fails unless every cost counter in s's metrics equals its
// CostAccount accessor.
func checkLedger(t *testing.T, name string, s *Session) {
	t.Helper()
	snap := s.MetricsSnapshot()
	for metric, want := range map[string]int64{
		MetricEvals:           s.CompletedEvals(),
		MetricCompiles:        s.Cost.Compiles(),
		MetricRuns:            s.Cost.Runs(),
		MetricSimMicros:       s.Cost.simMicros.Load(),
		MetricFaultMicros:     s.Cost.faultMicros.Load(),
		MetricRetries:         s.Cost.Retries(),
		MetricFlakes:          s.Cost.Flakes(),
		MetricTimeouts:        s.Cost.Timeouts(),
		MetricCompileFailures: s.Cost.CompileFailures(),
		MetricRunCrashes:      s.Cost.RunCrashes(),
		MetricWastedCompiles:  s.Cost.WastedCompiles(),
	} {
		if got := snap.Counter(metric); got != want {
			t.Errorf("%s: counter %q = %d, CostAccount says %d", name, metric, got, want)
		}
	}
}

// An evaluation abandoned between flake retries applies no cost, so it
// must not move any counter either.
func TestMetricsMatchCostOnAbandonedRetry(t *testing.T) {
	rates := faults.Rates{Flake: 0.5}
	// The reference run numbers the trace clock's calls. With one worker
	// and no compile cache (no scheduling-dependent cache events), a
	// second run makes the same calls in the same order.
	ref := newFaultySession(t, 40, 8, 1, rates)
	rec := trace.NewRecorder()
	var calls int64
	rec.WallClock(func() int64 { calls++; return calls })
	ref.AttachTrace(rec)
	if _, err := ref.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	var retryCall int64
	for _, e := range rec.Snapshot().Events {
		if e.Kind == trace.KindRetry && (retryCall == 0 || e.Wall < retryCall) {
			retryCall = e.Wall
		}
	}
	if retryCall == 0 {
		t.Fatal("the reference collection retried nothing")
	}

	// Cancel on the call that stamps the first retry event: the
	// evaluation then abandons before its next attempt.
	s := newFaultySession(t, 40, 8, 1, rates)
	s.AttachMetrics(metrics.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec = trace.NewRecorder()
	calls = 0
	rec.WallClock(func() int64 {
		calls++
		if calls == retryCall {
			cancel()
		}
		return calls
	})
	s.AttachTrace(rec)
	if _, err := s.Collect(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Collect cancelled between retries returned %v, want context.Canceled", err)
	}
	checkLedger(t, "abandoned", s)
}

// loopback is a RemoteEvaluator that runs every claim on a second,
// identically configured session, as a fleet worker would.
type loopback struct{ worker *Session }

func (l loopback) Evaluate(ctx context.Context, req EvalRequest) (EvalOutcome, error) {
	return l.worker.EvaluateClaim(ctx, req)
}

// resultBits flattens a Result into comparable words: floats by their
// bits (G.Independent's TrueTime is NaN, which == never matches) and CVs
// by fingerprint.
func resultBits(r *Result) []uint64 {
	w := []uint64{math.Float64bits(r.BestMeasured), math.Float64bits(r.TrueTime),
		math.Float64bits(r.Baseline), math.Float64bits(r.Speedup), uint64(r.Evaluations),
		uint64(len(r.ModuleCVs)), uint64(len(r.Trace)), uint64(len(r.DegradedModules))}
	for _, cv := range r.ModuleCVs {
		w = append(w, cv.Key())
	}
	for _, v := range r.Trace {
		w = append(w, math.Float64bits(v))
	}
	for _, mi := range r.DegradedModules {
		w = append(w, uint64(mi))
	}
	return w
}

// Every phase and technique — Random, collect, FR, greedy, CFR, bo and
// ga — measured through the remote seam matches a local session bit for
// bit, in results, cost, quarantine and canonical trace, and every
// session's counters equal its ledger.
func TestRemoteSeamMatchesLocal(t *testing.T) {
	rates := faults.Default().Scale(4)
	local := newFaultySession(t, 40, 8, 4, rates)
	coord := newFaultySession(t, 40, 8, 4, rates)
	worker := newFaultySession(t, 40, 8, 4, rates)
	coord.Config.Remote = loopback{worker}
	recs := map[*Session]*trace.Recorder{local: trace.NewRecorder(), coord: trace.NewRecorder()}
	for s, rec := range recs {
		s.AttachTrace(rec)
	}
	for _, s := range []*Session{local, coord, worker} {
		s.AttachMetrics(metrics.NewRegistry())
	}

	run := func(s *Session) map[string]*Result {
		ctx := context.Background()
		res, err := s.RunAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// RunAll keeps its collection to itself; collecting again also
		// goes through the seam.
		col, err := s.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, tag := range []string{TechniqueBO, TechniqueGA} {
			r, err := s.searchWith(ctx, col, tag, nil)
			if err != nil {
				t.Fatal(err)
			}
			res[r.Algorithm] = r
		}
		return res
	}
	want, got := run(local), run(coord)

	if len(got) != len(want) || len(want) != 7 {
		t.Fatalf("coordinator returned %d results, local %d, want 7", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil || g.Algorithm != w.Algorithm || !slices.Equal(resultBits(g), resultBits(w)) {
			t.Errorf("%s through the seam differs from the local run:\n got %+v\nwant %+v", name, g, w)
		}
	}
	if snapshot(coord) != snapshot(local) || snapshot(worker) != snapshot(local) {
		t.Errorf("cost differs: local %+v, coordinator %+v, worker %+v", snapshot(local), snapshot(coord), snapshot(worker))
	}
	if q := local.Quarantined(); !slices.Equal(coord.Quarantined(), q) || !slices.Equal(worker.Quarantined(), q) {
		t.Errorf("quarantine differs: local %x, coordinator %x, worker %x", q, coord.Quarantined(), worker.Quarantined())
	}
	var wantTrace, gotTrace bytes.Buffer
	if err := recs[local].Snapshot().Canonical().WriteJSONL(&wantTrace); err != nil {
		t.Fatal(err)
	}
	if err := recs[coord].Snapshot().Canonical().WriteJSONL(&gotTrace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTrace.Bytes(), wantTrace.Bytes()) {
		t.Errorf("canonical traces differ (%d bytes through the seam, %d local)", gotTrace.Len(), wantTrace.Len())
	}
	checkLedger(t, "local", local)
	checkLedger(t, "coordinator", coord)
	checkLedger(t, "worker", worker)
	if local.Cost.Flakes() == 0 || local.Cost.CompileFailures() == 0 || local.Cost.RunCrashes() == 0 {
		t.Errorf("fault mix too thin to cross-check: flakes=%d, ICEs=%d, crashes=%d",
			local.Cost.Flakes(), local.Cost.CompileFailures(), local.Cost.RunCrashes())
	}
}
