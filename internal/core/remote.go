package core

import (
	"context"
	"fmt"
	"math"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/trace"
)

// This file is the session's distributed-evaluation seam. Every
// evaluation in the pipeline is a pure function of (program, machine,
// input, seed, config, phase, sample index, CV assignment) — the
// invariant the checkpoint/resume and worker-invariance tests pin. That
// purity means an evaluation can execute in a different process: a
// fleet worker holding an identical session produces bit-identical
// measured times, cost deltas, quarantine decisions and trace events
// for the same claim. The coordinator's session then applies the
// outcome exactly as if it had evaluated locally, so the merged Report
// (and its Fingerprint) cannot distinguish local from remote execution.
//
// The seam has two halves around the one evaluation path,
// Session.evaluate:
//
//   - Config.Remote (a RemoteEvaluator) turns this session into a
//     coordinator: every range of evaluations (a collection, a Suggest
//     batch, greedy's single evaluation as a range of one) goes to the
//     evaluator in one call instead of compiling and running locally,
//     and each outcome is merged as it lands (quarantine, trace span,
//     then cost and metrics through the same finishEval a local
//     evaluation ends with), all on the calling goroutine. The evaluator
//     decides how many of the range's evaluations are in flight; no
//     goroutine waits on any one of them, and parFor serves local
//     sessions only.
//   - EvaluateClaim is the worker half: it runs evaluate for one claim on
//     a local session and returns the outcome evaluate built, plus the
//     trace span it captured through a detached batch.

// EvalRequest identifies one evaluation claim. Phase "collect" is the
// instrumented uniform evaluation (CVs holds the single uniform CV);
// every other phase measures the CV-per-module assembly end-to-end.
type EvalRequest struct {
	// Phase is the pipeline phase name ("collect", "random", "fr",
	// "greedy", or the search technique's "cfr", "bo" or "ga").
	Phase string
	// Sample is the evaluation's index within the phase.
	Sample int
	// CVs is the compilation-vector assignment: one CV for "collect",
	// one per partition module otherwise.
	CVs []flagspec.CV
}

// EvalOutcome is one completed evaluation's portable result: everything
// the coordinator must merge to stay bit-identical to a local run.
type EvalOutcome struct {
	// PerModule are the per-coupling-unit times of a "collect"
	// evaluation (nil for other phases).
	PerModule []float64
	// Total is the measured end-to-end time (+Inf for lost evaluations).
	Total float64
	// Cost is the evaluation's cost-ledger delta.
	Cost CostSnapshot
	// Quarantined lists CV fingerprints this evaluation classified as
	// poison (injected ICEs, permanent run crashes).
	Quarantined []uint64
	// Events is the evaluation's trace span, in deterministic step
	// order, with the worker-local phase ordinal and wall clock unset.
	Events []trace.Event
}

// RemoteEvaluator executes evaluation claims somewhere else — typically
// the fleet coordinator fanning claims out to worker processes.
//
// Evaluate evaluates one range of requests and calls land(i, out) once
// for each request i, in whatever order the outcomes arrive, always on
// the goroutine that called Evaluate. Each outcome must be the one the
// claim's pure evaluation function defines: the session applies it
// verbatim. Evaluate returns nil once every request has landed. It
// stops at the first error, land's or its own, withdraws whatever has
// not landed, and returns that error; land is not called again.
// Implementations own all transport retries and re-dispatch; an error
// aborts the tuning run (the session only sees errors it cannot recover
// from, e.g. a cancelled context).
//
// Window is the most evaluations the evaluator keeps in flight at once.
// The session only reports it, on its workers gauge: where and how
// widely evaluations run never changes a result.
type RemoteEvaluator interface {
	Evaluate(ctx context.Context, reqs []EvalRequest, land func(i int, out EvalOutcome) error) error
	Window() int
}

// capKey identifies one evaluation by phase and sample index: an
// in-flight captured claim, or a sample replayed from a checkpoint log.
type capKey struct {
	phase  string
	sample int
}

// capture is one in-flight claim: the detached batch its trace span
// goes to, and a channel closed when the claim ends.
type capture struct {
	tb   *trace.Batch
	done chan struct{}
}

// batchFor returns the trace batch for evaluation (phase, k): the
// registered capture batch when EvaluateClaim is executing that claim,
// the session recorder's batch otherwise.
func (s *Session) batchFor(phase string, k int) *trace.Batch {
	s.capMu.Lock()
	c := s.captures[capKey{phase, k}]
	s.capMu.Unlock()
	if c != nil {
		return c.tb
	}
	return s.tr.Batch(phase, k)
}

// holdClaim registers claim key as in flight with trace batch tb. A
// claim for the same key already in flight is waited out first: a
// worker whose stalled evaluation outlived its lease can be granted the
// same task again, and re-evaluating a claim gives a bit-identical
// outcome. The returned func ends the claim.
func (s *Session) holdClaim(ctx context.Context, key capKey, tb *trace.Batch) (func(), error) {
	c := &capture{tb: tb, done: make(chan struct{})}
	s.capMu.Lock()
	for prev := s.captures[key]; prev != nil; prev = s.captures[key] {
		s.capMu.Unlock()
		select {
		case <-prev.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		s.capMu.Lock()
	}
	s.captures[key] = c
	s.capMu.Unlock()
	return func() {
		s.capMu.Lock()
		delete(s.captures, key)
		s.capMu.Unlock()
		close(c.done)
	}, nil
}

// EvaluateClaim executes one evaluation claim on this session — the
// fleet-worker entry point. The claim's trace span is captured through a
// detached batch (the session's own recorder, if any, does not receive
// it), and the outcome carries the exact cost delta and quarantine
// decisions the evaluation produced. Claims for distinct (phase, sample)
// pairs may run concurrently; a claim for a pair already in flight waits
// for it to finish. Re-executing the same claim returns bit-identical
// outcomes, which is what makes lease-expiry re-dispatch safe.
func (s *Session) EvaluateClaim(ctx context.Context, req EvalRequest) (EvalOutcome, error) {
	if s.Config.Remote != nil {
		return EvalOutcome{}, fmt.Errorf("core: EvaluateClaim on a coordinator session")
	}
	if req.Sample < 0 || req.Sample >= s.Config.Samples {
		return EvalOutcome{}, fmt.Errorf("core: claim sample %d outside [0, %d)", req.Sample, s.Config.Samples)
	}
	uniform := req.Phase == phaseCollect
	switch {
	case uniform && len(req.CVs) != 1:
		return EvalOutcome{}, fmt.Errorf("core: collect claim carries %d CVs, want 1", len(req.CVs))
	case !uniform && len(req.CVs) != len(s.Part.Modules):
		return EvalOutcome{}, fmt.Errorf("core: claim carries %d CVs for %d modules", len(req.CVs), len(s.Part.Modules))
	}
	for i, cv := range req.CVs {
		if cv.IsZero() {
			return EvalOutcome{}, fmt.Errorf("core: claim CV %d is zero", i)
		}
	}

	tb := trace.NewSpanBatch(req.Phase, req.Sample)
	release, err := s.holdClaim(ctx, capKey{req.Phase, req.Sample}, tb)
	if err != nil {
		return EvalOutcome{}, err
	}
	defer release()

	out, err := s.evaluate(ctx, req)
	if err != nil {
		return EvalOutcome{}, err
	}
	out.Events = tb.Events()
	return out, nil
}

// remoteRange is measure on a coordinator session: it hands the whole
// range to the configured RemoteEvaluator in one call and, as each
// outcome lands, merges it as the local path would have applied it and
// passes it to got. The range starts only on a live session, and the
// merge that trips KillAfterEvals ends it (the evaluator withdraws the
// rest), so a remote run stops on an evaluation boundary like a local
// one. A malformed outcome is rejected before anything of it is merged.
// Every ingredient of the merge is commutative, so it is deterministic
// in whatever order the outcomes land.
func (s *Session) remoteRange(ctx context.Context, reqs []EvalRequest, got func(i int, out EvalOutcome)) error {
	if len(reqs) == 0 {
		return nil
	}
	if err := s.checkCancelled(ctx); err != nil {
		return err
	}
	err := s.Config.Remote.Evaluate(ctx, reqs, func(i int, out EvalOutcome) error {
		req := reqs[i]
		if math.IsNaN(out.Total) {
			return fmt.Errorf("sample %d returned NaN", req.Sample)
		}
		if req.Phase == phaseCollect && len(out.PerModule) != len(s.Part.Modules) {
			return fmt.Errorf("sample %d returned %d module times, want %d",
				req.Sample, len(out.PerModule), len(s.Part.Modules))
		}
		for _, key := range out.Quarantined {
			s.quarantineCV(key)
		}
		s.tr.CommitSpan(out.Events)
		s.finishEval(out.Cost)
		got(i, out)
		return s.checkKilled()
	})
	if err != nil {
		return fmt.Errorf("core: remote %s evaluation: %w", reqs[0].Phase, err)
	}
	return nil
}
