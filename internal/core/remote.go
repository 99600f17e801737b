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
//     coordinator: evaluate dispatches each request through the
//     evaluator instead of compiling and running locally, and merges the
//     outcome (quarantine, trace span, then cost and metrics through the
//     same finishEval a local evaluation ends with) on return. The
//     parFor claim loop is unchanged — it bounds in-flight claims
//     exactly as it bounds local workers.
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
// the fleet coordinator fanning claims out to worker processes. Evaluate
// must return the outcome the claim's pure evaluation function defines:
// the session applies it verbatim. Implementations own all transport
// retries and re-dispatch; an error return aborts the tuning run (the
// session only calls it with errors it cannot recover from, e.g. a
// cancelled context).
type RemoteEvaluator interface {
	Evaluate(ctx context.Context, req EvalRequest) (EvalOutcome, error)
}

// capKey identifies one evaluation by phase and sample index: an
// in-flight captured claim, or a sample replayed from a checkpoint log.
type capKey struct {
	phase  string
	sample int
}

// batchFor returns the trace batch for evaluation (phase, k): the
// registered capture batch when EvaluateClaim is executing that claim,
// the session recorder's batch otherwise.
func (s *Session) batchFor(phase string, k int) *trace.Batch {
	s.capMu.Lock()
	tb := s.captures[capKey{phase, k}]
	s.capMu.Unlock()
	if tb != nil {
		return tb
	}
	return s.tr.Batch(phase, k)
}

// EvaluateClaim executes one evaluation claim on this session — the
// fleet-worker entry point. The claim's trace span is captured through a
// detached batch (the session's own recorder, if any, does not receive
// it), and the outcome carries the exact cost delta and quarantine
// decisions the evaluation produced. Claims for distinct (phase, sample)
// pairs may run concurrently; re-executing the same claim returns
// bit-identical outcomes, which is what makes lease-expiry re-dispatch
// safe.
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
	key := capKey{req.Phase, req.Sample}
	s.capMu.Lock()
	if _, busy := s.captures[key]; busy {
		s.capMu.Unlock()
		return EvalOutcome{}, fmt.Errorf("core: claim %s/%d already in flight", req.Phase, req.Sample)
	}
	s.captures[key] = tb
	s.capMu.Unlock()
	defer func() {
		s.capMu.Lock()
		delete(s.captures, key)
		s.capMu.Unlock()
	}()

	out, err := s.evaluate(ctx, req)
	if err != nil {
		return EvalOutcome{}, err
	}
	out.Events = tb.Events()
	return out, nil
}

// remoteEval is evaluate on a coordinator session: it dispatches the
// request through the configured RemoteEvaluator and merges the outcome
// as the local path would have applied it. The cancellation check guards
// the evaluation boundary exactly like the local path, so a cancelled run
// never applies a partial claim's cost, and a malformed outcome is
// rejected before anything is merged. Every ingredient of the merge is
// commutative, so it is deterministic no matter which worker reported
// first.
func (s *Session) remoteEval(ctx context.Context, req EvalRequest) (EvalOutcome, error) {
	if err := s.checkCancelled(ctx); err != nil {
		return EvalOutcome{}, err
	}
	out, err := s.Config.Remote.Evaluate(ctx, req)
	if err != nil {
		return EvalOutcome{}, fmt.Errorf("core: remote evaluation %s/%d: %w", req.Phase, req.Sample, err)
	}
	if math.IsNaN(out.Total) {
		return EvalOutcome{}, fmt.Errorf("core: remote evaluation %s/%d returned NaN", req.Phase, req.Sample)
	}
	if req.Phase == phaseCollect && len(out.PerModule) != len(s.Part.Modules) {
		return EvalOutcome{}, fmt.Errorf("core: remote collect %d returned %d module times, want %d",
			req.Sample, len(out.PerModule), len(s.Part.Modules))
	}
	for _, key := range out.Quarantined {
		s.quarantineCV(key)
	}
	s.tr.CommitSpan(out.Events)
	s.finishEval(out.Cost)
	return out, nil
}
